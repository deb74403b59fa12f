#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/simd.hpp"

// This translation unit compiles with -ffp-contract=off (see the top-level
// CMakeLists): the few arithmetic expressions still written inline here must
// round exactly like the SIMD layer's explicit mul+add sequences.

namespace photon::kernels {

namespace {

// l2_norm reduces over fixed-size blocks folded in block order, so the
// summation grouping never depends on the shard layout (thread count).
// One block is one unit of shardable work (== default grain).
constexpr std::size_t kNormBlock = 32768;

constexpr std::size_t kPanel = 16;  // outputs per packed panel

// Per-thread pack buffer, grown on demand and reused across calls (pool
// workers persist, so steady-state training allocates nothing here).
// 64-byte aligned: every panel row is one cache line, so no 16-lane load
// of a packed panel splits across two lines.
float* scratch(std::size_t n) {
  constexpr std::size_t kAlign = 64 / sizeof(float);
  thread_local std::vector<float> buf;
  if (buf.size() < n + kAlign) buf.resize(n + kAlign);
  const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  return buf.data() + ((64 - addr % 64) % 64) / sizeof(float);
}

// Pack rows [0, cnt) of src (row stride ld, k columns) into one k-major
// panel: dst[kk*16 + o] = src[o*ld + kk], zero for o in [cnt, 16).
void pack_panel(float* dst, const float* src, std::size_t ld, std::size_t k,
                std::size_t cnt) {
  for (std::size_t o = 0; o < kPanel; ++o) {
    if (o < cnt) {
      const float* row = src + o * ld;
      for (std::size_t kk = 0; kk < k; ++kk) dst[kk * kPanel + o] = row[kk];
    } else {
      for (std::size_t kk = 0; kk < k; ++kk) dst[kk * kPanel + o] = 0.0f;
    }
  }
}

// Per-kernel FLOPs counters (set_kernel_metrics).  Null handles no-op, so
// the un-wired cost is one branch per kernel call.
struct {
  obs::CounterHandle matmul;
  obs::CounterHandle linear_fwd;
  obs::CounterHandle linear_bwd;
} g_flops;

}  // namespace

void set_kernel_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    g_flops = {};
    return;
  }
  g_flops.matmul = registry->counter("kernels.flops.matmul");
  g_flops.linear_fwd = registry->counter("kernels.flops.linear_fwd");
  g_flops.linear_bwd = registry->counter("kernels.flops.linear_bwd");
  registry->gauge("kernels.simd_variant")
      .set(static_cast<double>(static_cast<int>(simd::active_variant())));
}

void matmul(const KernelContext& ctx, float* out, const float* a,
            const float* b, int m, int k, int n) {
  g_flops.matmul.add(2ull * static_cast<std::uint64_t>(m) *
                     static_cast<std::uint64_t>(k) *
                     static_cast<std::uint64_t>(n));
  const simd::Ops& ops = ctx.simd();
  const std::size_t ks = static_cast<std::size_t>(k);
  const std::size_t ns = static_cast<std::size_t>(n);
  // out = a @ b on the register tile; each row is owned by one shard and
  // sums p = 0..k-1 in order.
  ctx.parallel_shards(static_cast<std::size_t>(m), ctx.grain_rows(ks * ns),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.tile_gemm(out + i0 * ns, ns, a + i0 * ks, ks, 1, b,
                                      ns, i1 - i0, ns, ks, 1.0f,
                                      simd::Tri::kFull, false);
                      });
}

void linear_forward(const KernelContext& ctx, float* out, const float* inp,
                    const float* weight, const float* bias, int bt, int c,
                    int oc) {
  g_flops.linear_fwd.add(2ull * static_cast<std::uint64_t>(bt) *
                         static_cast<std::uint64_t>(c) *
                         static_cast<std::uint64_t>(oc));
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t ocs = static_cast<std::size_t>(oc);
  const std::size_t bts = static_cast<std::size_t>(bt);
  // Sharded over 16-output panels: each is packed once into per-thread
  // scratch (16*c floats, L1-resident) and swept by every row.  Each output
  // is owned by one shard and computed in a fixed order: bit-exact.
  const std::size_t panels = (ocs + kPanel - 1) / kPanel;
  ctx.parallel_shards(
      panels, ctx.grain_rows(kPanel * cs * bts),
      [&](int, std::size_t p0, std::size_t p1) {
        float* wp = scratch(kPanel * cs);
        for (std::size_t p = p0; p < p1; ++p) {
          const std::size_t o = p * kPanel;
          const std::size_t cnt = std::min(kPanel, ocs - o);
          pack_panel(wp, weight + o * cs, cs, cs, cnt);
          ops.panel_dot(out + o, ocs, inp, cs, bts, wp, cs, cnt,
                        bias != nullptr ? bias + o : nullptr,
                        simd::PanelInit::kBias, false);
        }
      });
}

void linear_backward(const KernelContext& ctx, float* dinp, float* dweight,
                     float* dbias, const float* dout, const float* inp,
                     const float* weight, int bt, int c, int oc) {
  if (g_flops.linear_bwd) {
    const std::uint64_t mm = 2ull * static_cast<std::uint64_t>(bt) *
                             static_cast<std::uint64_t>(c) *
                             static_cast<std::uint64_t>(oc);
    std::uint64_t flops = 0;
    if (dinp != nullptr) flops += mm;
    if (dweight != nullptr) flops += mm;
    if (dbias != nullptr) {
      flops += static_cast<std::uint64_t>(bt) * static_cast<std::uint64_t>(oc);
    }
    g_flops.linear_bwd.add(flops);
  }
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t ocs = static_cast<std::size_t>(oc);
  const std::size_t bts = static_cast<std::size_t>(bt);
  if (dinp != nullptr) {
    // dinp += dout @ W  (dout: (BT,OC), W: (OC,C)).  Each row of dinp is
    // owned by exactly one shard: race-free and bit-exact.
    ctx.parallel_shards(bts, ctx.grain_rows(cs * ocs),
                        [&](int, std::size_t i0, std::size_t i1) {
                          ops.tile_gemm(dinp + i0 * cs, cs, dout + i0 * ocs,
                                        ocs, 1, weight, cs, i1 - i0, cs, ocs,
                                        1.0f, simd::Tri::kFull, true);
                        });
  }
  if (dweight != nullptr || dbias != nullptr) {
    // dW += dout^T @ inp and db += colsum(dout) reduce over BT rows;
    // sharding over output channels gives every element a fixed
    // row-ascending accumulation order — bit-exact at any thread count.
    const std::size_t row_cost = dweight != nullptr ? 2 * bts * cs : bts;
    ctx.parallel_shards(ocs, ctx.grain_rows(row_cost),
                        [&](int, std::size_t o0, std::size_t o1) {
                          if (dweight != nullptr) {
                            ops.tile_gemm(dweight + o0 * cs, cs, dout + o0, 1,
                                          ocs, inp, cs, o1 - o0, cs, bts, 1.0f,
                                          simd::Tri::kFull, true);
                          }
                          if (dbias != nullptr) {
                            ops.col_acc(dbias + o0, dout + o0, bts, ocs,
                                        o1 - o0);
                          }
                        });
  }
}

void layernorm_forward(const KernelContext& ctx, float* out, float* mean,
                       float* rstd, const float* inp, const float* gamma,
                       const float* beta, int bt, int c) {
  constexpr float kEps = 1e-5f;
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(4 * cs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* x = inp + i * cs;
          const double m = ops.sum_pd(x, cs) / c;
          const double v = ops.sumsq_dev_pd(x, cs, m) / c;
          const float mf = static_cast<float>(m);
          const float rs = static_cast<float>(1.0 / std::sqrt(v + kEps));
          ops.ln_apply_row(out + i * cs, x, gamma, beta, cs, mf, rs);
          mean[i] = mf;
          rstd[i] = rs;
        }
      });
}

void layernorm_backward(const KernelContext& ctx, float* dinp, float* dgamma,
                        float* dbeta, const float* dout, const float* inp,
                        const float* gamma, const float* mean,
                        const float* rstd, int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t bts = static_cast<std::size_t>(bt);
  // Pass 1 — dinp, row-sharded: two row reductions feed the elementwise
  // update.  Each row is owned by one shard: bit-exact.
  ctx.parallel_shards(
      bts, ctx.grain_rows(6 * cs), [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* x = inp + i * cs;
          const float* dy = dout + i * cs;
          double s1 = 0.0;
          double s2 = 0.0;
          ops.ln_bwd_reduce_row(dy, gamma, x, cs, mean[i], rstd[i], &s1, &s2);
          const float dnm = static_cast<float>(s1 / c);
          const float dnnm = static_cast<float>(s2 / c);
          ops.ln_bwd_dx_row(dinp + i * cs, dy, gamma, x, cs, mean[i], rstd[i],
                            dnm, dnnm);
        }
      });
  // Pass 2 — dgamma/dbeta, column-sharded: every column accumulates all BT
  // rows in order, so the result is bit-exact at any thread count.
  ctx.parallel_shards(cs, ctx.grain_rows(4 * bts),
                      [&](int, std::size_t c0, std::size_t c1) {
                        ops.ln_bwd_dgb_cols(dgamma, dbeta, dout, inp, mean,
                                            rstd, bts, cs, c0, c1);
                      });
}

void gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                  std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.gelu_fwd(out + i0, inp + i0, i1 - i0);
                      });
}

void gelu_backward(const KernelContext& ctx, float* dinp, const float* inp,
                   const float* dout, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.gelu_bwd(dinp + i0, inp + i0, dout + i0, i1 - i0);
                      });
}

void bias_gelu_forward(const KernelContext& ctx, float* out, const float* inp,
                       const float* bias, int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(static_cast<std::size_t>(bt), ctx.grain_rows(2 * cs),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.bias_gelu_fwd(out + i0 * cs, inp + i0 * cs, bias,
                                          i1 - i0, cs);
                      });
}

void bias_gelu_backward(const KernelContext& ctx, float* dinp,
                        const float* inp, const float* bias, const float* dout,
                        int bt, int c) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t cs = static_cast<std::size_t>(c);
  ctx.parallel_shards(static_cast<std::size_t>(bt), ctx.grain_rows(3 * cs),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.bias_gelu_bwd(dinp + i0 * cs, inp + i0 * cs, bias,
                                          dout + i0 * cs, i1 - i0, cs);
                      });
}

void residual_forward(const KernelContext& ctx, float* out, const float* a,
                      const float* b, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.add(out + i0, a + i0, b + i0, i1 - i0);
                      });
}

void residual_backward(const KernelContext& ctx, float* da, float* db,
                       const float* dout, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.acc(da + i0, dout + i0, i1 - i0);
                        ops.acc(db + i0, dout + i0, i1 - i0);
                      });
}

void alibi_slopes(float* slopes, int nh) {
  for (int h = 0; h < nh; ++h) {
    slopes[h] = std::exp2(-8.0f * static_cast<float>(h + 1) / static_cast<float>(nh));
  }
}

void attention_forward(const KernelContext& ctx, float* out, float* preatt,
                       float* att, const float* qkv, const float* slopes,
                       int b, int t, int c, int nh) {
  const std::size_t hs = static_cast<std::size_t>(c / nh);  // head size
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t ts = static_cast<std::size_t>(t);
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t tt = ts * ts;
  const std::size_t pairs = static_cast<std::size_t>(b) * nh;
  const std::size_t pair_cost = tt * hs;
  const std::size_t c3 = 3 * cs;
  const simd::Ops& ops = ctx.simd();

  // (batch, head) pairs are fully independent: each owns disjoint slices of
  // preatt/att/out, so sharding over them is race-free and bit-exact.
  ctx.parallel_shards(pairs, ctx.grain_rows(pair_cost), [&](int, std::size_t b0,
                                                            std::size_t b1) {
    float* panel = scratch(kPanel * hs);
    for (std::size_t bh = b0; bh < b1; ++bh) {
      const std::size_t bi = bh / static_cast<std::size_t>(nh);
      const std::size_t h = bh % static_cast<std::size_t>(nh);
      const std::size_t head_off = h * hs;
      const float* qkv_b = qkv + bi * ts * c3;
      const float* qbase = qkv_b + head_off;
      const float* kbase = qkv_b + cs + head_off;
      const float* vbase = qkv_b + 2 * cs + head_off;
      float* pre_h = preatt + bh * tt;
      float* att_h = att + bh * tt;

      // Scores d = q.k for the causal triangle, one 16-key panel at a time:
      // the panel of keys [t0, t0+16) only meets query rows ti >= t0.
      for (std::size_t t0 = 0; t0 < ts; t0 += kPanel) {
        const std::size_t cnt = std::min(kPanel, ts - t0);
        pack_panel(panel, kbase + t0 * c3, c3, hs, cnt);
        ops.panel_dot(pre_h + t0 * ts + t0, ts, qbase + t0 * c3, c3, ts - t0,
                      panel, hs, cnt, nullptr, simd::PanelInit::kSet, true);
      }
      // ALiBi bias -slope*(ti - t2), causal softmax, zeroed beyond ti.
      for (std::size_t ti = 0; ti < ts; ++ti) {
        ops.attn_softmax_row(pre_h + ti * ts, att_h + ti * ts, ti + 1, ts,
                             scale, slopes[h], ti);
      }
      // out = att @ V over the causal prefix.
      ops.tile_gemm(out + bi * ts * cs + head_off, cs, att_h, ts, 1, vbase,
                    c3, ts, hs, ts, 1.0f, simd::Tri::kLower, false);
    }
  });
}

void attention_backward(const KernelContext& ctx, float* dqkv, float* dpreatt,
                        float* datt, const float* dout, const float* qkv,
                        const float* att, int b, int t, int c, int nh) {
  const std::size_t hs = static_cast<std::size_t>(c / nh);
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t ts = static_cast<std::size_t>(t);
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t tt = ts * ts;
  const std::size_t pairs = static_cast<std::size_t>(b) * nh;
  const std::size_t pair_cost = 2 * tt * hs;
  const std::size_t c3 = 3 * cs;
  const simd::Ops& ops = ctx.simd();

  // Like the forward: a (batch, head) pair only ever touches the head-h
  // slice of its own batch's dqkv rows, so pairs never alias.
  ctx.parallel_shards(pairs, ctx.grain_rows(pair_cost), [&](int, std::size_t b0,
                                                            std::size_t b1) {
    float* panel = scratch(kPanel * hs);
    for (std::size_t bh = b0; bh < b1; ++bh) {
      const std::size_t bi = bh / static_cast<std::size_t>(nh);
      const std::size_t head_off = (bh % static_cast<std::size_t>(nh)) * hs;
      const float* qkv_b = qkv + bi * ts * c3;
      float* dqkv_b = dqkv + bi * ts * c3;
      const float* qbase = qkv_b + head_off;
      const float* kbase = qkv_b + cs + head_off;
      const float* vbase = qkv_b + 2 * cs + head_off;
      const float* doh = dout + bi * ts * cs + head_off;
      const float* att_h = att + bh * tt;
      float* datt_h = datt + bh * tt;
      float* dpre_h = dpreatt + bh * tt;

      // datt += dO . V^T over the causal triangle (panel dots, like the
      // forward's q.k).
      for (std::size_t t0 = 0; t0 < ts; t0 += kPanel) {
        const std::size_t cnt = std::min(kPanel, ts - t0);
        pack_panel(panel, vbase + t0 * c3, c3, hs, cnt);
        ops.panel_dot(datt_h + t0 * ts + t0, ts, doh + t0 * cs, cs, ts - t0,
                      panel, hs, cnt, nullptr, simd::PanelInit::kAcc, true);
      }
      // Backward through softmax: dpre = att * (datt - sum(att*datt)).
      for (std::size_t ti = 0; ti < ts; ++ti) {
        ops.softmax_bwd_row(dpre_h + ti * ts, att_h + ti * ts,
                            datt_h + ti * ts, ti + 1);
      }
      // dV += att^T @ dO, dQ += (dpre*scale) @ K, dK += (dpre*scale)^T @ Q,
      // each over the causal range (the ALiBi bias is constant: no grad).
      ops.tile_gemm(dqkv_b + 2 * cs + head_off, c3, att_h, 1, ts, doh, cs, ts,
                    hs, ts, 1.0f, simd::Tri::kUpper, true);
      ops.tile_gemm(dqkv_b + head_off, c3, dpre_h, ts, 1, kbase, c3, ts, hs,
                    ts, scale, simd::Tri::kLower, true);
      ops.tile_gemm(dqkv_b + cs + head_off, c3, dpre_h, 1, ts, qbase, c3, ts,
                    hs, ts, scale, simd::Tri::kUpper, true);
    }
  });
}

void embedding_forward(const KernelContext& ctx, float* out, const int* tokens,
                       const float* table, int bt, int c) {
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(static_cast<std::size_t>(c)),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* row = table + static_cast<std::size_t>(tokens[i]) * c;
          std::memcpy(out + i * c, row,
                      sizeof(float) * static_cast<std::size_t>(c));
        }
      });
}

void embedding_backward(const KernelContext& ctx, float* dtable,
                        const int* tokens, const float* dout, int bt, int c) {
  // Scatter-add: different rows can hit the same token id, so this stays
  // serial (it is a tiny fraction of the step anyway).
  const simd::Ops& ops = ctx.simd();
  for (int i = 0; i < bt; ++i) {
    float* drow = dtable + static_cast<std::size_t>(tokens[i]) * c;
    const float* dy = dout + static_cast<std::size_t>(i) * c;
    ops.acc(drow, dy, static_cast<std::size_t>(c));
  }
}

void softmax_xent_forward(const KernelContext& ctx, float* losses,
                          float* probs, const float* logits,
                          const int* targets, int bt, int v) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t vs = static_cast<std::size_t>(v);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(3 * vs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* z = logits + i * vs;
          float* p = probs + i * vs;
          // Fused max / exp+sum / normalize: three passes over the row
          // instead of the unfused five (max, sub, exp, sum, div).
          const float maxv = ops.reduce_max(z, vs);
          const double sum = ops.exp_sum_pd(p, z, vs, maxv);
          const float inv = static_cast<float>(1.0 / sum);
          ops.scale(p, vs, inv);
          const int target = targets[i];
          if (target < 0) {
            losses[i] = 0.0f;
          } else {
            losses[i] = -std::log(std::max(p[target], 1e-12f));
          }
        }
      });
}

void softmax_xent_backward(const KernelContext& ctx, float* dlogits,
                           const float* probs, const int* targets, int bt,
                           int v, float scale) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t vs = static_cast<std::size_t>(v);
  ctx.parallel_shards(
      static_cast<std::size_t>(bt), ctx.grain_rows(vs),
      [&](int, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const int target = targets[i];
          if (target < 0) continue;
          float* dz = dlogits + i * vs;
          // dz += probs*scale for the whole row, then fix up the target
          // column's -scale: one vector pass plus one scalar op.
          ops.axpy(dz, probs + i * vs, vs, scale);
          dz[target] -= scale;
        }
      });
}

void scale_inplace(const KernelContext& ctx, float* x, float s,
                   std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.scale(x + i0, i1 - i0, s);
                      });
}

void axpy(const KernelContext& ctx, float* y, float a, const float* x,
          std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.axpy(y + i0, x + i0, i1 - i0, a);
                      });
}

void sub(const KernelContext& ctx, float* out, const float* a, const float* b,
         std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain(),
                      [&](int, std::size_t i0, std::size_t i1) {
                        ops.sub(out + i0, a + i0, b + i0, i1 - i0);
                      });
}

double l2_norm(const KernelContext& ctx, const float* x, std::size_t n) {
  const simd::Ops& ops = ctx.simd();
  const std::size_t nb = (n + kNormBlock - 1) / kNormBlock;
  std::vector<double> partials(nb, 0.0);
  ctx.parallel_shards(nb, 1, [&](int, std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t off = blk * kNormBlock;
      partials[blk] = ops.sumsq_pd(x + off, std::min(kNormBlock, n - off));
    }
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return std::sqrt(total);
}

}  // namespace photon::kernels
