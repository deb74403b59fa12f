#include "comm/collective.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "comm/compression.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

void validate(const std::vector<std::span<float>>& buffers) {
  if (buffers.empty()) throw std::invalid_argument("collective: no buffers");
  const std::size_t n = buffers.front().size();
  if (n == 0) throw std::invalid_argument("collective: empty buffers");
  for (const auto& b : buffers) {
    if (b.size() != n) {
      throw std::invalid_argument("collective: buffer size mismatch");
    }
  }
}

// Element-wise mean written back to every buffer, fused into a single pass
// (no O(n) double accumulator buffer).  Per element: accumulate the buffers
// in index order into a double, then write float(acc / k) to all of them —
// the exact arithmetic of the old two-pass implementation, and independent
// per element, so sharding over `ctx` cannot change a single bit.
void mean_into_all(std::vector<std::span<float>>& buffers,
                   const kernels::KernelContext& ctx) {
  const std::size_t k = buffers.size();
  const std::size_t n = buffers.front().size();
  const double inv = 1.0 / static_cast<double>(k);
  std::vector<float*> rows(k);
  for (std::size_t r = 0; r < k; ++r) rows[r] = buffers[r].data();
  const auto& ops = ctx.simd();
  ctx.parallel_shards(n, ctx.grain_rows(2 * k),
                      [&](int, std::size_t begin, std::size_t end) {
                        std::vector<float*> shifted(k);
                        for (std::size_t r = 0; r < k; ++r) {
                          shifted[r] = rows[r] + begin;
                        }
                        ops.mean_rows_pd(shifted.data(), k, end - begin, inv);
                      });
}

// Ring-AllReduce dataflow: chunked reduce-scatter then all-gather with K
// chunks, then the mean in float.
void ring_reduce(std::vector<std::span<float>>& buffers,
                 const kernels::KernelContext& ctx) {
  const int k = static_cast<int>(buffers.size());
  const std::size_t n = buffers.front().size();
  if (k == 1) return;

  // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
  std::vector<std::size_t> starts(static_cast<std::size_t>(k) + 1);
  for (int c = 0; c <= k; ++c) {
    starts[static_cast<std::size_t>(c)] =
        n * static_cast<std::size_t>(c) / static_cast<std::size_t>(k);
  }
  auto chunk = [&](int worker, int c) {
    const int cc = ((c % k) + k) % k;
    return buffers[static_cast<std::size_t>(worker)].subspan(
        starts[static_cast<std::size_t>(cc)],
        starts[static_cast<std::size_t>(cc) + 1] -
            starts[static_cast<std::size_t>(cc)]);
  };
  // Per-worker transfers within a step touch disjoint memory, so they can
  // run in any order — or concurrently — without staging buffers: in
  // reduce-scatter step s, worker x is read at chunk (x - s) and written at
  // chunk (x - 1 - s); in all-gather step s it is read at chunk (x + 1 - s)
  // and written at chunk (x - s).  Both pairs are distinct mod k for k >= 2,
  // so the unstaged result is bit-identical to simultaneous-send semantics.
  const std::size_t worker_grain =
      ctx.grain_rows(std::max<std::size_t>(1, n / static_cast<std::size_t>(k)));

  // Reduce-scatter: in step s, worker w sends chunk (w - s) to worker w+1,
  // which accumulates it.  After k-1 steps worker w owns the full sum of
  // chunk (w + 1).
  for (int s = 0; s < k - 1; ++s) {
    ctx.parallel_shards(
        static_cast<std::size_t>(k), worker_grain,
        [&](int, std::size_t wb, std::size_t we) {
          for (std::size_t wi = wb; wi < we; ++wi) {
            const int w = static_cast<int>(wi);
            const int dst = (w + 1) % k;
            const auto src = chunk(w, w - s);
            auto dst_chunk = chunk(dst, w - s);
            ctx.simd().acc(dst_chunk.data(), src.data(), dst_chunk.size());
          }
        });
  }

  // All-gather: worker w owns the fully reduced chunk (w + 1); circulate.
  for (int s = 0; s < k - 1; ++s) {
    ctx.parallel_shards(
        static_cast<std::size_t>(k), worker_grain,
        [&](int, std::size_t wb, std::size_t we) {
          for (std::size_t wi = wb; wi < we; ++wi) {
            const int w = static_cast<int>(wi);
            const int dst = (w + 1) % k;
            const auto src = chunk(w, w + 1 - s);
            auto dst_chunk = chunk(dst, w + 1 - s);
            if (!src.empty()) {
              std::memcpy(dst_chunk.data(), src.data(),
                          src.size() * sizeof(float));
            }
          }
        });
  }

  // Mean (element-wise, so sharding is exact).
  const float inv = 1.0f / static_cast<float>(k);
  ctx.parallel_shards(n, ctx.grain_rows(static_cast<std::size_t>(k)),
                      [&](int, std::size_t begin, std::size_t end) {
                        for (auto& b : buffers) {
                          ctx.simd().scale(b.data() + begin, end - begin, inv);
                        }
                      });
}

}  // namespace

CollectiveReport collective_cost(Topology topology, int k,
                                 std::uint64_t member_bytes,
                                 double bandwidth_mbps) {
  if (k < 1) throw std::invalid_argument("collective_cost: k < 1");
  const auto k64 = static_cast<std::uint64_t>(k);
  CollectiveReport r;
  r.topology = topology;
  r.workers = k;
  switch (topology) {
    case Topology::kParameterServer:
      // Server moves K*S inbound (upload phase is the Eq. 2 bottleneck).
      r.bottleneck_bytes = k64 * member_bytes;
      r.total_bytes = 2ull * k64 * member_bytes;
      break;
    case Topology::kAllReduce:
      // Eq. 3: each worker sends its model to K-1 peers through its uplink.
      r.bottleneck_bytes = (k64 - 1) * member_bytes;
      r.total_bytes = k64 * (k64 - 1) * member_bytes;
      break;
    case Topology::kRingAllReduce:
      // Eq. 4: 2 * (K-1) chunk transfers of ~S/K each per worker.
      r.bottleneck_bytes = 2ull * member_bytes * (k64 - 1) / k64;
      r.total_bytes = r.bottleneck_bytes * k64;
      break;
    default:
      throw std::invalid_argument("collective_cost: bad topology");
  }
  r.seconds = static_cast<double>(r.bottleneck_bytes) /
              (bandwidth_mbps * 1024.0 * 1024.0);
  return r;
}

CollectiveReport collective_mean(Topology topology,
                                 std::vector<std::span<float>> buffers,
                                 double bandwidth_mbps,
                                 const kernels::KernelContext& ctx) {
  validate(buffers);
  // PS and AR compute the identical mean; RAR runs the ring dataflow.
  if (topology == Topology::kRingAllReduce) {
    ring_reduce(buffers, ctx);
  } else {
    mean_into_all(buffers, ctx);
  }
  return collective_cost(topology, static_cast<int>(buffers.size()),
                         buffers.front().size() * sizeof(float),
                         bandwidth_mbps);
}

void WeightedMeanFold::reset(std::size_t n) {
  acc_.assign(n, 0.0);
  weight_sum_ = 0.0;
}

void WeightedMeanFold::fold(std::span<const Member> batch, bool parallel,
                            std::vector<std::uint64_t>* chunk_ns) {
  const std::size_t n = acc_.size();
  const WireView* grid = nullptr;  // chunk grid of a streamed batch
  codecs_.assign(batch.size(), nullptr);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const Member& m = batch[j];
    if (m.wire == nullptr) {
      if (m.fp32.size() != n) {
        throw std::runtime_error("WeightedMeanFold: update size mismatch");
      }
      continue;
    }
    if (grid == nullptr) grid = m.wire;
    if (m.wire->elems != n || m.wire->raw_bytes != n * sizeof(float) ||
        m.wire->chunk_raw_bytes != grid->chunk_raw_bytes ||
        m.wire->n_chunks() != grid->n_chunks()) {
      throw std::runtime_error("WeightedMeanFold: update size mismatch");
    }
    codecs_[j] = codec_by_name(m.wire->codec);
    if (codecs_[j] == nullptr) {
      throw std::runtime_error("WeightedMeanFold: unknown codec " +
                               m.wire->codec);
    }
  }
  for (const Member& m : batch) weight_sum_ += m.weight;

  // One chunk of the grid ([0, n) for an fp32-only batch): every member in
  // batch order, so each element accumulates in the same order whatever the
  // chunking or thread count.
  const auto fold_chunk = [&](std::size_t off, std::size_t len,
                              std::size_t c) {
    thread_local std::vector<float> scratch;
    double* acc = acc_.data() + off;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const Member& m = batch[j];
      const float* x = nullptr;
      if (m.wire == nullptr) {
        x = m.fp32.data() + off;
      } else {
        if (scratch.size() < len) scratch.resize(len);
        x = scratch.data();
        codecs_[j]->decompress_into(
            m.wire->chunk(c), {reinterpret_cast<std::uint8_t*>(scratch.data()),
                               len * sizeof(float)});
      }
      const double w = m.weight;
      for (std::size_t e = 0; e < len; ++e) {
        acc[e] += w * static_cast<double>(x[e]);
      }
    }
  };
  if (grid == nullptr) {
    fold_chunk(0, n, 0);
    return;
  }
  const std::size_t n_chunks = grid->n_chunks();
  if (chunk_ns != nullptr) chunk_ns->assign(n_chunks, 0);
  const auto run = [&](std::size_t c) {
    const obs::RealTimer timer(chunk_ns != nullptr);
    fold_chunk(grid->raw_off(c) / sizeof(float),
               grid->raw_len(c) / sizeof(float), c);
    if (chunk_ns != nullptr) (*chunk_ns)[c] = timer.ns();
  };
  if (parallel && n_chunks > 1) {
    global_pool().parallel_for(n_chunks, run);
  } else {
    for (std::size_t c = 0; c < n_chunks; ++c) run(c);
  }
}

void WeightedMeanFold::finish(std::span<float> out) const {
  if (out.size() != acc_.size()) {
    throw std::invalid_argument("WeightedMeanFold::finish: size mismatch");
  }
  const double inv = weight_sum_ > 0.0 ? 1.0 / weight_sum_ : 0.0;
  for (std::size_t e = 0; e < out.size(); ++e) {
    out[e] = static_cast<float>(acc_[e] * inv);
  }
}

}  // namespace photon
