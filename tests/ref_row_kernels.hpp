#pragma once
// Test-only copies of the per-row kernels that the packed-panel /
// register-tile GEMM core (src/tensor/simd_kernels.inl) replaced, composed
// exactly as the kernel layer used to call them.  They are plain scalar
// loops over the same fixed 16-lane scheme — element i accumulates into lane
// i mod 16, partial blocks are zero-padded, lanes fold through the 8-4-2-1
// tree — so every output reproduces the retired kernels' IEEE op sequence.
// test_gemm_core.cpp memcmps the live kernels against them; this file must
// be compiled with -ffp-contract=off (see tests/CMakeLists.txt).

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace photon::ref {

constexpr std::size_t kLanes = 16;

// f_hsum's fixed fold tree.
inline float fold16(const float* l) {
  float s8[8], s4[4], s2[2];
  for (int j = 0; j < 8; ++j) s8[j] = l[j] + l[j + 8];
  for (int j = 0; j < 4; ++j) s4[j] = s8[j] + s8[j + 4];
  for (int j = 0; j < 2; ++j) s2[j] = s4[j] + s4[j + 2];
  return s2[0] + s2[1];
}

// k_dot: 16 lane accumulators from +0, zero-padded final block.
inline float dot16(const float* a, const float* b, std::size_t n) {
  float l[kLanes] = {};
  for (std::size_t i = 0; i < n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const float av = i + j < n ? a[i + j] : 0.0f;
      const float bv = i + j < n ? b[i + j] : 0.0f;
      l[j] = l[j] + av * bv;
    }
  }
  return fold16(l);
}

// v_exp (Cephes polynomial, explicit mul+add) for one lane.
inline float exp_lane(float x) {
  const float hi = 88.3762626647950f, lo = -88.3762626647949f;
  x = x < hi ? x : hi;  // vminps(x, hi)
  x = x > lo ? x : lo;  // vmaxps(x, lo)
  const std::int32_t n =
      static_cast<std::int32_t>(std::lrintf(x * 1.44269504088896341f));
  const float fx = static_cast<float>(n);
  float r = x - fx * 0.693359375f;
  r = r - fx * -2.12194440e-4f;
  const float z = r * r;
  float y = 1.9875691500e-4f;
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * z + r;
  y = y + 1.0f;
  return y * std::bit_cast<float>((n + 127) << 23);
}

// ------------------------------------------------------ retired row ops --

inline void linear_row(float* y, const float* x, const float* w,
                       const float* bias, std::size_t c, std::size_t oc) {
  for (std::size_t o = 0; o < oc; ++o) {
    y[o] = (bias != nullptr ? bias[o] : 0.0f) + dot16(x, w + o * c, c);
  }
}

inline void linear_bwd_dx_row(float* dx, const float* dy, const float* w,
                              std::size_t c, std::size_t oc) {
  for (std::size_t o = 0; o < oc; ++o) {
    for (std::size_t p = 0; p < c; ++p) dx[p] = dx[p] + dy[o] * w[o * c + p];
  }
}

inline void linear_bwd_wb(float* dw, float* db, const float* x,
                          const float* dy, std::size_t bt, std::size_t c,
                          std::size_t oc, std::size_t o0, std::size_t o1) {
  for (std::size_t o = o0; o < o1; ++o) {
    float b = db != nullptr ? db[o] : 0.0f;
    for (std::size_t t = 0; t < bt; ++t) {
      const float g = dy[t * oc + o];
      b = b + g;
      for (std::size_t p = 0; p < c; ++p) {
        dw[o * c + p] = dw[o * c + p] + g * x[t * c + p];
      }
    }
    if (db != nullptr) db[o] = b;
  }
}

inline float attn_scores_row(float* pre, const float* q, const float* kbase,
                             std::size_t kstride, std::size_t hs,
                             std::size_t count, float scale, float slope,
                             std::size_t ti) {
  float maxv = -std::numeric_limits<float>::infinity();
  for (std::size_t t2 = 0; t2 < count; ++t2) {
    const float d = dot16(q, kbase + t2 * kstride, hs);
    const float v = d * scale - slope * static_cast<float>(ti - t2);
    pre[t2] = v;
    if (v > maxv) maxv = v;
  }
  return maxv;
}

// k_exp_sum_f: x = exp(x - maxv) in place, float 16-lane sum of the exps.
inline float exp_sum_f(float* x, std::size_t n, float maxv) {
  float l[kLanes] = {};
  for (std::size_t i = 0; i < n; i += kLanes) {
    for (std::size_t j = 0; j < kLanes && i + j < n; ++j) {
      x[i + j] = exp_lane(x[i + j] - maxv);
      l[j] = l[j] + x[i + j];
    }
  }
  return fold16(l);
}

inline void attn_av_row(float* o, const float* att, const float* vbase,
                        std::size_t vstride, std::size_t hs,
                        std::size_t count) {
  for (std::size_t p = 0; p < hs; ++p) {
    float acc = 0.0f;
    for (std::size_t t2 = 0; t2 < count; ++t2) {
      acc = acc + att[t2] * vbase[t2 * vstride + p];
    }
    o[p] = acc;
  }
}

inline void attn_bwd_av_row(float* datt, float* dvbase, const float* att,
                            const float* vbase, const float* doh,
                            std::size_t vstride, std::size_t hs,
                            std::size_t count) {
  for (std::size_t t2 = 0; t2 < count; ++t2) {
    for (std::size_t p = 0; p < hs; ++p) {
      dvbase[t2 * vstride + p] = dvbase[t2 * vstride + p] + att[t2] * doh[p];
    }
    datt[t2] = datt[t2] + dot16(vbase + t2 * vstride, doh, hs);
  }
}

inline void softmax_bwd_row(float* dpre, const float* att, const float* datt,
                            std::size_t count) {
  const float dotv = dot16(att, datt, count);
  for (std::size_t i = 0; i < count; ++i) {
    dpre[i] = dpre[i] + att[i] * (datt[i] - dotv);
  }
}

inline void attn_bwd_qk_row(float* dq, float* dkbase, const float* dpre,
                            const float* kbase, const float* q,
                            std::size_t kstride, std::size_t hs,
                            std::size_t count, float scale) {
  for (std::size_t t2 = 0; t2 < count; ++t2) {
    const float g = dpre[t2] * scale;
    for (std::size_t p = 0; p < hs; ++p) {
      dq[p] = dq[p] + g * kbase[t2 * kstride + p];
      dkbase[t2 * kstride + p] = dkbase[t2 * kstride + p] + g * q[p];
    }
  }
}

// ------------------------------------ kernels as the row ops composed them --

// matmul's retired k-blocked axpy loop: out[i][j] sums p = 0..k-1 in order.
inline void matmul(float* out, const float* a, const float* b, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc = acc + a[static_cast<std::size_t>(i) * k + p] *
                        b[static_cast<std::size_t>(p) * n + j];
      }
      out[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
}

inline void linear_forward(float* out, const float* inp, const float* weight,
                           const float* bias, int bt, int c, int oc) {
  for (int i = 0; i < bt; ++i) {
    linear_row(out + static_cast<std::size_t>(i) * oc,
               inp + static_cast<std::size_t>(i) * c, weight, bias,
               static_cast<std::size_t>(c), static_cast<std::size_t>(oc));
  }
}

inline void linear_backward(float* dinp, float* dweight, float* dbias,
                            const float* dout, const float* inp,
                            const float* weight, int bt, int c, int oc) {
  const auto cs = static_cast<std::size_t>(c);
  const auto ocs = static_cast<std::size_t>(oc);
  const auto bts = static_cast<std::size_t>(bt);
  if (dinp != nullptr) {
    for (std::size_t i = 0; i < bts; ++i) {
      linear_bwd_dx_row(dinp + i * cs, dout + i * ocs, weight, cs, ocs);
    }
  }
  if (dweight != nullptr) {
    linear_bwd_wb(dweight, dbias, inp, dout, bts, cs, ocs, 0, ocs);
  } else if (dbias != nullptr) {
    for (std::size_t o = 0; o < ocs; ++o) {
      float acc = dbias[o];
      for (std::size_t i = 0; i < bts; ++i) acc = acc + dout[i * ocs + o];
      dbias[o] = acc;
    }
  }
}

inline void attention_forward(float* out, float* preatt, float* att,
                              const float* qkv, const float* slopes, int b,
                              int t, int c, int nh) {
  const int hs = c / nh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t tt = static_cast<std::size_t>(t) * t;
  const std::size_t c3 = 3 * static_cast<std::size_t>(c);
  for (int bi = 0; bi < b; ++bi) {
    for (int h = 0; h < nh; ++h) {
      const std::size_t head_off = static_cast<std::size_t>(h) * hs;
      const float* qkv_b = qkv + static_cast<std::size_t>(bi) * t * c3;
      float* pre_h = preatt + (static_cast<std::size_t>(bi) * nh + h) * tt;
      float* att_h = att + (static_cast<std::size_t>(bi) * nh + h) * tt;
      for (int ti = 0; ti < t; ++ti) {
        const std::size_t count = static_cast<std::size_t>(ti) + 1;
        float* pre_row = pre_h + static_cast<std::size_t>(ti) * t;
        float* att_row = att_h + static_cast<std::size_t>(ti) * t;
        const float maxv = attn_scores_row(
            pre_row, qkv_b + static_cast<std::size_t>(ti) * c3 + head_off,
            qkv_b + c + head_off, c3, hs, count, scale, slopes[h],
            static_cast<std::size_t>(ti));
        std::memcpy(att_row, pre_row, count * sizeof(float));
        const float sum = exp_sum_f(att_row, count, maxv);
        const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
        for (std::size_t i = 0; i < count; ++i) att_row[i] = att_row[i] * inv;
        for (std::size_t i = count; i < static_cast<std::size_t>(t); ++i) {
          pre_row[i] = 0.0f;
          att_row[i] = 0.0f;
        }
        attn_av_row(out + (static_cast<std::size_t>(bi) * t + ti) * c +
                        head_off,
                    att_row, qkv_b + 2 * c + head_off, c3, hs, count);
      }
    }
  }
}

inline void attention_backward(float* dqkv, float* dpreatt, float* datt,
                               const float* dout, const float* qkv,
                               const float* att, int b, int t, int c,
                               int nh) {
  const int hs = c / nh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hs));
  const std::size_t tt = static_cast<std::size_t>(t) * t;
  const std::size_t c3 = 3 * static_cast<std::size_t>(c);
  for (int bi = 0; bi < b; ++bi) {
    for (int h = 0; h < nh; ++h) {
      const std::size_t head_off = static_cast<std::size_t>(h) * hs;
      const float* qkv_b = qkv + static_cast<std::size_t>(bi) * t * c3;
      float* dqkv_b = dqkv + static_cast<std::size_t>(bi) * t * c3;
      const std::size_t pair = static_cast<std::size_t>(bi) * nh + h;
      for (int ti = 0; ti < t; ++ti) {
        const std::size_t count = static_cast<std::size_t>(ti) + 1;
        const std::size_t row = pair * tt + static_cast<std::size_t>(ti) * t;
        const float* q = qkv_b + static_cast<std::size_t>(ti) * c3 + head_off;
        float* dq = dqkv_b + static_cast<std::size_t>(ti) * c3 + head_off;
        const float* doh =
            dout + (static_cast<std::size_t>(bi) * t + ti) * c + head_off;
        attn_bwd_av_row(datt + row, dqkv_b + 2 * c + head_off, att + row,
                        qkv_b + 2 * c + head_off, doh, c3, hs, count);
        softmax_bwd_row(dpreatt + row, att + row, datt + row, count);
        attn_bwd_qk_row(dq, dqkv_b + c + head_off, dpreatt + row,
                        qkv_b + c + head_off, q, c3, hs, count, scale);
      }
    }
  }
}

}  // namespace photon::ref
