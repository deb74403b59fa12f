// Scalar variant of the SIMD op table: portable C++ (no intrinsics, no -m
// flags).  The primitives below are exact lane-by-lane mirrors of the AVX
// instructions the other TUs use — including
// vminps/vmaxps operand semantics, round-to-nearest-even conversions, and the
// fixed fold trees — so this TU produces bit-identical results to the vector
// variants.  Compiled with -ffp-contract=off (no FMA contraction) like every
// other consumer of simd_kernels.inl.

#include "tensor/simd.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace photon::simd::detail {
namespace {

// vf is four 4-lane GCC vector-extension quads.  Their arithmetic is plain
// per-lane IEEE float math — the compiler lowers it to SSE2 on x86-64, or
// to scalar code on a target without 128-bit SIMD — and, unlike a float[16]
// array, a quad lives in a register instead of being copied through memory
// at every op.
typedef float f4 __attribute__((vector_size(16)));
struct vf {
  f4 q[4];  // lanes 0-3, 4-7, 8-11, 12-15
};
typedef double d2 __attribute__((vector_size(16)));
struct vd {
  d2 q[8];  // lanes 0-1, 2-3, ..., 14-15
};
struct vi {
  std::int32_t l[16];
};
typedef std::uint64_t u2 __attribute__((vector_size(16)));
struct vu {
  u2 q[8];  // lanes 0-1, 2-3, ..., 14-15
};

// GEMM-core tile shape (simd_kernels.inl), sized for 16 xmm registers: a
// vf is four xmm, so the panel dot keeps two rows x one lane accumulator
// (8 xmm) live per pass and the register tile is 2 rows x 1 vector.
constexpr int kPanelRows = 2;
constexpr std::size_t kPanelGroup = 1;
constexpr int kTileRows = 2;
constexpr int kTileVecs = 1;

inline float lane(const vf& v, int j) { return v.q[j >> 2][j & 3]; }
inline void set_lane(vf& v, int j, float x) { v.q[j >> 2][j & 3] = x; }

inline vf f_load(const float* p) {
  vf v;
  std::memcpy(&v.q, p, sizeof(v.q));
  return v;
}
inline void f_store(float* p, vf v) { std::memcpy(p, &v.q, sizeof(v.q)); }
inline vf f_set1(float x) {
  const f4 s = {x, x, x, x};
  return {{s, s, s, s}};
}
inline vf f_zero() { return f_set1(0.0f); }

inline vf f_add(vf a, vf b) {
  return {{a.q[0] + b.q[0], a.q[1] + b.q[1], a.q[2] + b.q[2], a.q[3] + b.q[3]}};
}
inline vf f_sub(vf a, vf b) {
  return {{a.q[0] - b.q[0], a.q[1] - b.q[1], a.q[2] - b.q[2], a.q[3] - b.q[3]}};
}
inline vf f_mul(vf a, vf b) {
  return {{a.q[0] * b.q[0], a.q[1] * b.q[1], a.q[2] * b.q[2], a.q[3] * b.q[3]}};
}
inline vf f_div(vf a, vf b) {
  return {{a.q[0] / b.q[0], a.q[1] / b.q[1], a.q[2] / b.q[2], a.q[3] / b.q[3]}};
}
// vminps/vmaxps semantics: result is the SECOND operand when the compare is
// false (covers +/-0 ties and NaN propagation the same way the intrinsics do).
inline f4 min4(f4 a, f4 b) { return a < b ? a : b; }
inline f4 max4(f4 a, f4 b) { return a > b ? a : b; }
inline vf f_min(vf a, vf b) {
  return {{min4(a.q[0], b.q[0]), min4(a.q[1], b.q[1]), min4(a.q[2], b.q[2]),
           min4(a.q[3], b.q[3])}};
}
inline vf f_max(vf a, vf b) {
  return {{max4(a.q[0], b.q[0]), max4(a.q[1], b.q[1]), max4(a.q[2], b.q[2]),
           max4(a.q[3], b.q[3])}};
}
inline vf f_sqrt(vf a) {
  for (int j = 0; j < 16; ++j) set_lane(a, j, std::sqrt(lane(a, j)));
  return a;
}
inline vf f_abs(vf a) {
  for (int j = 0; j < 16; ++j) set_lane(a, j, std::fabs(lane(a, j)));
  return a;
}
inline vf f_copysign(vf mag, vf sgn) {
  for (int j = 0; j < 16; ++j) {
    set_lane(mag, j, std::copysign(lane(mag, j), lane(sgn, j)));
  }
  return mag;
}

// Fixed fold trees (see simd.hpp): identical lane pairing in every variant.
// Quad i holds lanes 4i..4i+3, so s8 = {q0+q2, q1+q3} and s4 = s8a + s8b.
inline float f_hsum(vf v) {
  const f4 s4 = (v.q[0] + v.q[2]) + (v.q[1] + v.q[3]);
  return (s4[0] + s4[2]) + (s4[1] + s4[3]);
}
inline float f_hmax(vf v) {
  const f4 s4 = max4(max4(v.q[0], v.q[2]), max4(v.q[1], v.q[3]));
  const float s20 = s4[0] > s4[2] ? s4[0] : s4[2];
  const float s21 = s4[1] > s4[3] ? s4[1] : s4[3];
  return s20 > s21 ? s20 : s21;
}

// cvtps2dq rounds to nearest-even under the default MXCSR mode; lrintf does
// the same under the default fenv mode.
inline vi f_to_i_nearest(vf a) {
  vi r;
  for (int j = 0; j < 16; ++j) {
    r.l[j] = static_cast<std::int32_t>(std::lrintf(lane(a, j)));
  }
  return r;
}
inline vf i_to_f(vi a) {
  vf r;
  for (int j = 0; j < 16; ++j) set_lane(r, j, static_cast<float>(a.l[j]));
  return r;
}
// 2^n for n in [-127, 127] via exponent-field construction.
inline vf i_pow2f(vi n) {
  vf r;
  for (int j = 0; j < 16; ++j) {
    set_lane(r, j, std::bit_cast<float>((n.l[j] + 127) << 23));
  }
  return r;
}
inline void i_store(std::int32_t* p, vi v) { std::memcpy(p, v.l, sizeof(v.l)); }
inline vf i8_to_f(const std::int8_t* p) {
  vf r;
  for (int j = 0; j < 16; ++j) set_lane(r, j, static_cast<float>(p[j]));
  return r;
}

inline vf f_load_partial(const float* p, std::size_t cnt, float pad) {
  vf v = f_set1(pad);
  for (std::size_t j = 0; j < cnt; ++j) set_lane(v, static_cast<int>(j), p[j]);
  return v;
}
inline void f_store_partial(float* p, vf v, std::size_t cnt) {
  for (std::size_t j = 0; j < cnt; ++j) p[j] = lane(v, static_cast<int>(j));
}
inline vf f_keep(vf v, std::size_t cnt) {
  for (std::size_t j = cnt; j < 16; ++j) set_lane(v, static_cast<int>(j), 0.0f);
  return v;
}

// vd and vu are register-sized pairs like vf's quads; d_map / u_map write
// one op per pair out so every pair stays in a register between ops.
template <typename F>
inline vd d_map(F f) {
  return {{f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)}};
}
inline vd d_load(const double* p) {
  vd v;
  std::memcpy(&v.q, p, sizeof(v.q));
  return v;
}
inline void d_store(double* p, vd v) { std::memcpy(p, &v.q, sizeof(v.q)); }
inline vd d_set1(double x) {
  return d_map([x](int) { return d2{x, x}; });
}
inline vd d_zero() { return d_set1(0.0); }
inline vd d_add(vd a, vd b) {
  return d_map([&](int i) { return a.q[i] + b.q[i]; });
}
inline vd d_sub(vd a, vd b) {
  return d_map([&](int i) { return a.q[i] - b.q[i]; });
}
inline vd d_mul(vd a, vd b) {
  return d_map([&](int i) { return a.q[i] * b.q[i]; });
}
// Pair i holds lanes 2i, 2i+1: s8 = q[i] + q[i+4], s4 = s8[0..1] + s8[2..3]
// as pairs, then s2[j] = s4[j] + s4[j+2] and s2[0] + s2[1].
inline double d_hsum(vd v) {
  const d2 s4a = (v.q[0] + v.q[4]) + (v.q[2] + v.q[6]);  // s4[0], s4[1]
  const d2 s4b = (v.q[1] + v.q[5]) + (v.q[3] + v.q[7]);  // s4[2], s4[3]
  const d2 s2 = s4a + s4b;
  return s2[0] + s2[1];
}
inline vd f_widen(vf a) {
  return d_map([&](int i) {
    return d2{static_cast<double>(lane(a, 2 * i)),
              static_cast<double>(lane(a, 2 * i + 1))};
  });
}
// cvtpd2ps rounds to nearest-even, same as the static_cast.
inline vf d_narrow(vd a) {
  vf r;
  for (int j = 0; j < 16; ++j) {
    set_lane(r, j, static_cast<float>(a.q[j >> 1][j & 1]));
  }
  return r;
}

template <typename F>
inline vu u_map(F f) {
  return {{f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)}};
}
inline vu u_load(const std::uint64_t* p) {
  vu v;
  std::memcpy(&v.q, p, sizeof(v.q));
  return v;
}
inline void u_store(std::uint64_t* p, vu v) {
  std::memcpy(p, &v.q, sizeof(v.q));
}
inline vu u_set1(std::uint64_t x) {
  return u_map([x](int) { return u2{x, x}; });
}
inline vu u_add(vu a, vu b) {
  return u_map([&](int i) { return a.q[i] + b.q[i]; });
}
inline vu u_sub(vu a, vu b) {
  return u_map([&](int i) { return a.q[i] - b.q[i]; });
}
inline vu u_xor(vu a, vu b) {
  return u_map([&](int i) { return a.q[i] ^ b.q[i]; });
}
template <int N>
inline vu u_shr(vu a) {
  return u_map([&](int i) { return a.q[i] >> N; });
}
// Per-lane 64-bit multiplies: SSE2 has no 64x64 vector multiply, and two
// scalar imuls beat the three-pmuludq emulation a u2 product lowers to.
inline vu u_mul(vu a, vu b) {
  return u_map([&](int i) {
    return u2{a.q[i][0] * b.q[i][0], a.q[i][1] * b.q[i][1]};
  });
}
inline std::uint64_t llrint_u(double x) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(std::llrint(x)));
}
inline vu d_to_u_nearest(vd x) {
  return u_map([&](int i) {
    return u2{llrint_u(x.q[i][0]), llrint_u(x.q[i][1])};
  });
}

#include "simd_kernels.inl"

}  // namespace

Ops make_ops_scalar() { return make_ops_impl(Variant::kScalar); }

}  // namespace photon::simd::detail
