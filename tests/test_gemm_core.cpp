// GEMM core (DESIGN.md §10): the packed-panel linear forward, the
// register-tiled linear backward, matmul and the tiled attention kernels
// must be bit-identical to the loops they replaced (test-only copies in
// ref_row_kernels.hpp), on shapes that exercise every masked tail — widths
// that are not a multiple of 16, odd row counts, head sizes 8/16/20/24 —
// for every supported SIMD variant at 1, 3 and 8 threads.
//
// Comparisons use memcmp, not tolerances: the contract is exactness.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ref_row_kernels.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

namespace k = kernels;

std::vector<float> gaussian(std::size_t n, std::uint64_t seed,
                            float sigma = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.gaussian(0.0f, sigma);
  return v;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every supported (variant, thread count) pair with a grain small enough
// that the multi-thread contexts really shard these small shapes.
template <typename Fn>
void for_each_context(Fn&& fn) {
  static ThreadPool pool(8);
  for (auto v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                 simd::Variant::kAvx512}) {
    if (!simd::supported(v)) continue;
    for (const int threads : {1, 3, 8}) {
      SCOPED_TRACE(std::string(simd::variant_name(v)) +
                   " threads=" + std::to_string(threads));
      k::KernelContext ctx(threads > 1 ? &pool : nullptr, threads,
                           /*grain=*/64);
      ctx.set_simd(&simd::ops(v));
      fn(ctx);
    }
  }
}

TEST(GemmCore, LinearForwardMatchesRowKernels) {
  for (const int c : {16, 80, 128, 192, 200}) {
    for (const int oc : {16, 40, 77, 130}) {
      for (const int bt : {1, 7, 33}) {
        SCOPED_TRACE("c=" + std::to_string(c) + " oc=" + std::to_string(oc) +
                     " bt=" + std::to_string(bt));
        const auto inp = gaussian(static_cast<std::size_t>(bt) * c, 1);
        const auto w = gaussian(static_cast<std::size_t>(oc) * c, 2);
        const auto bias = gaussian(static_cast<std::size_t>(oc), 3);
        for (const bool with_bias : {true, false}) {
          const float* b = with_bias ? bias.data() : nullptr;
          std::vector<float> want(static_cast<std::size_t>(bt) * oc);
          ref::linear_forward(want.data(), inp.data(), w.data(), b, bt, c,
                              oc);
          for_each_context([&](const k::KernelContext& ctx) {
            std::vector<float> got(want.size(), -1.0f);
            k::linear_forward(ctx, got.data(), inp.data(), w.data(), b, bt, c,
                              oc);
            EXPECT_TRUE(same_bytes(want, got)) << "bias=" << with_bias;
          });
        }
      }
    }
  }
}

TEST(GemmCore, LinearBackwardMatchesRowKernels) {
  for (const int c : {16, 80, 128, 192, 200}) {
    for (const int oc : {16, 40, 77}) {
      for (const int bt : {1, 7, 33}) {
        SCOPED_TRACE("c=" + std::to_string(c) + " oc=" + std::to_string(oc) +
                     " bt=" + std::to_string(bt));
        const auto cs = static_cast<std::size_t>(c);
        const auto ocs = static_cast<std::size_t>(oc);
        const auto bts = static_cast<std::size_t>(bt);
        const auto inp = gaussian(bts * cs, 4);
        const auto w = gaussian(ocs * cs, 5);
        const auto dout = gaussian(bts * ocs, 6);
        // Backward kernels accumulate: start from nonzero gradients.
        const auto dinp0 = gaussian(bts * cs, 7);
        const auto dw0 = gaussian(ocs * cs, 8);
        const auto db0 = gaussian(ocs, 9);
        // (dinp, dweight, dbias) presence: full, no dinp, bias only.
        for (const int mode : {0, 1, 2}) {
          const bool want_dx = mode == 0;
          const bool want_dw = mode != 2;
          auto rdx = dinp0, rdw = dw0, rdb = db0;
          ref::linear_backward(want_dx ? rdx.data() : nullptr,
                               want_dw ? rdw.data() : nullptr, rdb.data(),
                               dout.data(), inp.data(), w.data(), bt, c, oc);
          for_each_context([&](const k::KernelContext& ctx) {
            auto dx = dinp0, dw = dw0, db = db0;
            k::linear_backward(ctx, want_dx ? dx.data() : nullptr,
                               want_dw ? dw.data() : nullptr, db.data(),
                               dout.data(), inp.data(), w.data(), bt, c, oc);
            EXPECT_TRUE(same_bytes(rdx, dx)) << "dinp, mode " << mode;
            EXPECT_TRUE(same_bytes(rdw, dw)) << "dweight, mode " << mode;
            EXPECT_TRUE(same_bytes(rdb, db)) << "dbias, mode " << mode;
          });
        }
      }
    }
  }
}

TEST(GemmCore, MatmulMatchesRowKernels) {
  for (const int m : {1, 7, 33}) {
    for (const int kd : {5, 64, 100}) {
      for (const int n : {16, 77, 200}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(kd) +
                     " n=" + std::to_string(n));
        const auto a = gaussian(static_cast<std::size_t>(m) * kd, 17);
        const auto b = gaussian(static_cast<std::size_t>(kd) * n, 18);
        std::vector<float> want(static_cast<std::size_t>(m) * n);
        ref::matmul(want.data(), a.data(), b.data(), m, kd, n);
        for_each_context([&](const k::KernelContext& ctx) {
          std::vector<float> got(want.size(), -1.0f);
          k::matmul(ctx, got.data(), a.data(), b.data(), m, kd, n);
          EXPECT_TRUE(same_bytes(want, got));
        });
      }
    }
  }
}

struct AttnShape {
  int b, t, hs, nh;
};

TEST(GemmCore, AttentionMatchesRowKernels) {
  const AttnShape shapes[] = {{2, 37, 8, 3},  {1, 64, 16, 2}, {2, 33, 20, 2},
                              {1, 64, 20, 4}, {1, 19, 24, 3}, {2, 64, 24, 1},
                              {3, 1, 16, 2},  {1, 16, 24, 2}};
  for (const AttnShape& s : shapes) {
    SCOPED_TRACE("b=" + std::to_string(s.b) + " t=" + std::to_string(s.t) +
                 " hs=" + std::to_string(s.hs) + " nh=" + std::to_string(s.nh));
    const int c = s.hs * s.nh;
    const std::size_t btc = static_cast<std::size_t>(s.b) * s.t * c;
    const std::size_t att_n = static_cast<std::size_t>(s.b) * s.nh * s.t * s.t;
    const auto qkv = gaussian(3 * btc, 10, 0.7f);
    std::vector<float> slopes(static_cast<std::size_t>(s.nh));
    k::alibi_slopes(slopes.data(), s.nh);

    // Forward.  The buffers start dirty: the kernels must write every
    // element the row kernels wrote (zeros beyond the causal prefix).
    std::vector<float> out(btc, 9.0f), pre(att_n, 9.0f), att(att_n, 9.0f);
    ref::attention_forward(out.data(), pre.data(), att.data(), qkv.data(),
                           slopes.data(), s.b, s.t, c, s.nh);
    for_each_context([&](const k::KernelContext& ctx) {
      std::vector<float> o2(btc, 9.0f), p2(att_n, 9.0f), a2(att_n, 9.0f);
      k::attention_forward(ctx, o2.data(), p2.data(), a2.data(), qkv.data(),
                           slopes.data(), s.b, s.t, c, s.nh);
      EXPECT_TRUE(same_bytes(out, o2)) << "out";
      EXPECT_TRUE(same_bytes(pre, p2)) << "preatt";
      EXPECT_TRUE(same_bytes(att, a2)) << "att";
    });

    // Backward, accumulating into nonzero gradients; entries beyond the
    // causal prefix must stay untouched.
    const auto dout = gaussian(btc, 11);
    const auto dqkv0 = gaussian(3 * btc, 12);
    const auto dpre0 = gaussian(att_n, 13);
    const auto datt0 = gaussian(att_n, 14);
    auto dqkv = dqkv0, dpre = dpre0, datt = datt0;
    ref::attention_backward(dqkv.data(), dpre.data(), datt.data(),
                            dout.data(), qkv.data(), att.data(), s.b, s.t, c,
                            s.nh);
    for_each_context([&](const k::KernelContext& ctx) {
      auto dq2 = dqkv0, dp2 = dpre0, da2 = datt0;
      k::attention_backward(ctx, dq2.data(), dp2.data(), da2.data(),
                            dout.data(), qkv.data(), att.data(), s.b, s.t, c,
                            s.nh);
      EXPECT_TRUE(same_bytes(dqkv, dq2)) << "dqkv";
      EXPECT_TRUE(same_bytes(dpre, dp2)) << "dpreatt";
      EXPECT_TRUE(same_bytes(datt, da2)) << "datt";
    });
  }
}

// The embedding scatter-add dispatches through the context's SIMD table
// like every other kernel, and every context agrees with the serial one.
TEST(GemmCore, EmbeddingBackwardUsesContextTable) {
  constexpr int kBt = 9, kC = 37, kV = 5;
  const std::vector<int> tokens{0, 3, 3, 1, 4, 0, 3, 2, 2};
  const auto dout = gaussian(static_cast<std::size_t>(kBt) * kC, 15);
  const auto table0 = gaussian(static_cast<std::size_t>(kV) * kC, 16);
  auto want = table0;
  k::embedding_backward(k::KernelContext::serial(), want.data(),
                        tokens.data(), dout.data(), kBt, kC);
  for_each_context([&](const k::KernelContext& ctx) {
    auto got = table0;
    k::embedding_backward(ctx, got.data(), tokens.data(), dout.data(), kBt,
                          kC);
    EXPECT_TRUE(same_bytes(want, got));
  });
}

}  // namespace
}  // namespace photon
