// SIMD dispatch layer (DESIGN.md §10): the determinism contract and the
// fusion equivalences the training/wire hot paths rely on.
//
//  * Every variant (scalar / AVX2 / AVX-512, whichever the host supports)
//    must produce BIT-IDENTICAL results for every op, at any thread count.
//  * Every fused kernel (bias+GELU, clip+AdamW step, quantize, copy+CRC)
//    must match its unfused composition bit for bit — fusion is a pure
//    performance transform, never a numerics change.
//
// Comparisons use memcmp, not tolerances: the contract is exactness.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "nn/config.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/threadpool.hpp"

namespace photon {
namespace {

namespace k = kernels;

std::vector<simd::Variant> supported_variants() {
  std::vector<simd::Variant> v;
  for (auto cand : {simd::Variant::kScalar, simd::Variant::kAvx2,
                    simd::Variant::kAvx512}) {
    if (simd::supported(cand)) v.push_back(cand);
  }
  return v;
}

std::vector<float> gaussian_vec(std::size_t n, std::uint64_t seed,
                                float sigma = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.gaussian(0.0f, sigma);
  return v;
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ----------------------------------------------- cross-variant op identity --

TEST(SimdVariants, OpsBitIdenticalToScalar) {
  // Odd length exercises the masked 16-lane tail in every op.
  const std::size_t n = 4099;
  const auto x = gaussian_vec(n, 11);
  const auto y = gaussian_vec(n, 12);
  const auto& ref = simd::ops(simd::Variant::kScalar);

  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    const auto& ops = simd::ops(v);
    EXPECT_EQ(ops.variant, v);

    auto a_ref = x, a_v = x;
    ref.axpy(a_ref.data(), y.data(), n, 0.37f);
    ops.axpy(a_v.data(), y.data(), n, 0.37f);
    EXPECT_TRUE(bytes_equal(a_ref, a_v)) << "axpy";

    auto s_ref = x, s_v = x;
    ref.scale(s_ref.data(), n, 1.0f / 3.0f);
    ops.scale(s_v.data(), n, 1.0f / 3.0f);
    EXPECT_TRUE(bytes_equal(s_ref, s_v)) << "scale";

    // Reductions: the fixed 16-lane fold tree makes these exact equalities.
    EXPECT_EQ(ref.dot(x.data(), y.data(), n), ops.dot(x.data(), y.data(), n));
    EXPECT_EQ(ref.sum_pd(x.data(), n), ops.sum_pd(x.data(), n));
    EXPECT_EQ(ref.sumsq_pd(x.data(), n), ops.sumsq_pd(x.data(), n));
    EXPECT_EQ(ref.max_abs(x.data(), n), ops.max_abs(x.data(), n));
    EXPECT_EQ(ref.reduce_max(x.data(), n), ops.reduce_max(x.data(), n));

    std::vector<std::int8_t> q_ref(n), q_v(n);
    ref.quant_i8(q_ref.data(), x.data(), n, 127.0f / 3.0f);
    ops.quant_i8(q_v.data(), x.data(), n, 127.0f / 3.0f);
    EXPECT_EQ(0, std::memcmp(q_ref.data(), q_v.data(), n)) << "quant_i8";

    std::vector<float> d_ref(n), d_v(n);
    ref.dequant_i8(d_ref.data(), q_ref.data(), n, 3.0f / 127.0f);
    ops.dequant_i8(d_v.data(), q_ref.data(), n, 3.0f / 127.0f);
    EXPECT_TRUE(bytes_equal(d_ref, d_v)) << "dequant_i8";
  }
}

TEST(SimdVariants, EnvOverrideNamesResolve) {
  // set_active_variant degrades unsupported requests to the best supported
  // table and reports what it installed; restore the original afterwards.
  const simd::Variant before = simd::active_variant();
  for (auto v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                 simd::Variant::kAvx512}) {
    const simd::Variant got = simd::set_active_variant(v);
    EXPECT_TRUE(simd::supported(got));
    if (simd::supported(v)) EXPECT_EQ(got, v);
    EXPECT_EQ(simd::active_variant(), got);
    EXPECT_NE(std::string(simd::variant_name(got)), "");
  }
  simd::set_active_variant(before);
  EXPECT_EQ(simd::active_variant(), before);
}

// --------------------------------------------------- fused versus unfused --

TEST(FusedKernels, BiasGeluMatchesLinearBiasThenGelu) {
  constexpr int kBt = 37, kC = 24, kOc = 40;
  const auto inp = gaussian_vec(kBt * kC, 21);
  const auto w = gaussian_vec(kOc * kC, 22);
  const auto bias = gaussian_vec(kOc, 23);

  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));

    // Unfused: linear WITH bias, then standalone GELU.
    std::vector<float> with_bias(kBt * kOc), gelu_ref(kBt * kOc);
    k::linear_forward(ctx, with_bias.data(), inp.data(), w.data(), bias.data(),
                      kBt, kC, kOc);
    k::gelu_forward(ctx, gelu_ref.data(), with_bias.data(), with_bias.size());

    // Fused: bias-free linear, then bias+GELU in one pass.
    std::vector<float> no_bias(kBt * kOc), gelu_fused(kBt * kOc);
    k::linear_forward(ctx, no_bias.data(), inp.data(), w.data(), nullptr, kBt,
                      kC, kOc);
    k::bias_gelu_forward(ctx, gelu_fused.data(), no_bias.data(), bias.data(),
                         kBt, kOc);
    EXPECT_TRUE(bytes_equal(gelu_ref, gelu_fused));

    // Backward: d/dx gelu(x + b) == gelu_backward evaluated at x + b.
    const auto dout = gaussian_vec(kBt * kOc, 24);
    std::vector<float> dx_ref(kBt * kOc, 0.0f), dx_fused(kBt * kOc, 0.0f);
    k::gelu_backward(ctx, dx_ref.data(), with_bias.data(), dout.data(),
                     dout.size());
    k::bias_gelu_backward(ctx, dx_fused.data(), no_bias.data(), bias.data(),
                          dout.data(), kBt, kOc);
    EXPECT_TRUE(bytes_equal(dx_ref, dx_fused));
  }
}

TEST(FusedKernels, StepClippedMatchesClipThenStep) {
  const std::size_t n = 8191;
  const auto grads = gaussian_vec(n, 31, 0.5f);
  const auto params0 = gaussian_vec(n, 32);
  AdamWConfig cfg;
  cfg.weight_decay = 0.01f;

  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));

    // Unfused reference: scale grads in place, then plain step.
    auto p_ref = params0;
    auto g_ref = grads;
    AdamW ref(n, cfg);
    const double norm_ref = clip_grad_norm(g_ref, /*max_norm=*/0.25);
    ref.step(ctx, p_ref, g_ref, 1e-3f);

    // Fused: one pass, grads must come back untouched.
    auto p_fused = params0;
    auto g_fused = grads;
    AdamW fused(n, cfg);
    const double norm_fused =
        fused.step_clipped(ctx, p_fused, g_fused, 1e-3f, 0.25);
    EXPECT_EQ(norm_ref, norm_fused);
    EXPECT_TRUE(bytes_equal(p_ref, p_fused));
    EXPECT_TRUE(bytes_equal(grads, g_fused)) << "grads were modified";

    // Second step from the same state: momenta must have advanced equally.
    const double n2_ref = clip_grad_norm(g_ref = grads, 0.25);
    ref.step(ctx, p_ref, g_ref, 1e-3f);
    const double n2_fused = fused.step_clipped(ctx, p_fused, grads, 1e-3f, 0.25);
    EXPECT_EQ(n2_ref, n2_fused);
    EXPECT_TRUE(bytes_equal(p_ref, p_fused));
  }
}

TEST(FusedKernels, QuantizeMatchesScalarReference) {
  // The fused scale+round+clamp+narrow must equal the written-out scalar
  // expression (round-to-nearest-even via nearbyint in default mode).
  const std::size_t n = 2053;
  const auto x = gaussian_vec(n, 41, 0.02f);
  const float max_abs = simd::ops(simd::Variant::kScalar).max_abs(x.data(), n);
  const float inv = 127.0f / (max_abs > 0.0f ? max_abs : 1.0f);

  std::vector<std::int8_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float r = std::nearbyint(x[i] * inv);
    expect[i] = static_cast<std::int8_t>(
        r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r));
  }
  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    std::vector<std::int8_t> got(n);
    simd::ops(v).quant_i8(got.data(), x.data(), n, inv);
    EXPECT_EQ(0, std::memcmp(expect.data(), got.data(), n));
  }
}

TEST(FusedKernels, Crc32CopyMatchesMemcpyPlusCrc32) {
  Rng rng(51);
  // Sizes straddle the PCLMUL head threshold (64) and every tail residue.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{15}, std::size_t{16}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{100}, std::size_t{255},
                              std::size_t{256}, std::size_t{1000},
                              std::size_t{4096}, std::size_t{4097}}) {
    std::vector<std::uint8_t> src(n);
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::vector<std::uint8_t> dst(n + 1, 0xAB);  // +1 canary
    const std::uint32_t fused = crc32_copy(dst.data(), src);
    EXPECT_EQ(fused, crc32(src)) << "n=" << n;
    EXPECT_TRUE(n == 0 || std::memcmp(dst.data(), src.data(), n) == 0);
    EXPECT_EQ(dst[n], 0xAB) << "copy overran n=" << n;
  }
}

TEST(Crc32, MatchesBitwiseReference) {
  // Bit-at-a-time reflected CRC-32 (poly 0xEDB88320): the ground truth both
  // the table path (n < 64 or no PCLMUL) and the fold-by-4 path must match.
  auto reference = [](const std::vector<std::uint8_t>& data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t byte : data) {
      crc ^= byte;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(52);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{9},
        std::size_t{31}, std::size_t{63}, std::size_t{64}, std::size_t{79},
        std::size_t{80}, std::size_t{127}, std::size_t{128}, std::size_t{513},
        std::size_t{2048}, std::size_t{2049}}) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(crc32(data), reference(data)) << "n=" << n;
  }
  // Known-answer check ("123456789" -> 0xCBF43926).
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

// ------------------------------------- end-to-end training determinism ----

struct TrainedState {
  std::vector<float> params, m, losses;
};

// Three steps of the real hot path — forward/backward, fused clip+AdamW —
// under one (variant, thread count) context.
TrainedState train_three_steps(const ModelConfig& mc,
                               const k::KernelContext& ctx) {
  constexpr int kBatch = 2, kSteps = 3;
  const int seq = mc.seq_len;
  Rng rng(61);
  std::vector<int> tokens(kBatch * seq), targets(kBatch * seq);
  for (auto& t : tokens) t = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(mc.vocab_size)));
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) targets[i] = tokens[i + 1];
  targets.back() = -1;

  GptModel model(mc, /*seed=*/7);
  model.set_kernel_context(&ctx);
  AdamW opt(model.num_params());
  TrainedState st;
  for (int s = 0; s < kSteps; ++s) {
    model.zero_grad();
    st.losses.push_back(model.train_step_fb(tokens, targets, kBatch, seq));
    opt.step_clipped(ctx, model.params(), model.grads(), 1e-3f,
                     /*max_norm=*/1.0);
  }
  st.params.assign(model.params().begin(), model.params().end());
  st.m.assign(opt.exp_avg().begin(), opt.exp_avg().end());
  return st;
}

std::uint32_t params_crc(const std::vector<float>& p) {
  return crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(p.data()),
      p.size() * sizeof(float)));
}

// Train the same model under every (variant, thread count) combination and
// demand byte-identical final parameters, optimizer momenta and losses.
// nano() has head size 16; small() has 20 and hs24 has 24, so the masked
// head-size tails of the attention tiles are covered too.
TEST(SimdVariants, ModelStateBitIdenticalAcrossVariantsAndThreads) {
  const ModelConfig hs24{2, 48, 2, 128, 32, 4};
  ThreadPool pool(8);
  for (const ModelConfig& mc :
       {ModelConfig::nano(), ModelConfig::small(), hs24}) {
    SCOPED_TRACE("d_model=" + std::to_string(mc.d_model) +
                 " n_heads=" + std::to_string(mc.n_heads));
    std::vector<float> ref_params, ref_m, ref_losses;
    for (auto v : supported_variants()) {
      for (const int threads : {1, 8}) {
        SCOPED_TRACE(std::string(simd::variant_name(v)) + " threads=" +
                     std::to_string(threads));
        k::KernelContext ctx(threads > 1 ? &pool : nullptr, threads,
                             /*grain=*/64);
        ctx.set_simd(&simd::ops(v));
        const TrainedState st = train_three_steps(mc, ctx);
        if (ref_params.empty()) {
          ref_params = st.params;
          ref_m = st.m;
          ref_losses = st.losses;
        } else {
          EXPECT_TRUE(bytes_equal(ref_params, st.params)) << "params diverged";
          EXPECT_TRUE(bytes_equal(ref_m, st.m)) << "momenta diverged";
          EXPECT_TRUE(bytes_equal(ref_losses, st.losses)) << "losses diverged";
        }
      }
    }
  }
}

// Golden value: the final-parameter CRC of three small() steps, recorded
// with the per-row kernels the GEMM core replaced.  Catches a numerics
// change that moves every variant together (which the cross-variant test
// above cannot see).  A deliberate numerics change (e.g. adopting FMA) must
// update it.
TEST(SimdVariants, SmallModelParamsMatchRecordedCrc) {
  constexpr std::uint32_t kRecordedCrc = 0xcaa4f660u;
  for (auto v : supported_variants()) {
    SCOPED_TRACE(simd::variant_name(v));
    k::KernelContext ctx;
    ctx.set_simd(&simd::ops(v));
    const TrainedState st = train_three_steps(ModelConfig::small(), ctx);
    EXPECT_EQ(params_crc(st.params), kRecordedCrc);
  }
}

}  // namespace
}  // namespace photon
