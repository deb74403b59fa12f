// nn/generation: decoding correctness and sampling statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "data/tokenizer.hpp"
#include "nn/generation.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

ModelConfig gen_config() {
  ModelConfig c = ModelConfig::nano();
  c.seq_len = 24;
  return c;
}

TEST(Generation, GreedyIsDeterministicAndRespectsLength) {
  GptModel model(gen_config(), 1);
  Rng rng(3);
  GenerationConfig gc;
  gc.max_new_tokens = 10;
  const std::vector<int> prompt{5, 6, 7};
  const auto a = generate(model, prompt, gc, rng);
  const auto b = generate(model, prompt, gc, rng);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);  // greedy ignores the rng entirely
  for (int t : a) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, gen_config().vocab_size);
  }
}

TEST(Generation, StopTokenEndsEarly) {
  GptModel model(gen_config(), 1);
  Rng rng(3);
  GenerationConfig gc;
  gc.max_new_tokens = 50;
  // Greedy output is deterministic; find its first token and use it as the
  // stop token so generation must stop after one step.
  const std::vector<int> prompt{5};
  const auto first = generate(model, prompt, gc, rng);
  gc.stop_token = first[0];
  const auto out = generate(model, prompt, gc, rng);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], gc.stop_token);
}

TEST(Generation, ValidatesPrompt) {
  GptModel model(gen_config(), 1);
  Rng rng(3);
  GenerationConfig gc;
  EXPECT_THROW(generate(model, {}, gc, rng), std::invalid_argument);
  EXPECT_THROW(generate(model, {99999}, gc, rng), std::out_of_range);
}

TEST(Generation, NextTokenDistributionIsNormalized) {
  GptModel model(gen_config(), 1);
  const auto dist = next_token_distribution(model, {4, 5, 6});
  ASSERT_EQ(static_cast<int>(dist.size()), gen_config().vocab_size);
  double sum = 0.0;
  for (float p : dist) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Generation, TopKRestrictsSupport) {
  GptModel model(gen_config(), 1);
  Rng rng(7);
  // Identify the greedy (top-1) choice; with top_k=1 sampling must always
  // return it regardless of temperature.
  GenerationConfig greedy;
  greedy.max_new_tokens = 1;
  const std::vector<int> prompt{8, 9};
  const int top1 = generate(model, prompt, greedy, rng)[0];
  GenerationConfig sampled;
  sampled.max_new_tokens = 1;
  sampled.temperature = 2.0f;
  sampled.top_k = 1;
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_EQ(generate(model, prompt, sampled, rng)[0], top1);
  }
}

TEST(Generation, TrainedModelContinuesTheChainPlausibly) {
  // Train briefly on a low-entropy corpus, then check that sampled
  // continuations mostly follow chain-legal transitions.
  ModelConfig mc = gen_config();
  CorpusConfig cc;
  cc.vocab_size = mc.vocab_size;
  cc.branching = 4;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  GptModel model(mc, 5);
  AdamW opt(model.num_params());
  CorpusStreamSource stream(corpus, 3);
  for (int step = 0; step < 200; ++step) {
    const Batch b = stream.next_batch(4, mc.seq_len);
    model.zero_grad();
    model.train_step_fb(b.tokens, b.targets, 4, mc.seq_len);
    clip_grad_norm(model.grads(), 1.0);
    opt.step(kernels::default_context(), model.params(), model.grads(), 5e-3f);
  }

  Rng rng(11);
  std::vector<int> prompt;
  corpus->generate(rng, 16, prompt);
  GenerationConfig gc;
  gc.max_new_tokens = 30;
  gc.temperature = 0.8f;
  gc.top_k = 8;
  const auto continuation = generate(model, prompt, gc, rng);

  int legal = 0, checked = 0;
  int prev = prompt.back();
  for (int t : continuation) {
    const auto row = corpus->transition_row(prev);
    // EOS/BOS transitions are corpus-level, skip them.
    if (prev >= SpecialTokens::kFirstContent &&
        t >= SpecialTokens::kFirstContent) {
      ++checked;
      if (row[static_cast<std::size_t>(t)] > 0.0) ++legal;
    }
    prev = t;
  }
  ASSERT_GT(checked, 5);
  EXPECT_GT(static_cast<double>(legal) / checked, 0.7);
}

}  // namespace
}  // namespace photon
