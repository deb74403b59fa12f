#include "baselines/ddp.hpp"

#include <cstring>

#include "comm/collective.hpp"
#include "data/corpus.hpp"
#include "eval/perplexity.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace photon {

DdpTrainer::DdpTrainer(DdpConfig config) : config_(std::move(config)) {
  model_ = std::make_unique<GptModel>(config_.model,
                                      hash_combine(config_.seed, 0x1217ULL));
  if (config_.kernel_threads > 0) {
    kctx_ = kernels::KernelContext(&global_pool(), config_.kernel_threads);
    model_->set_kernel_context(&kctx_);
  }
  opt_ = std::make_unique<AdamW>(model_->num_params(), config_.adamw);
  CosineScheduleConfig sc;
  sc.max_lr = config_.max_lr;
  sc.min_lr_factor = config_.min_lr_factor;
  sc.warmup_steps = config_.warmup_steps;
  sc.total_steps = config_.steps;
  schedule_ = std::make_unique<CosineSchedule>(sc);

  CorpusConfig cc;
  cc.vocab_size = config_.model.vocab_size;
  cc.branching = config_.corpus_branching;
  cc.mean_doc_len = config_.corpus_mean_doc_len;
  cc.base_seed = hash_combine(config_.seed, 0xDA7AULL);
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  for (int w = 0; w < config_.workers; ++w) {
    worker_streams_.push_back(std::make_unique<CorpusStreamSource>(
        corpus, hash_combine(config_.seed, 0x517EA4 + static_cast<std::uint64_t>(w))));
  }
  CorpusStreamSource eval_stream(corpus, hash_combine(config_.seed, 0xE7A1ULL));
  eval_set_ = materialize(eval_stream, config_.eval_tokens);
}

DdpTrainer::~DdpTrainer() = default;

DdpResult DdpTrainer::run() {
  DdpResult result;
  const int seq = config_.model.seq_len;
  const int k = config_.workers;
  const std::size_t n = model_->num_params();

  // Per-worker gradient buffers for the real ring reduction.
  std::vector<std::vector<float>> worker_grads(
      static_cast<std::size_t>(k), std::vector<float>(n, 0.0f));

  double window_loss = 0.0;
  int window_count = 0;
  std::uint64_t tokens_seen = 0;

  for (int step = 0; step < config_.steps; ++step) {
    // Step 1 (Alg. 2): each worker computes gradients on its shard.
    double step_loss = 0.0;
    for (int w = 0; w < k; ++w) {
      const Batch b =
          worker_streams_[static_cast<std::size_t>(w)]->next_batch(
              config_.worker_batch, seq);
      model_->zero_grad();
      step_loss += model_->train_step_fb(b.tokens, b.targets,
                                         config_.worker_batch, seq) / k;
      std::memcpy(worker_grads[static_cast<std::size_t>(w)].data(),
                  model_->grads().data(), n * sizeof(float));
    }

    // Step 2: Ring-AllReduce averages the gradients across workers.
    std::vector<std::span<float>> spans;
    spans.reserve(worker_grads.size());
    for (auto& g : worker_grads) spans.emplace_back(g);
    const CollectiveReport report = collective_mean(
        Topology::kRingAllReduce, spans, config_.bandwidth_mbps);
    result.total_comm_bytes += report.total_bytes;
    result.total_comm_seconds += report.seconds;

    // Step 3: every replica applies the same update; one model stands in
    // for all K bit-identical replicas.
    std::memcpy(model_->grads().data(), worker_grads.front().data(),
                n * sizeof(float));
    const auto& octx = model_->kernel_context() != nullptr
                           ? *model_->kernel_context()
                           : kernels::default_context();
    opt_->step_clipped(octx, model_->params(), model_->grads(),
                       schedule_->lr_at(step), config_.max_grad_norm);

    window_loss += step_loss;
    ++window_count;
    tokens_seen +=
        static_cast<std::uint64_t>(k) * config_.worker_batch * seq;
    result.steps_run = step + 1;

    const bool eval_now = (step + 1) % config_.eval_every == 0 ||
                          step + 1 == config_.steps;
    if (eval_now) {
      const EvalResult er = evaluate_perplexity(
          *model_, eval_set_, config_.eval_batches, config_.eval_batch_size);
      RoundRecord rec;
      rec.round = static_cast<std::uint32_t>(step);
      rec.mean_train_loss = window_loss / std::max(1, window_count);
      rec.tokens_this_round = tokens_seen;
      rec.eval_perplexity = er.perplexity;
      rec.comm_bytes = report.total_bytes * static_cast<std::uint64_t>(window_count);
      rec.sim_comm_seconds = report.seconds * window_count;
      rec.sim_local_seconds =
          static_cast<double>(window_count) / config_.sim_throughput_bps;
      result.history.add(rec);
      window_loss = 0.0;
      window_count = 0;
      tokens_seen = 0;
      if (config_.target_perplexity > 0.0 &&
          er.perplexity <= config_.target_perplexity) {
        break;
      }
    }
  }
  return result;
}

}  // namespace photon
