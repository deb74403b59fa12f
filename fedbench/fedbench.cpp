// fedbench: wall-clock benchmark of federated pre-training (paper Alg. 1).
//
// One process builds a whole federation through the public Aggregator /
// LLMClient API and times real rounds: broadcast, tau local steps, update
// return, aggregation, server step and checkpoint.  A run repeats a fixed-
// length federation (same seed, fresh aggregator each time) until the time
// budget is spent, so every repetition must end in bit-identical parameters;
// round timings are pooled across repetitions and set-up is sampled once per
// repetition.  See NOTES.md for why each workload exists and which layer
// metric should move which end-to-end metric.
//
//   fedbench --workload NAME --seed N --seconds S --trace 0|1
//            [--quick] [--inject CHECK]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  --quick shrinks the federation for the self-test; --inject
// corrupts one output before its correctness check, which must then fail.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/aggregator.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "tensor/kernel_context.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "util/threadpool.hpp"

#ifndef FEDBENCH_BUILD_TYPE
#define FEDBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace photon;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------ workloads --

struct Workload {
  std::string name;
  ModelConfig model;
  int population = 4;
  int local_steps = 8;        // tau
  int local_batch = 4;        // B_l
  float max_lr = 1e-2f;
  std::string codec;
  double bandwidth_mbps = 1250.0;
  double link_gbps = 10.0;
  bool disk_checkpoint = false;
  bool async = false;
  int buffer_goal = 0;
  int max_in_flight = 0;
  bool secure_aggregation = false;
  double clip_update_norm = 0.0;
  double dp_noise_multiplier = 0.0;
  FaultPlan faults;  // all-zero = fault-free
  int measured_rounds = 0;  // per repetition, after kWarmupRounds
};

// Shapes are fixed here; only the seed comes from the command line.  The
// round counts size one repetition at a few seconds on a 4-core host, so a
// run holds several repetitions (set-up samples) and enough rounds for a
// tail percentile.
std::optional<Workload> make_workload(const std::string& name, bool quick) {
  Workload w;
  w.name = name;
  if (name == "sync_lan_fp32") {
    // Training-bound: lossless wire, fast ring, memory-only checkpoints.
    w.model = ModelConfig::medium();
    w.population = 4;
    w.local_steps = 8;
    w.local_batch = 4;
    w.max_lr = 3e-3f;
    w.codec = "rle0";
    w.bandwidth_mbps = 1250.0;
    w.link_gbps = 10.0;
    w.measured_rounds = 5;
  } else if (name == "sync_wan_q8") {
    // Wire- and checkpoint-bound: big model, one tiny step per round, q8
    // with error feedback over a 12.5 MB/s WAN, on-disk checkpoint every
    // round (each save carries every client's EF residual).
    w.model = ModelConfig::large();
    w.population = 8;
    w.local_steps = 1;
    w.local_batch = 1;
    w.max_lr = 1e-3f;
    w.codec = "q8";
    w.bandwidth_mbps = 12.5;
    w.link_gbps = 0.1;
    w.disk_checkpoint = true;
    w.measured_rounds = 10;
  } else if (name == "async_secure_churn") {
    // The other aggregation path: FedBuff drains over a pairwise-masked
    // ring with DP, faults and membership churn.
    w.model = ModelConfig::small();
    w.population = 16;
    w.local_steps = 8;
    w.local_batch = 2;
    w.codec = "q8";
    w.async = true;
    w.buffer_goal = 4;
    w.max_in_flight = 8;
    w.secure_aggregation = true;
    w.clip_update_norm = 1e-2;
    // Noise costs the same per element at any sigma.  At sigma 0.5 its
    // norm is ~150x the clipped signal and one seed in about 25 ended above
    // the initial loss; at 0.05 every seed tried drops it by 0.011-0.013.
    w.dp_noise_multiplier = 0.05;
    w.faults.crash_prob = 0.05;
    w.faults.straggle_prob = 0.3;
    w.faults.link_drop_prob = 0.05;
    w.faults.corrupt_prob = 0.02;
    w.faults.membership.initial_population = 12;
    w.faults.membership.arrive_prob = 0.05;
    w.faults.membership.leave_prob = 0.02;
    w.measured_rounds = 10;
  } else {
    return std::nullopt;
  }
  if (quick) w.measured_rounds = 3;
  return w;
}

// ----------------------------------------------------------- federation --

// Seed streams: one tag per consumer, so no two consumers share draws.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  return hash_combine(seed, tag);
}

CorpusConfig corpus_config(const Workload& w, std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = w.model.vocab_size;
  cc.base_seed = sub_seed(seed, 0xDA7AULL);
  return cc;
}

std::uint64_t init_seed(std::uint64_t seed) {
  return sub_seed(seed, 0x1217ULL);
}

constexpr std::uint64_t kScenarioSeed = 0x5CE7A210ULL;

// Rounds run before timing starts in every repetition (part of set-up).
constexpr int kWarmupRounds = 1;

struct Federation {
  // The injector's hooks capture it, so it must outlive the aggregator:
  // members are destroyed in reverse order.
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<Aggregator> agg;
};

Federation build_federation(const Workload& w, std::uint64_t seed,
                            const fs::path& checkpoint_dir,
                            obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics) {
  auto corpus =
      std::make_shared<const MarkovSource>(corpus_config(w, seed), c4_style());

  CosineScheduleConfig sched;
  sched.max_lr = w.max_lr;
  sched.warmup_steps = w.local_steps;
  sched.total_steps = static_cast<std::int64_t>(kWarmupRounds +
                                                w.measured_rounds) *
                      w.local_steps;

  ClientTrainConfig ctc;
  ctc.model = w.model;
  ctc.local_batch = w.local_batch;
  ctc.schedule = sched;
  ctc.link_codec = w.codec;  // explicit: PHOTON_WIRE_CODEC cannot apply
  ctc.quant_error_feedback = true;
  ctc.clip_update_norm = w.clip_update_norm;
  ctc.dp_noise_multiplier = w.dp_noise_multiplier;

  std::vector<std::unique_ptr<LLMClient>> clients;
  for (int i = 0; i < w.population; ++i) {
    auto source = std::make_unique<CorpusStreamSource>(
        corpus, sub_seed(seed, 0x517EA4ULL + static_cast<std::uint64_t>(i)));
    clients.push_back(std::make_unique<LLMClient>(
        i, ctc, std::move(source), sub_seed(seed, 0xC11E47ULL)));
  }

  AggregatorConfig ac;
  ac.clients_per_round = 0;  // full participation: K = P
  ac.local_steps = w.local_steps;
  ac.topology = Topology::kRingAllReduce;
  ac.bandwidth_mbps = w.bandwidth_mbps;
  ac.link_bandwidth_gbps = w.link_gbps;
  ac.secure_aggregation = w.secure_aggregation;
  ac.checkpoint_dir = checkpoint_dir;
  ac.checkpoint_every = 1;
  // The fault, churn and admission schedule is a fixed scenario, not drawn
  // from the workload seed: seeds vary the data, the init and the DP noise,
  // while every run replays the same chaos, so sim time, failure counts and
  // wire volume measure the code rather than the draw.
  ac.seed = kScenarioSeed;
  ac.async.enabled = w.async;
  ac.async.buffer_goal = w.buffer_goal;
  ac.async.max_in_flight = w.max_in_flight;
  ac.privacy.ignore_env = true;  // PHOTON_SECAGG cannot apply
  ac.tracer = tracer;
  ac.metrics = metrics;

  Federation fed;
  fed.agg = std::make_unique<Aggregator>(
      w.model, ac, make_server_opt("fedavg", 1.0f, 0.0f), std::move(clients),
      init_seed(seed));
  FaultPlan plan = w.faults;
  plan.seed = sub_seed(kScenarioSeed, 0xFA017ULL);
  plan.membership.seed = sub_seed(kScenarioSeed, 0x4D454D42ULL);
  fed.faults = std::make_unique<FaultInjector>(plan);
  fed.faults->install(*fed.agg);
  return fed;
}

// Held-out batches from a stream no client reads.
std::vector<Batch> make_held_out(const Workload& w, std::uint64_t seed) {
  auto corpus =
      std::make_shared<const MarkovSource>(corpus_config(w, seed), c4_style());
  CorpusStreamSource stream(corpus, sub_seed(seed, 0xE7A1ULL));
  std::vector<Batch> batches;
  for (int b = 0; b < 8; ++b) {
    batches.push_back(stream.next_batch(8, w.model.seq_len));
  }
  return batches;
}

double eval_loss(const Workload& w, const std::vector<Batch>& held_out,
                 std::span<const float> params) {
  GptModel model(w.model, 0);
  model.load_params(params);
  double sum = 0.0;
  for (const Batch& b : held_out) {
    sum += model.eval_loss(b.tokens, b.targets, b.batch, b.seq);
  }
  return sum / static_cast<double>(held_out.size());
}

std::uint32_t params_crc(std::span<const float> params) {
  return crc32({reinterpret_cast<const std::uint8_t*>(params.data()),
                params.size_bytes()});
}

std::uint64_t checkpoint_payload_bytes(const Checkpoint& c) {
  std::uint64_t b = c.params.size() * sizeof(float) +
                    c.client_trained_rounds.size() * sizeof(std::uint32_t) +
                    c.server_opt_state.size() + c.tuner_state.size();
  for (const auto& r : c.client_ef_residuals) b += r.size() * sizeof(float);
  return b;
}

// ------------------------------------------------------------- ledger --

// Per-layer sums over the measured traced rounds, from span real_ns.
struct Ledger {
  int rounds = 0;
  double round_wall_s = 0.0;
  std::array<double, obs::kNumSpanKinds> span_s{};
  std::vector<double> local_step_ms;
  double slowest_train_s = 0.0;  // sum over rounds of max local_train span
  std::map<std::string, std::uint64_t> counters;  // deltas
  double staleness_sum = 0.0;
  std::uint64_t staleness_n = 0;
  std::uint64_t checkpoint_bytes = 0;  // one save
  double dp_epsilon = 0.0;

  double span(obs::SpanKind k) const {
    return span_s[static_cast<std::size_t>(k)];
  }
  void absorb(const std::vector<obs::TraceEvent>& events) {
    double slowest = 0.0;
    for (const obs::TraceEvent& e : events) {
      const double s = static_cast<double>(e.real_ns) * 1e-9;
      span_s[static_cast<std::size_t>(e.kind)] += s;
      if (e.kind == obs::SpanKind::kLocalStep) local_step_ms.push_back(s * 1e3);
      if (e.kind == obs::SpanKind::kLocalTrain) slowest = std::max(slowest, s);
    }
    slowest_train_s += slowest;
  }
};

// Registry counters the ledger reads, as deltas over the measured rounds.
const char* const kCounters[] = {
    "link.wire_bytes",      "link.messages",         "link.retries",
    "link.corrupt_chunks",  "link.send_failures",    "link.payload_bytes",
    "round.crashes",        "round.link_failures",   "round.straggler_cuts",
    "round.async.discarded", "round.async.deferred", "privacy.share_recoveries",
    "kernels.flops.matmul", "kernels.flops.linear_fwd",
    "kernels.flops.linear_bwd"};

std::map<std::string, std::uint64_t> read_counters(
    const obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const char* n : kCounters) out[n] = reg.counter_value(n);
  return out;
}

// --------------------------------------------------------- repetition --

struct Fingerprint {
  std::uint32_t crc = 0;
  double eval_loss = 0.0;
  double wire_bytes_per_token = 0.0;
  double sim_s_per_mtok = 0.0;
  double update_fail_ratio = 0.0;
  bool operator==(const Fingerprint& o) const {
    return crc == o.crc && eval_loss == o.eval_loss &&
           wire_bytes_per_token == o.wire_bytes_per_token &&
           sim_s_per_mtok == o.sim_s_per_mtok &&
           update_fail_ratio == o.update_fail_ratio;
  }
};

struct Repetition {
  double setup_s = 0.0;
  std::vector<double> round_walls;
  std::vector<double> round_tokens_per_s;
  std::uint64_t tokens = 0;
  std::uint64_t dispatched = 0;  // resolved updates
  std::uint64_t failed_updates = 0;
  Fingerprint fp;
  std::vector<float> final_params;
  bool tokens_ok = true;
  std::string tokens_error;
  std::uint64_t shares_reconstructed = 0;
  std::optional<bool> restore_ok;  // set when the restore check ran
  int rounds_attempted = 0;
  int rounds_failed = 0;
  double wall_s = 0.0;  // whole repetition, set-up to clean-up
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string inject;
};

bool injected(const Options& o, const char* check) { return o.inject == check; }

// The wrong output --inject plants: the lowest bit of the first parameter.
void flip_bit(std::vector<float>& params) {
  std::uint32_t bits;
  std::memcpy(&bits, params.data(), sizeof bits);
  bits ^= 1u;
  std::memcpy(params.data(), &bits, sizeof bits);
}

// Unique per process and repetition, under the working directory (the
// checkout the benchmark runs in); removed when the repetition ends.
fs::path scratch_root() {
  return fs::current_path() / ".fedbench_tmp" /
         ("run-" + std::to_string(::getpid()));
}

struct DirGuard {
  fs::path dir;
  ~DirGuard() {
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

// Deletes every save in `dir` but the newest, between rounds and outside
// every timed window.  CheckpointStore keeps all of them on disk; left in
// place they pile up dirty pages until the kernel throttles writers to the
// disk's speed, so round walls would time the host's shared disk.  Deleted
// dirty pages are dropped unwritten: a save then costs what the checkpoint
// code does (capture, serialise, page-cache write), not the disk.  Restore
// reads only the newest committed save.
void prune_old_saves(const fs::path& dir) {
  if (dir.empty()) return;
  std::vector<std::pair<long long, fs::path>> saves;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) != 0 || entry.path().extension() != ".bin") {
      continue;
    }
    saves.emplace_back(std::stoll(name.substr(5)), entry.path());
  }
  std::sort(saves.begin(), saves.end());
  for (std::size_t i = 0; i + 1 < saves.size(); ++i) {
    fs::remove(saves[i].second);
  }
}

Repetition run_repetition(const Workload& w, const Options& opt,
                          const std::vector<Batch>& held_out, int index,
                          obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                          Ledger* ledger, bool check_restore) {
  Repetition rep;
  const auto t_rep = Clock::now();
  DirGuard guard;
  if (w.disk_checkpoint) {
    guard.dir = scratch_root() / ("rep-" + std::to_string(index));
    fs::remove_all(guard.dir);
    fs::create_directories(guard.dir);
  }

  const std::uint64_t record_tokens =
      static_cast<std::uint64_t>(w.local_steps) * w.local_batch *
      w.model.seq_len;
  auto check_record = [&](const RoundRecord& r) {
    const std::uint64_t want = static_cast<std::uint64_t>(r.survivors) *
                               record_tokens;
    std::uint64_t got = r.tokens_this_round;
    if (injected(opt, "tokens") && r.round == 0) got += 1;
    if (got != want && rep.tokens_ok) {
      rep.tokens_ok = false;
      rep.tokens_error = "round " + std::to_string(r.round) + ": " +
                         std::to_string(got) + " tokens, expected " +
                         std::to_string(want);
    }
  };
  auto run_one = [&](Aggregator& agg) -> std::optional<RoundRecord> {
    ++rep.rounds_attempted;
    try {
      return agg.run_round();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fedbench: round failed: %s\n", e.what());
      ++rep.rounds_failed;
      return std::nullopt;
    }
  };

  const auto t_setup = Clock::now();
  Federation fed = build_federation(w, opt.seed, guard.dir, tracer, metrics);
  Aggregator& agg = *fed.agg;
  for (int r = 0; r < kWarmupRounds; ++r) {
    const auto rec = run_one(agg);
    if (!rec) return rep;
    check_record(*rec);
  }
  rep.setup_s = seconds_since(t_setup);
  prune_old_saves(guard.dir);

  if (tracer != nullptr) (void)tracer->drain();  // warm-up spans
  std::map<std::string, std::uint64_t> before;
  if (metrics != nullptr) before = read_counters(*metrics);

  const double sim_start = agg.sim_now();
  std::uint64_t comm_bytes = 0;
  for (int r = 0; r < w.measured_rounds; ++r) {
    const auto t_round = Clock::now();
    const auto rec = run_one(agg);
    const double wall = seconds_since(t_round);
    if (!rec) return rep;
    prune_old_saves(guard.dir);
    rep.round_walls.push_back(wall);
    rep.round_tokens_per_s.push_back(
        static_cast<double>(rec->tokens_this_round) / wall);
    rep.tokens += rec->tokens_this_round;
    comm_bytes += rec->comm_bytes;
    const std::uint64_t failed =
        static_cast<std::uint64_t>(rec->crashed_clients) +
        static_cast<std::uint64_t>(rec->link_failed_clients) +
        static_cast<std::uint64_t>(rec->straggler_drops) +
        rec->discarded_updates;
    rep.failed_updates += failed;
    rep.dispatched += static_cast<std::uint64_t>(rec->survivors) + failed;
    check_record(*rec);
    if (ledger != nullptr) {
      ledger->absorb(tracer->drain());
      ++ledger->rounds;
      ledger->round_wall_s += wall;
      if (rec->async_drain && rec->survivors > 0) {
        ledger->staleness_sum += rec->mean_staleness * rec->survivors;
        ledger->staleness_n += static_cast<std::uint64_t>(rec->survivors);
      }
      if (rec->dp_epsilon >= 0.0) ledger->dp_epsilon = rec->dp_epsilon;
    }
  }
  const double sim_span = agg.sim_now() - sim_start;

  if (ledger != nullptr) {
    const auto after = read_counters(*metrics);
    for (const auto& [k, v] : after) ledger->counters[k] += v - before[k];
    if (const auto c = agg.checkpoints().latest()) {
      ledger->checkpoint_bytes = checkpoint_payload_bytes(*c);
    }
  }

  // Outside every timed window from here on.
  rep.final_params.assign(agg.global_params().begin(),
                          agg.global_params().end());
  rep.shares_reconstructed = agg.shares_reconstructed_total();
  rep.fp.crc = params_crc(rep.final_params);
  rep.fp.eval_loss = eval_loss(w, held_out, rep.final_params);
  const double tokens = static_cast<double>(rep.tokens);
  rep.fp.wire_bytes_per_token = static_cast<double>(comm_bytes) / tokens;
  rep.fp.sim_s_per_mtok = sim_span / tokens * 1e6;
  rep.fp.update_fail_ratio =
      rep.dispatched > 0 ? static_cast<double>(rep.failed_updates) /
                               static_cast<double>(rep.dispatched)
                         : 0.0;

  if (check_restore) {
    // A fresh aggregator over the same directory replays the journal and
    // must land on the final parameters bit for bit.
    Federation fresh = build_federation(w, opt.seed, guard.dir, nullptr,
                                        nullptr);
    bool ok = fresh.agg->restore_latest_checkpoint();
    std::vector<float> restored(fresh.agg->global_params().begin(),
                                fresh.agg->global_params().end());
    if (injected(opt, "restore") && !restored.empty()) flip_bit(restored);
    ok = ok && restored.size() == rep.final_params.size() &&
         std::memcmp(restored.data(), rep.final_params.data(),
                     restored.size() * sizeof(float)) == 0;
    rep.restore_ok = ok;
  }
  rep.wall_s = seconds_since(t_rep);
  return rep;
}

// ------------------------------------------------------------- replays --

// Median milliseconds per call of `fn`, repeated until ~`budget_s` is used
// (at least 5 calls).  Used for the per-layer replays of each layer's public
// functions at the workload's shapes.
double median_ms(const std::function<void()>& fn, double budget_s = 0.15) {
  fn();  // warm caches and lazily sized buffers
  std::vector<double> ms;
  const auto t0 = Clock::now();
  while (ms.size() < 5 || (seconds_since(t0) < budget_s && ms.size() < 2000)) {
    const auto t = Clock::now();
    fn();
    ms.push_back(seconds_since(t) * 1e3);
  }
  std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
  return ms[ms.size() / 2];
}

std::map<std::string, double> replay_layers(const Workload& w,
                                            std::uint64_t seed) {
  std::map<std::string, double> result;
  const kernels::KernelContext& ctx = kernels::default_context();
  const int b = w.local_batch;
  const int t = w.model.seq_len;
  const int c = w.model.d_model;
  const int oc = w.model.expansion_ratio * c;  // MLP fc, the widest linear
  const int nh = w.model.n_heads;
  const int v = w.model.vocab_size;
  const int bt = b * t;
  Rng rng(sub_seed(seed, 0x4E9A7ULL));
  auto filled = [&](std::size_t n) {
    std::vector<float> x(n);
    for (float& e : x) e = rng.uniform(-0.1f, 0.1f);
    return x;
  };
  const auto bts = static_cast<std::size_t>(bt);
  const auto cs = static_cast<std::size_t>(c);

  {
    auto inp = filled(bts * cs), weight = filled(cs * oc), bias = filled(oc);
    auto out = filled(bts * oc), dout = filled(bts * oc);
    auto dinp = filled(bts * cs), dweight = filled(cs * oc), dbias = filled(oc);
    result["tensor.op_ms.linear_fwd"] = median_ms([&] {
      kernels::linear_forward(ctx, out.data(), inp.data(), weight.data(),
                              bias.data(), bt, c, oc);
    });
    result["tensor.op_ms.linear_bwd"] = median_ms([&] {
      kernels::linear_backward(ctx, dinp.data(), dweight.data(), dbias.data(),
                               dout.data(), inp.data(), weight.data(), bt, c,
                               oc);
    });
  }
  {
    const auto att_n = static_cast<std::size_t>(b) * nh * t * t;
    auto qkv = filled(bts * 3 * cs), out = filled(bts * cs);
    auto preatt = filled(att_n), att = filled(att_n);
    auto dqkv = filled(bts * 3 * cs), dpreatt = filled(att_n),
         datt = filled(att_n), dout = filled(bts * cs);
    std::vector<float> slopes(static_cast<std::size_t>(nh));
    kernels::alibi_slopes(slopes.data(), nh);
    result["tensor.op_ms.attention_fwd"] = median_ms([&] {
      kernels::attention_forward(ctx, out.data(), preatt.data(), att.data(),
                                 qkv.data(), slopes.data(), b, t, c, nh);
    });
    result["tensor.op_ms.attention_bwd"] = median_ms([&] {
      kernels::attention_backward(ctx, dqkv.data(), dpreatt.data(),
                                  datt.data(), dout.data(), qkv.data(),
                                  att.data(), b, t, c, nh);
    });
  }
  {
    auto inp = filled(bts * cs), out = filled(bts * cs), gamma = filled(cs),
         beta = filled(cs), dout = filled(bts * cs), dinp = filled(bts * cs),
         dgamma = filled(cs), dbeta = filled(cs);
    std::vector<float> mean(bts), rstd(bts);
    result["tensor.op_ms.layernorm_fwd"] = median_ms([&] {
      kernels::layernorm_forward(ctx, out.data(), mean.data(), rstd.data(),
                                 inp.data(), gamma.data(), beta.data(), bt, c);
    });
    result["tensor.op_ms.layernorm_bwd"] = median_ms([&] {
      kernels::layernorm_backward(ctx, dinp.data(), dgamma.data(), dbeta.data(),
                                  dout.data(), inp.data(), gamma.data(),
                                  mean.data(), rstd.data(), bt, c);
    });
  }
  {
    auto logits = filled(bts * v), probs = filled(bts * v);
    std::vector<float> losses(bts);
    std::vector<int> targets(bts);
    for (int& e : targets) e = static_cast<int>(rng.next_below(v));
    result["tensor.op_ms.softmax_xent"] = median_ms([&] {
      kernels::softmax_xent_forward(ctx, losses.data(), probs.data(),
                                    logits.data(), targets.data(), bt, v);
    });
  }

  auto corpus =
      std::make_shared<const MarkovSource>(corpus_config(w, seed), c4_style());
  CorpusStreamSource stream(corpus, sub_seed(seed, 0xBE7CULL));
  std::vector<int> toks;
  result["data.next_tokens_ms"] = median_ms([&] {
    toks.clear();
    stream.next_tokens(static_cast<std::size_t>(b) * (t + 1), toks);
  });
  const Batch batch = stream.next_batch(b, t);
  GptModel model(w.model, init_seed(seed));
  result["nn.train_step_fb_ms"] = median_ms([&] {
    model.zero_grad();
    model.train_step_fb(batch.tokens, batch.targets, b, t);
  });
  AdamW adamw(model.num_params());
  result["nn.adamw_step_ms"] = median_ms([&] {
    adamw.step_clipped(ctx, model.params(), model.grads(), 1e-6f, 1.0);
  });
  return result;
}

// ------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // samples / percentile, printed in the table only
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

// (steal, total) CPU jiffies of the whole host so far.  On a shared VM the
// hypervisor's steal share is the main reason two runs of one seed differ,
// so each run prints it next to its round walls.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  std::uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Correctness checks, outside every timed window; prints one line each.
// --inject plants a wrong output in `reps` first, so its check must fail.
bool run_checks(const Workload& w, const Options& opt,
                std::vector<Repetition>& reps, int failed,
                double initial_loss) {
  std::vector<std::pair<std::string, std::string>> failures;
  auto check = [&](bool ok, const std::string& name, const std::string& why) {
    std::printf("check %-22s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.emplace_back(name, why);
  };
  check(failed == 0, "rounds_complete",
        std::to_string(failed) + " round(s) threw");
  if (failed == 0) {
    const auto bad =
        std::find_if(reps.begin(), reps.end(),
                     [](const Repetition& r) { return !r.tokens_ok; });
    check(bad == reps.end(), "record_tokens",
          bad == reps.end() ? "" : bad->tokens_error);
    // --inject crc flips a bit of the last repetition's params; --inject
    // trace one of the first traced repetition's.
    Repetition* flip = injected(opt, "crc") ? &reps.back()
                       : injected(opt, "trace") && opt.trace && reps.size() > 1
                           ? &reps[1]
                           : nullptr;
    if (flip != nullptr) {
      flip_bit(flip->final_params);
      flip->fp.crc = params_crc(flip->final_params);
    }
    double loss = reps.front().fp.eval_loss;
    if (injected(opt, "eval_loss")) loss = initial_loss + 1.0;
    check(std::isfinite(loss) && loss < initial_loss, "eval_loss_below_init",
          "eval_loss " + fmt(loss) + " vs initial " + fmt(initial_loss));
    bool same = true;
    for (std::size_t i = 1; i < reps.size(); ++i) {
      same = same && reps[i].fp == reps.front().fp;
    }
    check(same, opt.trace ? "traced_matches_untraced" : "repetitions_identical",
          "final params / eval_loss / wire / sim / fail ratio differ between "
          "repetitions of one seed");
    if (w.disk_checkpoint) {
      bool ok = reps.front().restore_ok.value_or(false);
      check(ok, "restore_bit_exact",
            "restore_latest_checkpoint() did not reproduce the final params");
    }
    if (w.secure_aggregation) {
      std::uint64_t shares = reps.front().shares_reconstructed;
      if (injected(opt, "shares")) shares = 0;
      check(shares > 0, "share_recovery_ran",
            "shares_reconstructed_total() == 0");
    }
  }
  for (const auto& [name, why] : failures) {
    std::fprintf(stderr, "fedbench: check %s failed: %s\n", name.c_str(),
                 why.c_str());
  }
  return failures.empty();
}

// End-to-end metrics (--trace 0), pooled over the repetitions.
std::vector<Metric> end_to_end_metrics(const std::vector<Repetition>& reps) {
  std::vector<Metric> metrics;
  const Fingerprint& fp = reps.front().fp;
  std::vector<double> walls, setups, throughputs;
  // The first repetition warms the process: its rounds grow the heap to its
  // working size (sync_wan_q8 rounds there run ~35% slower for about five
  // rounds), so round timings pool the later ones.  Its set-up is a sample.
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Repetition& r = reps[i];
    setups.push_back(r.setup_s);
    if (i == 0 && reps.size() > 1) continue;
    walls.insert(walls.end(), r.round_walls.begin(), r.round_walls.end());
    throughputs.insert(throughputs.end(), r.round_tokens_per_s.begin(),
                       r.round_tokens_per_s.end());
  }
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // Highest percentile with at least ten rounds beyond it.
  const std::size_t tail_i = n > 10 ? n - 11 : (n > 0 ? n - 1 : 0);
  const double tail_pct =
      n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
             : 100.0;
  const std::string rounds_note = std::to_string(n) + " rounds";
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.1f of %zu rounds", tail_pct,
                n);
  // Median of per-round throughput: one round's barrier waits for its
  // slowest client, so single rounds stall by 20-30% when the host is
  // busy; the median keeps those outliers from moving the metric.
  metrics.push_back({"tokens_per_s", median(throughputs), "tok/s",
                     rounds_note});
  metrics.push_back({"round_s_p50", median(walls), "s", rounds_note});
  metrics.push_back(
      {"round_s_tail", n > 0 ? sorted[tail_i] : 0.0, "s", tail_note});
  metrics.push_back({"setup_s", median(setups), "s",
                     std::to_string(setups.size()) + " set-ups"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"});
  metrics.push_back({"eval_loss", fp.eval_loss, "nats", "held-out"});
  metrics.push_back(
      {"wire_bytes_per_token", fp.wire_bytes_per_token, "B/tok", ""});
  metrics.push_back({"sim_s_per_mtok", fp.sim_s_per_mtok, "s/Mtok", ""});
  const Repetition& first = reps.front();
  metrics.push_back({"update_success_ratio", 1.0 - fp.update_fail_ratio,
                     "ratio",
                     std::to_string(first.dispatched - first.failed_updates) +
                         " of " + std::to_string(first.dispatched) +
                         " updates aggregated per repetition"});
  return metrics;
}

// Per-layer ledger (--trace 1) from the traced repetitions plus replays.
std::vector<Metric> ledger_metrics(const Workload& w, std::uint64_t seed,
                                   const Ledger& ledger, const Fingerprint& fp,
                                   double trace_overhead) {
  std::vector<Metric> metrics;
  const double rounds = std::max(1, ledger.rounds);
  auto per_round = [&](double v) { return v / rounds; };
  auto ctr = [&](const char* n) {
    const auto it = ledger.counters.find(n);
    return it == ledger.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
  };
  using K = obs::SpanKind;
  const double local_train = ledger.span(K::kLocalTrain);
  const double local_step = ledger.span(K::kLocalStep);
  const double encode = ledger.span(K::kEncode);
  const double step_s = local_step > 0.0 ? local_step : 1.0;
  const double flops = ctr("kernels.flops.matmul") +
                       ctr("kernels.flops.linear_fwd") +
                       ctr("kernels.flops.linear_bwd");
  const std::string rn = std::to_string(ledger.rounds) + " traced rounds";

  metrics.push_back({"tensor.kernel_gflops", flops / step_s * 1e-9,
                     "GFLOP/s", rn});
  const auto replays = replay_layers(w, seed);
  for (const char* op : {"linear_fwd", "linear_bwd", "attention_fwd",
                         "attention_bwd", "layernorm_fwd", "layernorm_bwd",
                         "softmax_xent"}) {
    const std::string key = std::string("tensor.op_ms.") + op;
    metrics.push_back({key, replays.at(key), "ms", "replay median"});
  }
  metrics.push_back({"nn.local_step_ms_p50", median(ledger.local_step_ms),
                     "ms",
                     std::to_string(ledger.local_step_ms.size()) + " steps"});
  metrics.push_back({"nn.local_step_share",
                     local_train > 0.0 ? local_step / local_train : 0.0,
                     "ratio", "local_step / local_train"});
  metrics.push_back({"nn.train_step_fb_ms", replays.at("nn.train_step_fb_ms"),
                     "ms", "replay median"});
  metrics.push_back({"nn.adamw_step_ms", replays.at("nn.adamw_step_ms"), "ms",
                     "replay median"});
  metrics.push_back({"data.next_tokens_ms", replays.at("data.next_tokens_ms"),
                     "ms", "replay median"});
  metrics.push_back(
      {"core.client.local_train_s", per_round(local_train), "s", rn});
  metrics.push_back({"core.client.post_s",
                     per_round(std::max(0.0, local_train - local_step)), "s",
                     rn});
  metrics.push_back({"core.client.concurrency",
                     local_train / ledger.round_wall_s, "ratio",
                     "sum local_train / round wall"});
  metrics.push_back({"comm.encode_s", per_round(encode), "s", rn});
  metrics.push_back(
      {"comm.decode_s", per_round(ledger.span(K::kDecode)), "s", rn});
  metrics.push_back(
      {"comm.encode_gbps",
       encode > 0.0 ? ctr("link.payload_bytes") * 8.0 / encode * 1e-9 : 0.0,
       "Gbit/s", "payload bits / encode time"});
  metrics.push_back({"comm.dequant_accum_s",
                     per_round(ledger.span(K::kDequantAccum)), "s", rn});
  metrics.push_back(
      {"comm.broadcast_s", per_round(ledger.span(K::kBroadcast)), "s", rn});
  metrics.push_back({"comm.update_return_s",
                     per_round(ledger.span(K::kUpdateReturn)), "s", rn});
  metrics.push_back(
      {"comm.collective_s", per_round(ledger.span(K::kCollective)), "s", rn});
  metrics.push_back(
      {"comm.wire_bytes", per_round(ctr("link.wire_bytes")), "B", rn});
  metrics.push_back(
      {"comm.messages", per_round(ctr("link.messages")), "count", rn});
  metrics.push_back(
      {"comm.retries", per_round(ctr("link.retries")), "count", rn});
  metrics.push_back({"comm.corrupt_chunks",
                     per_round(ctr("link.corrupt_chunks")), "count", rn});
  metrics.push_back({"comm.send_failures",
                     per_round(ctr("link.send_failures")), "count", rn});
  metrics.push_back({"core.checkpoint.save_s",
                     per_round(ledger.span(K::kCheckpoint)), "s", rn});
  metrics.push_back({"core.checkpoint.save_share",
                     ledger.span(K::kCheckpoint) / ledger.round_wall_s,
                     "ratio", "save / round wall"});
  metrics.push_back({"core.checkpoint.bytes",
                     static_cast<double>(ledger.checkpoint_bytes), "B",
                     "one save"});
  metrics.push_back({"core.server_opt.apply_s",
                     per_round(ledger.span(K::kServerOpt)), "s", rn});
  metrics.push_back(
      {"core.aggregator.round_overhead_s",
       per_round(ledger.round_wall_s - ledger.slowest_train_s), "s",
       "round wall - slowest local_train"});
  metrics.push_back({"core.aggregator.crashes",
                     per_round(ctr("round.crashes")), "count", rn});
  metrics.push_back({"core.aggregator.link_failures",
                     per_round(ctr("round.link_failures")), "count", rn});
  metrics.push_back({"core.aggregator.straggler_cuts",
                     per_round(ctr("round.straggler_cuts")), "count", rn});
  metrics.push_back({"core.aggregator.discarded",
                     per_round(ctr("round.async.discarded")), "count", rn});
  metrics.push_back({"core.aggregator.admission_deferred",
                     per_round(ctr("round.async.deferred")), "count", rn});
  metrics.push_back(
      {"core.aggregator.staleness_mean",
       ledger.staleness_n > 0
           ? ledger.staleness_sum / static_cast<double>(ledger.staleness_n)
           : 0.0,
       "versions", "accepted updates"});
  metrics.push_back({"core.aggregator.update_fail_ratio",
                     fp.update_fail_ratio, "ratio",
                     "failed / dispatched updates"});
  metrics.push_back({"core.privacy.share_recoveries",
                     per_round(ctr("privacy.share_recoveries")), "count",
                     rn});
  metrics.push_back(
      {"core.privacy.dp_epsilon", ledger.dp_epsilon, "eps", "after run"});
  metrics.push_back({"obs.trace_overhead", trace_overhead, "ratio",
                     "untraced / traced tokens_per_s"});
  return metrics;
}

// ---------------------------------------------------------------- main --

int usage(const char* msg) {
  std::fprintf(stderr,
               "fedbench: %s\nusage: fedbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--quick] [--inject CHECK]\n"
               "workloads: sync_lan_fp32 sync_wan_q8 async_secure_churn\n",
               msg);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (a == "--quick") {
      o.quick = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = *v;
      have_w = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v->c_str(), &end, 10);
      if (*end != '\0' || v->empty()) return std::nullopt;
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v->c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return std::nullopt;
      have_s = true;
    } else if (a == "--trace") {
      if (*v != "0" && *v != "1") return std::nullopt;
      o.trace = *v == "1";
      have_t = true;
    } else if (a == "--inject") {
      o.inject = *v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the process heap, as a caching allocator keeps it
  // in a training stack.  With glibc's defaults every block over 32 MB is a
  // fresh mmap, and each save of sync_wan_q8 grows its 130 MB buffer through
  // several of them.  On a VM that reports freed pages to its host, every
  // first touch of such a page is a host fault whose cost depends on the
  // other tenants: round walls then tracked host load, not the program.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const auto opt_parsed = parse(argc, argv);
  if (!opt_parsed) return usage("bad or missing arguments");
  const Options opt = *opt_parsed;
  const auto wl = make_workload(opt.workload, opt.quick);
  if (!wl) return usage(("unknown workload " + opt.workload).c_str());
  const Workload& w = *wl;
  static const char* const kInjections[] = {"", "crc", "tokens", "eval_loss",
                                            "restore", "shares", "trace"};
  if (std::find_if(std::begin(kInjections), std::end(kInjections),
                   [&](const char* s) { return opt.inject == s; }) ==
      std::end(kInjections)) {
    return usage(("unknown --inject " + opt.inject).c_str());
  }

  // Every knob an environment variable could turn is pinned; refuse rather
  // than silently inherit one.
  for (const char* var : {"PHOTON_SIMD", "PHOTON_WIRE_CODEC", "PHOTON_SECAGG",
                          "PHOTON_TRACE", "PHOTON_NUM_THREADS",
                          "PHOTON_KERNEL_GRAIN"}) {
    if (const char* v = std::getenv(var); v != nullptr) {
      std::fprintf(stderr,
                   "fedbench: refusing to run with %s=%s set; it would change "
                   "the workload\n",
                   var, v);
      return 2;
    }
  }

  std::printf("host: cores=%u simd=%s cpu=\"%s\" compiler=\"g++ %s\" "
              "build=%s pool_threads=%zu\n",
              std::thread::hardware_concurrency(),
              simd::variant_name(simd::active_variant()), cpu_model().c_str(),
              __VERSION__, FEDBENCH_BUILD_TYPE, global_pool().size());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d params=%lld "
              "clients=%d tau=%d B_l=%d codec=%s rounds/rep=%d+%d\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<long long>(w.model.num_params()), w.population,
              w.local_steps, w.local_batch, w.codec.c_str(), kWarmupRounds,
              w.measured_rounds);

  const std::vector<Batch> held_out = make_held_out(w, opt.seed);
  const double initial_loss = [&] {
    GptModel init(w.model, init_seed(opt.seed));
    return eval_loss(w, held_out, init.params());
  }();

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  Ledger ledger;

  // Repetitions: at least three (set-up median; two with --trace 1 or
  // --quick), then more while the budget lasts.  With
  // --trace 1 they alternate untraced / traced: the untraced ones are the
  // fingerprint the traced ones must match and the tracing-cost baseline.
  std::vector<Repetition> reps;
  const auto t_run = Clock::now();
  const auto jiffies_start = cpu_jiffies();
  const int min_reps = opt.trace || opt.quick ? 2 : 3;
  std::array<double, 2> mode_wall{};           // [untraced, traced]
  std::array<std::uint64_t, 2> mode_tokens{};
  for (int i = 0;; ++i) {
    if (i >= min_reps) {
      std::vector<double> walls;
      for (const auto& r : reps) walls.push_back(r.wall_s);
      // Start another only if it ends nearer the budget than stopping now.
      if (seconds_since(t_run) + 0.5 * median(walls) > opt.seconds) break;
    }
    const bool traced = opt.trace && i % 2 == 1;
    kernels::set_kernel_metrics(traced ? &registry : nullptr);
    reps.push_back(run_repetition(w, opt, held_out, i,
                                  traced ? &tracer : nullptr,
                                  traced ? &registry : nullptr,
                                  traced ? &ledger : nullptr,
                                  w.disk_checkpoint && i == 0));
    const Repetition& r = reps.back();
    if (r.rounds_failed > 0) break;
    mode_wall[traced] += std::accumulate(r.round_walls.begin(),
                                         r.round_walls.end(), 0.0);
    mode_tokens[traced] += r.tokens;
  }
  kernels::set_kernel_metrics(nullptr);
  {
    std::error_code ec;
    fs::remove_all(scratch_root(), ec);
    fs::remove(scratch_root().parent_path(), ec);  // only if empty
  }

  int attempted = 0, failed = 0;
  for (const auto& r : reps) {
    attempted += r.rounds_attempted;
    failed += r.rounds_failed;
  }
  const bool correct = run_checks(w, opt, reps, failed, initial_loss);

  const auto jiffies_end = cpu_jiffies();
  const double steal =
      jiffies_end.second > jiffies_start.second
          ? static_cast<double>(jiffies_end.first - jiffies_start.first) /
                static_cast<double>(jiffies_end.second - jiffies_start.second)
          : 0.0;
  std::printf("run: %zu repetitions in %.3f s, host steal %.1f%%; "
              "round walls (s):",
              reps.size(), seconds_since(t_run), 100.0 * steal);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf(i > 0 ? " |" : "");
    for (const double v : reps[i].round_walls) std::printf(" %.3f", v);
  }
  std::printf("\n");
  const Fingerprint& fp = reps.front().fp;
  std::printf("fingerprint: crc=%08x eval_loss=%s initial_loss=%s "
              "wire_bytes_per_token=%s sim_s_per_mtok=%s "
              "update_fail_ratio=%s\n",
              fp.crc, fmt(fp.eval_loss).c_str(), fmt(initial_loss).c_str(),
              fmt(fp.wire_bytes_per_token).c_str(),
              fmt(fp.sim_s_per_mtok).c_str(),
              fmt(fp.update_fail_ratio).c_str());

  const auto mode_tokens_per_s = [&](bool traced) {
    return static_cast<double>(mode_tokens[traced]) / mode_wall[traced];
  };
  const std::vector<Metric> metrics =
      opt.trace ? ledger_metrics(w, opt.seed, ledger, fp,
                                 mode_tokens_per_s(false) /
                                     mode_tokens_per_s(true))
                : end_to_end_metrics(reps);
  std::printf("%-36s %16s  %-8s %s\n", "metric", "value", "unit", "samples");
  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    finite = finite && std::isfinite(m.value);
  }
  std::string json = "{\"correct\": ";
  json += correct && finite ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name +
            "\": {\"value\": " + (std::isfinite(m.value) ? fmt(m.value) : "0") +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && finite ? 0 : 1;
}
