// Golden pins for every aggregation path of the round engine.
//
// The twin tests elsewhere compare two runs of the same build (serial vs
// parallel, restored vs uninterrupted), so a change that moves every path
// the same way passes them all.  These tests pin the final parameters and
// sim clock of a short federation per path (and, for traced faulted runs,
// the sim fields of every span) to recorded values, so any drift in the
// aggregation arithmetic or the sim-time association shows up here.  A
// deliberate numerics change must update the pins on purpose.
//
// Also here: the mixed-codec cohort against an fp64 reference mean, and the
// hostile-checkpoint checks of the async restore path.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aggregator.hpp"
#include "core/checkpoint.hpp"
#include "core/client.hpp"
#include "core/server_opt.hpp"
#include "data/corpus.hpp"
#include "data/stream.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "util/serialization.hpp"
#include "test_helpers.hpp"

namespace photon {
namespace {

ModelConfig tiny_model() {
  ModelConfig c;
  c.n_layers = 2;
  c.d_model = 16;
  c.n_heads = 2;
  c.vocab_size = 64;
  c.seq_len = 16;
  c.expansion_ratio = 2;
  return c;
}

ClientTrainConfig tiny_client_config(const std::string& codec) {
  ClientTrainConfig ctc;
  ctc.model = tiny_model();
  ctc.local_batch = 2;
  ctc.schedule.max_lr = 5e-3f;
  ctc.schedule.warmup_steps = 2;
  ctc.schedule.total_steps = 1000;
  ctc.link_codec = codec;
  return ctc;
}

std::unique_ptr<DataSource> tiny_stream(std::uint64_t seed) {
  CorpusConfig cc;
  cc.vocab_size = 64;
  auto corpus = std::make_shared<MarkovSource>(cc, c4_style());
  return std::make_unique<CorpusStreamSource>(corpus, seed);
}

/// Client `id` of a federation, configured by `ctc`.
std::unique_ptr<LLMClient> make_client(int id, const ClientTrainConfig& ctc) {
  return std::make_unique<LLMClient>(
      id, ctc, tiny_stream(100 + static_cast<std::uint64_t>(id)), 7);
}

std::unique_ptr<Aggregator> build(
    AggregatorConfig ac, const std::vector<ClientTrainConfig>& configs,
    std::unique_ptr<ServerOpt> opt = nullptr) {
  ac.seed = 33;
  ac.privacy.ignore_env = true;
  std::vector<std::unique_ptr<LLMClient>> clients;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    clients.push_back(make_client(static_cast<int>(i), configs[i]));
  }
  if (opt == nullptr) opt = make_server_opt("nesterov", 0.5f, 0.9f);
  return std::make_unique<Aggregator>(tiny_model(), ac, std::move(opt),
                                      std::move(clients), 55);
}

std::vector<ClientTrainConfig> uniform(int population,
                                       const std::string& codec) {
  return std::vector<ClientTrainConfig>(static_cast<std::size_t>(population),
                                        tiny_client_config(codec));
}

std::uint32_t params_crc(std::span<const float> p) {
  return crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(p.data()),
      p.size() * sizeof(float)));
}

/// Run `rounds` rounds and compare the final parameter CRC and sim clock
/// (bit for bit) against the recorded pins.
void expect_golden(Aggregator& agg, int rounds, std::uint32_t crc,
                   double sim_now) {
  for (int r = 0; r < rounds; ++r) agg.run_round();
  char got[64];
  std::snprintf(got, sizeof(got), "%a", agg.sim_now());
  EXPECT_EQ(params_crc(agg.global_params()), crc)
      << std::hex << "crc 0x" << params_crc(agg.global_params());
  EXPECT_EQ(agg.sim_now(), sim_now) << "sim_now " << got;
}

AggregatorConfig sync_config(Topology topology) {
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.topology = topology;
  return ac;
}

AggregatorConfig async_config() {
  AggregatorConfig ac;
  ac.local_steps = 2;
  ac.async.enabled = true;
  ac.async.buffer_goal = 2;
  ac.async.max_in_flight = 4;
  return ac;
}

// ------------------------------------------------------------ golden pins --

TEST(AggregationGolden, SyncFp32ParameterServer) {
  auto agg = build(sync_config(Topology::kParameterServer), uniform(4, "rle0"));
  expect_golden(*agg, 3, 0xd516299cu, 0x1.800512dd9a7ddp+2);
}

TEST(AggregationGolden, SyncFp32RingAllReduce) {
  auto agg = build(sync_config(Topology::kRingAllReduce), uniform(4, "rle0"));
  expect_golden(*agg, 3, 0x52dd8ef8u, 0x1.800302859b7efp+2);
}

TEST(AggregationGolden, SyncQ8Streamed) {
  auto agg = build(sync_config(Topology::kRingAllReduce), uniform(4, "q8"));
  expect_golden(*agg, 3, 0x9739f707u, 0x1.80016966ff221p+2);
}

TEST(AggregationGolden, SyncSecAggWithOneDropout) {
  AggregatorConfig ac = sync_config(Topology::kParameterServer);
  ac.secure_aggregation = true;
  auto agg = build(ac, uniform(4, "rle0"));
  // Client 2 crashes in every round's first attempt: one recovered dropout
  // per round, above the share threshold (t = 2 of 4).
  agg->set_client_fault_hook([](std::uint32_t, int client, std::uint32_t) {
    ClientRoundFault f;
    f.crash = client == 2;
    return f;
  });
  expect_golden(*agg, 3, 0xe1e94aaeu, 0x1.800441dfd032fp+2);
  EXPECT_EQ(agg->shares_reconstructed_total(), 3u);
}

TEST(AggregationGolden, AsyncFp32) {
  auto agg = build(async_config(), uniform(4, "rle0"));
  expect_golden(*agg, 4, 0x3f5cd6adu, 0x1.00012eb6184ccp+2);
}

TEST(AggregationGolden, AsyncQ8Streamed) {
  auto agg = build(async_config(), uniform(4, "q8"));
  expect_golden(*agg, 4, 0x1cff688bu, 0x1.0000bb34f68c2p+2);
}

TEST(AggregationGolden, AsyncSecAggUnderChurn) {
  AggregatorConfig ac = async_config();
  ac.secure_aggregation = true;
  auto agg = build(ac, uniform(6, "q8"));
  FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.straggle_prob = 0.3;
  plan.membership.initial_population = 4;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);
  injector.install(*agg);
  expect_golden(*agg, 5, 0x18c52420u, 0x1.a01b1a9b9057p+5);
}

// ----------------------------------------------------- span sim fields --

/// CRC over the deterministic fields of every drained span (kind, round,
/// actor, detail and the exact bits of the sim interval).
std::uint32_t span_digest(obs::Tracer& tracer, std::size_t* count) {
  const std::vector<obs::TraceEvent> events = tracer.drain();
  std::vector<std::uint8_t> bytes;
  for (const obs::TraceEvent& e : events) {
    const auto put = [&](const auto& v) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      bytes.insert(bytes.end(), p, p + sizeof(v));
    };
    put(static_cast<std::int32_t>(e.kind));
    put(e.round);
    put(e.actor);
    put(e.detail);
    put(e.sim_begin);
    put(e.sim_end);
  }
  *count = events.size();
  return crc32(bytes);
}

void expect_span_golden(obs::Tracer& tracer, std::uint32_t crc,
                        std::size_t count) {
  std::size_t got_count = 0;
  const std::uint32_t got = span_digest(tracer, &got_count);
  EXPECT_EQ(got_count, count);
  EXPECT_EQ(got, crc) << std::hex << "span crc 0x" << got;
}

TEST(AggregationGolden, TracedFaultedSyncRoundSpans) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  obs::Tracer tracer;
  AggregatorConfig ac = sync_config(Topology::kRingAllReduce);
  ac.tracer = &tracer;
  ac.round_deadline_s = 5.0;
  ac.min_cohort_fraction = 0.5;
  ac.skip_on_quorum_loss = true;
  auto agg = build(ac, uniform(5, "q8"));
  FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.straggle_prob = 0.3;
  plan.straggle_factor_min = 2.0;
  plan.straggle_factor_max = 4.0;
  plan.link_drop_prob = 0.1;
  plan.corrupt_prob = 0.05;
  FaultInjector injector(plan);
  injector.install(*agg);
  expect_golden(*agg, 4, 0x3b6701aau, 0x1.6caa752ccc39dp+4);
  expect_span_golden(tracer, 0x71b20761u, 178);
}

TEST(AggregationGolden, TracedFaultedAsyncSecAggSpans) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  obs::Tracer tracer;
  AggregatorConfig ac = async_config();
  ac.tracer = &tracer;
  ac.secure_aggregation = true;
  auto agg = build(ac, uniform(6, "q8"));
  FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.straggle_prob = 0.3;
  plan.link_drop_prob = 0.1;
  plan.corrupt_prob = 0.05;
  plan.membership.initial_population = 4;
  plan.membership.arrive_prob = 0.3;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);
  injector.install(*agg);
  expect_golden(*agg, 5, 0x18c52420u, 0x1.a1998942e53ffp+5);
  expect_span_golden(tracer, 0x9bca15acu, 175);
}

TEST(AggregationGolden, TracedFaultedAsyncQ8Spans) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "PHOTON_TRACE=OFF build";
  obs::Tracer tracer;
  AggregatorConfig ac = async_config();
  ac.tracer = &tracer;
  auto agg = build(ac, uniform(5, "q8"));
  FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.straggle_prob = 0.3;
  plan.link_drop_prob = 0.1;
  plan.membership.leave_prob = 0.05;
  FaultInjector injector(plan);
  injector.install(*agg);
  expect_golden(*agg, 5, 0x1d63ef53u, 0x1.a523146ceaaf1p+3);
  expect_span_golden(tracer, 0x61020268u, 279);
}

// --------------------------------------------------- mixed-codec cohort --

/// ServerOpt that records the pseudo-gradient it is handed (and applies a
/// plain FedAvg step so the run stays a federation).
class CapturingOpt final : public ServerOpt {
 public:
  explicit CapturingOpt(std::vector<float>* sink) : sink_(sink) {}
  std::string name() const override { return "capture"; }
  void apply(std::span<float> params,
             std::span<const float> pseudo_grad) override {
    sink_->assign(pseudo_grad.begin(), pseudo_grad.end());
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= pseudo_grad[i];
    }
  }
  void reset() override {}

 private:
  std::vector<float>* sink_;
};

TEST(AggregationGolden, MixedQ8Fp32CohortIsTheFp64MeanUnderEveryTopology) {
  // A cohort whose members return q8 wire images and lossless fp32 updates
  // aggregates through the one fp64 fold, so under every topology the mean
  // is float(sum_j double(u_j) * (1/K)) of what the server decoded.  Each
  // u_j is captured from a one-client federation of the identical client:
  // a lone survivor's update reaches ServerOpt unchanged.
  const std::vector<std::string> codecs = {"q8", "rle0", "q8"};
  const int k = static_cast<int>(codecs.size());
  std::vector<std::vector<float>> updates;
  for (int id = 0; id < k; ++id) {
    std::vector<float> got;
    AggregatorConfig ac = sync_config(Topology::kParameterServer);
    ac.seed = 33;
    ac.privacy.ignore_env = true;
    std::vector<std::unique_ptr<LLMClient>> one;
    one.push_back(make_client(id, tiny_client_config(codecs[id])));
    Aggregator solo(tiny_model(), ac, std::make_unique<CapturingOpt>(&got),
                    std::move(one), 55);
    solo.run_round();
    updates.push_back(got);
  }
  const std::size_t n = updates[0].size();
  std::vector<float> reference(n);
  const double inv = 1.0 / static_cast<double>(k);
  for (std::size_t e = 0; e < n; ++e) {
    double acc = 0.0;
    for (const auto& u : updates) acc += static_cast<double>(u[e]);
    reference[e] = static_cast<float>(acc * inv);
  }

  std::vector<ClientTrainConfig> configs;
  for (const auto& c : codecs) configs.push_back(tiny_client_config(c));
  for (const Topology t :
       {Topology::kParameterServer, Topology::kAllReduce,
        Topology::kRingAllReduce}) {
    SCOPED_TRACE(static_cast<int>(t));
    std::vector<float> mean;
    auto agg = build(sync_config(t), configs,
                     std::make_unique<CapturingOpt>(&mean));
    agg->run_round();
    ASSERT_EQ(mean.size(), n);
    EXPECT_EQ(0, std::memcmp(mean.data(), reference.data(), n * sizeof(float)));
  }
}

// ------------------------------------------------ hostile async restore --

class HostileRestore : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("photon_hostile_restore_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(base_);
    ac_ = async_config();
    ac_.checkpoint_dir = base_;
    ac_.checkpoint_every = 1;
    // A genuine drain-boundary checkpoint with q8 wire images in flight.
    auto agg = build(ac_, uniform(4, "q8"));
    agg->run_round();
    CheckpointStore store(base_);
    auto ckpt = store.latest();
    ASSERT_TRUE(ckpt.has_value());
    ASSERT_TRUE(ckpt->async_state.valid);
    ckpt_ = std::move(*ckpt);
    streamed_ = -1;
    for (std::size_t i = 0; i < ckpt_.async_state.in_flight.size(); ++i) {
      const auto& u = ckpt_.async_state.in_flight[i];
      if (u.failure_kind == 0 && !u.codec.empty()) {
        streamed_ = static_cast<int>(i);
        break;
      }
    }
    ASSERT_GE(streamed_, 0);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  AsyncInFlightSnapshot& update() {
    return ckpt_.async_state.in_flight[static_cast<std::size_t>(streamed_)];
  }

  /// Write the (mutated) checkpoint as the committed one and restore it.
  void restore() {
    std::filesystem::remove_all(base_);
    {
      CheckpointStore store(base_);
      const std::uint32_t round = ckpt_.round;
      store.journal_begin(round);
      test::save(store, ckpt_);
      store.journal_commit(round);
    }
    auto agg = build(ac_, uniform(4, "q8"));
    agg->restore_latest_checkpoint();
  }

  std::filesystem::path base_;
  AggregatorConfig ac_;
  Checkpoint ckpt_;
  int streamed_ = -1;
};

TEST_F(HostileRestore, GenuineCheckpointRestores) { EXPECT_NO_THROW(restore()); }

TEST_F(HostileRestore, RejectsByteCountThatDisagreesWithChunkLengths) {
  update().chunk_bytes.push_back(0xAB);
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsRawPayloadLongerThanElems) {
  // A lossless (codec-less) update whose bytes exceed elems floats would
  // overrun the payload it is copied into.
  auto& u = update();
  u.codec.clear();
  u.chunk_raw_bytes = u.elems * sizeof(float);
  u.chunk_bytes.assign(static_cast<std::size_t>(u.elems) * sizeof(float) + 64,
                       0);
  u.chunk_lens = {static_cast<std::uint64_t>(u.chunk_bytes.size())};
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsZeroChunkSize) {
  update().chunk_raw_bytes = 0;
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsChunkCountOffTheGrid) {
  // More chunk lengths than the raw grid has chunks: raw_len underflows.
  auto& u = update();
  u.chunk_lens.push_back(0);
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsUnknownCodec) {
  update().codec = "no-such-codec";
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsLosslessCodecForAWireImage) {
  update().codec = "rle0";
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsElemsOtherThanTheModelSize) {
  auto& u = update();
  u.elems -= 1;
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsUnknownFailureKind) {
  update().failure_kind = 3;
  EXPECT_THROW(restore(), std::runtime_error);
}

TEST_F(HostileRestore, RejectsDuplicateClient) {
  auto& in_flight = ckpt_.async_state.in_flight;
  ASSERT_GE(in_flight.size(), 2u);
  in_flight[1].client = in_flight[0].client;
  EXPECT_THROW(restore(), std::runtime_error);
}

}  // namespace
}  // namespace photon
