// core/: sampler, server optimizers, post-processing, metrics, checkpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/postprocess.hpp"
#include "core/sampler.hpp"
#include "core/server_opt.hpp"
#include "util/rng.hpp"
#include "util/serialization.hpp"
#include "test_helpers.hpp"

namespace photon {
namespace {

// --------------------------------------------------------------- sampler --
TEST(ClientSampler, SamplesDistinctClientsDeterministically) {
  ClientSampler a(16, 7), b(16, 7);
  const auto s1 = a.sample(4, 3);
  const auto s2 = b.sample(4, 3);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 4u);
  std::set<int> uniq(s1.begin(), s1.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Different rounds differ (with overwhelming probability for this seed).
  EXPECT_NE(a.sample(4, 4), s1);
}

TEST(ClientSampler, UniformCoverageAcrossRounds) {
  ClientSampler sampler(8, 3);
  std::vector<int> hits(8, 0);
  for (std::uint32_t r = 0; r < 2000; ++r) {
    for (int c : sampler.sample(2, r)) hits[static_cast<std::size_t>(c)]++;
  }
  for (int h : hits) EXPECT_NEAR(h, 500, 90);  // 2000*2/8
}

TEST(ClientSampler, RespectsAvailability) {
  ClientSampler sampler(4, 1);
  sampler.set_available(0, false);
  sampler.set_available(1, false);
  EXPECT_EQ(sampler.num_available(), 2);
  for (std::uint32_t r = 0; r < 20; ++r) {
    for (int c : sampler.sample(4, r)) EXPECT_GE(c, 2);
  }
  // Fewer available than requested: returns all available.
  EXPECT_EQ(sampler.sample(4, 0).size(), 2u);
}

TEST(ClientSampler, FullParticipationIsEveryone) {
  ClientSampler sampler(5, 9);
  const auto s = sampler.sample(5, 0);
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClientSampler, SaltDrawsIndependentCohortsForTheSameRound) {
  ClientSampler sampler(32, 7);
  const auto base = sampler.sample(4, 5);
  // Salt 0 is the historical cohort, bit-exactly.
  EXPECT_EQ(sampler.sample(4, 5, 0), base);
  // Non-zero salts (quorum-loss retries) draw fresh deterministic cohorts.
  const auto retry1 = sampler.sample(4, 5, 1);
  const auto retry2 = sampler.sample(4, 5, 2);
  EXPECT_NE(retry1, base);
  EXPECT_NE(retry2, retry1);
  EXPECT_EQ(sampler.sample(4, 5, 1), retry1);
}

TEST(ClientSampler, Validation) {
  EXPECT_THROW(ClientSampler(0, 1), std::invalid_argument);
  ClientSampler s(3, 1);
  EXPECT_THROW(s.sample(0, 0), std::invalid_argument);
  EXPECT_THROW(s.set_available(5, true), std::out_of_range);
}

// ------------------------------------------------------------ server opts --
TEST(FedAvgOpt, UnitLrIsPlainAveraging) {
  // theta' = theta - Delta, with Delta = theta - mean(theta_k):
  // theta' == mean of client models.  Photon's default.
  FedAvgOpt opt(1.0f);
  std::vector<float> params{1.0f, 2.0f};
  opt.apply(params, std::vector<float>{0.25f, -0.5f});
  EXPECT_FLOAT_EQ(params[0], 0.75f);
  EXPECT_FLOAT_EQ(params[1], 2.5f);
}

TEST(FedMomOpt, AccumulatesMomentum) {
  FedMomOpt opt(1.0f, 0.5f);
  std::vector<float> params{0.0f};
  opt.apply(params, std::vector<float>{1.0f});  // buf=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0f);
  opt.apply(params, std::vector<float>{1.0f});  // buf=1.5, p=-2.5
  EXPECT_FLOAT_EQ(params[0], -2.5f);
  opt.reset();
  opt.apply(params, std::vector<float>{1.0f});  // buf=1 again
  EXPECT_FLOAT_EQ(params[0], -3.5f);
}

TEST(NesterovOpt, MatchesHandComputation) {
  NesterovOpt opt(0.1f, 0.9f);
  std::vector<float> params{0.0f};
  opt.apply(params, std::vector<float>{1.0f});
  // buf=1; update=0.1*(1+0.9*1)=0.19.
  EXPECT_NEAR(params[0], -0.19f, 1e-6);
}

TEST(FedAdamOpt, FirstStepIsSignedLr) {
  FedAdamOpt opt(0.01f);
  std::vector<float> params{0.0f, 0.0f};
  opt.apply(params, std::vector<float>{0.5f, -2.0f});
  // Bias-corrected first Adam step ~ lr * sign(g).
  EXPECT_NEAR(params[0], -0.01f, 1e-4);
  EXPECT_NEAR(params[1], 0.01f, 1e-4);
}

TEST(ServerOptFactory, BuildsAllAndRejectsUnknown) {
  EXPECT_EQ(make_server_opt("fedavg", 1.0f, 0.0f)->name(), "fedavg");
  EXPECT_EQ(make_server_opt("fedmom", 1.0f, 0.9f)->name(), "fedmom");
  EXPECT_EQ(make_server_opt("nesterov", 0.1f, 0.9f)->name(), "nesterov");
  EXPECT_EQ(make_server_opt("fedadam", 0.01f, 0.0f)->name(), "fedadam");
  EXPECT_THROW(make_server_opt("sgd", 1.0f, 0.0f), std::invalid_argument);
}

TEST(ServerOpt, SizeMismatchThrows) {
  FedAvgOpt opt(1.0f);
  std::vector<float> params{1.0f};
  EXPECT_THROW(opt.apply(params, std::vector<float>{1.0f, 2.0f}),
               std::invalid_argument);
}

// ----------------------------------------------------------- postprocess --
TEST(PostProcess, ClipStageScalesToMaxNorm) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<ClipStage>(1.0));
  std::vector<float> update{3.0f, 4.0f};
  const auto report = pipe.run(update);
  EXPECT_TRUE(report.clipped);
  EXPECT_NEAR(report.preclip_norm, 5.0, 1e-6);
  EXPECT_NEAR(std::hypot(update[0], update[1]), 1.0, 1e-5);

  std::vector<float> small{0.1f, 0.1f};
  const auto report2 = pipe.run(small);
  EXPECT_FALSE(report2.clipped);
  EXPECT_FLOAT_EQ(small[0], 0.1f);
}

TEST(PostProcess, DpNoisePerturbsWithExpectedScale) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<DpNoiseStage>(/*multiplier=*/0.5, /*max_norm=*/2.0,
                                          /*seed=*/9));
  std::vector<float> update(5000, 0.0f);
  const auto report = pipe.run(update);
  EXPECT_DOUBLE_EQ(report.dp_noise_stddev, 1.0);
  double var = 0.0;
  for (float x : update) var += static_cast<double>(x) * x;
  var /= static_cast<double>(update.size());
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);
}

TEST(PostProcess, CompressStageSelectsCodec) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<CompressStage>("rle0"));
  std::vector<float> update{1.0f};
  EXPECT_EQ(pipe.run(update).codec, "rle0");
  EXPECT_THROW(CompressStage("gzip"), std::invalid_argument);
}

TEST(PostProcess, StagesRunInOrder) {
  PostProcessPipeline pipe;
  pipe.add(std::make_unique<ClipStage>(1.0));
  pipe.add(std::make_unique<DpNoiseStage>(0.1, 1.0, 3));
  pipe.add(std::make_unique<CompressStage>("rle0"));
  EXPECT_EQ(pipe.num_stages(), 3u);
  std::vector<float> update{10.0f, 0.0f};
  const auto report = pipe.run(update);
  EXPECT_TRUE(report.clipped);
  EXPECT_EQ(report.codec, "rle0");
  // Clip happened before noise: ||update|| ~ 1 + small noise, << 10.
  EXPECT_LT(std::hypot(update[0], update[1]), 2.0);
}

// ---------------------------------------------------------------- metrics --
TEST(Metrics, WeightedAggregation) {
  const std::vector<MetricDict> dicts{
      {{"loss", 2.0}, {"acc", 0.5}},
      {{"loss", 4.0}},
  };
  const auto agg = aggregate_metrics(dicts, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(agg.at("loss"), (2.0 + 12.0) / 4.0);
  EXPECT_DOUBLE_EQ(agg.at("acc"), 0.5);  // only one reporter
}

TEST(Metrics, HistoryQueries) {
  TrainingHistory h;
  RoundRecord r0;
  r0.round = 0;
  r0.eval_perplexity = 50.0;
  r0.tokens_this_round = 100;
  r0.sim_local_seconds = 10.0;
  r0.sim_comm_seconds = 1.0;
  h.add(r0);
  RoundRecord r1;
  r1.round = 1;
  r1.eval_perplexity = 30.0;
  r1.tokens_this_round = 100;
  r1.sim_local_seconds = 10.0;
  r1.sim_comm_seconds = 1.0;
  h.add(r1);

  EXPECT_EQ(h.first_round_reaching(35.0), 1);
  EXPECT_EQ(h.first_round_reaching(10.0), -1);
  EXPECT_EQ(h.tokens_through(0), 100u);
  EXPECT_EQ(h.tokens_through(1), 200u);
  EXPECT_DOUBLE_EQ(h.sim_seconds_to(35.0), 22.0);
  EXPECT_DOUBLE_EQ(h.sim_seconds_to(5.0), -1.0);
  EXPECT_DOUBLE_EQ(h.best_perplexity(), 30.0);
  EXPECT_DOUBLE_EQ(h.final_perplexity(), 30.0);
}

// -------------------------------------------------------------- checkpoint --
TEST(CheckpointStore, MemoryRingKeepsLastN) {
  CheckpointStore store({}, /*keep_last=*/2);
  const std::vector<float> p{1.0f, 2.0f};
  Checkpoint meta;
  for (meta.round = 0; meta.round < 3; ++meta.round) store.save(meta, p, {});
  EXPECT_EQ(store.num_in_memory(), 2u);
  EXPECT_EQ(store.latest()->round, 2u);
  EXPECT_FALSE(store.at_round(0).has_value());
  EXPECT_TRUE(store.at_round(1).has_value());
}

TEST(CheckpointStore, DiskRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_test";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir, 1);
    Checkpoint meta;
    meta.eval_perplexity = 33.0;
    store.save(meta, std::vector<float>{1.5f, -2.5f}, {});
    meta.round = 7;
    meta.eval_perplexity = 21.0;
    store.save(meta, std::vector<float>{9.0f}, {});
  }
  CheckpointStore reader(dir, 1);
  // Memory is empty in the new store; round 0 must come from disk.
  const auto ckpt = reader.at_round(0);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{1.5f, -2.5f}));
  EXPECT_DOUBLE_EQ(ckpt->eval_perplexity, 33.0);
  EXPECT_FALSE(reader.at_round(3).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, RecoveryMetadataRoundTripsThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_meta_test";
  std::filesystem::remove_all(dir);
  Checkpoint ckpt;
  ckpt.round = 4;
  ckpt.params = {0.5f, 1.5f, 2.5f};
  ckpt.eval_perplexity = 12.0;
  ckpt.schedule_step_base = 40;
  ckpt.client_trained_rounds = {5, 0, 4, 5};
  ckpt.server_opt_state = {0xAB, 0xCD, 0x01};
  {
    CheckpointStore store(dir, 1);
    test::save(store, ckpt);
  }
  CheckpointStore reader(dir, 1);
  const auto back = reader.latest();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 4u);
  EXPECT_EQ(back->params, ckpt.params);
  EXPECT_EQ(back->schedule_step_base, 40);
  EXPECT_EQ(back->client_trained_rounds, ckpt.client_trained_rounds);
  EXPECT_EQ(back->server_opt_state, ckpt.server_opt_state);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, LegacyDiskFormatStillReadable) {
  // Pre-journal checkpoints were (round, perplexity, params) with no magic;
  // a store must read them with "not recorded" metadata defaults.
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_legacy_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    BinaryWriter w;
    w.write(static_cast<std::uint32_t>(6));  // round, far below the magic
    w.write(17.5);
    w.write_vector(std::vector<float>{3.0f, 4.0f});
    std::ofstream os(dir / "ckpt_6.bin", std::ios::binary);
    os.write(reinterpret_cast<const char*>(w.bytes().data()),
             static_cast<std::streamsize>(w.size()));
  }
  CheckpointStore reader(dir, 1);
  const auto ckpt = reader.latest();
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->round, 6u);
  EXPECT_DOUBLE_EQ(ckpt->eval_perplexity, 17.5);
  EXPECT_EQ(ckpt->params, (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(ckpt->schedule_step_base, -1);
  EXPECT_TRUE(ckpt->client_trained_rounds.empty());
  EXPECT_TRUE(ckpt->server_opt_state.empty());
  std::filesystem::remove_all(dir);
}

std::vector<float> ramp(std::size_t n, float scale) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(static_cast<int>(i % 97) - 48) * scale;
  }
  return v;
}

// A save carrying every trailing field: EF residuals (one client without
// any), async state with an in-flight wire image and a failed slot, tuner
// state and privacy state.
Checkpoint full_checkpoint() {
  Checkpoint c;
  c.round = 9;
  c.params = ramp(4099, 0.125f);
  c.eval_perplexity = 21.5;
  c.schedule_step_base = 90;
  c.client_trained_rounds = {9, 7, 0};
  for (int i = 0; i < 64; ++i) {
    c.server_opt_state.push_back(static_cast<std::uint8_t>(3 * i + 1));
  }
  c.client_ef_residuals = {ramp(4099, -0.001f), {}, ramp(4099, 0.002f)};
  AsyncAggregatorState& a = c.async_state;
  a.valid = true;
  a.sim_now = 123.25;
  a.accepted_total = 17;
  a.discarded_total = 2;
  a.membership = {1, 1, 0};
  a.defer_counts = {0, 3, 1};
  a.next_eligible = {0.0, 130.5, 0.0};
  AsyncInFlightSnapshot live;
  live.client = 0;
  live.arrive_time = 125.0;
  live.dispatch_version = 8;
  live.wave_id = 4;
  live.tokens = 512;
  live.mean_train_loss = 3.25;
  live.train_sim_seconds = 1.5;
  live.metrics = {{"loss", 3.25}, {"tokens", 512.0}};
  live.codec = "q8";
  live.elems = 4099;
  live.chunk_raw_bytes = 8192;
  live.chunk_lens = {3, 2};
  live.chunk_bytes = {1, 2, 3, 4, 5};
  AsyncInFlightSnapshot failed;
  failed.client = 1;
  failed.arrive_time = 126.0;
  failed.dispatch_version = 8;
  failed.failure_kind = 1;
  a.in_flight = {live, failed};
  c.tuner_state = {7, 7, 1, 2};
  PrivacyCheckpointState& p = c.privacy_state;
  p.valid = true;
  p.accounted_rounds = 9;
  p.noise_multiplier = 1.1;
  p.delta = 1e-5;
  p.wave_counter = 4;
  p.shares_reconstructed_total = 2;
  p.epsilon = 3.75;
  return c;
}

// A plain sync save: params and recovery metadata, lossless wire (no EF
// residuals), no trailing fields.
Checkpoint plain_sync_checkpoint() {
  Checkpoint c;
  c.round = 3;
  c.params = ramp(1031, 0.5f);
  c.schedule_step_base = 6;
  c.client_trained_rounds = {3, 3};
  return c;
}

std::uint32_t file_crc(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                        std::istreambuf_iterator<char>());
  return crc32(bytes);
}

TEST(CheckpointStore, StreamedSaveMatchesRecordedLayout) {
  // The v2 byte layout is a compatibility contract: checkpoints written by
  // earlier builds must restore, and these CRCs were recorded from the
  // buffered writer the streaming one replaced.
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_layout_test";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir);
    test::save(store, full_checkpoint());
    test::save(store, plain_sync_checkpoint());
  }
  EXPECT_EQ(file_crc(dir / "ckpt_9.bin"), 0x89545111u);
  EXPECT_EQ(file_crc(dir / "ckpt_3.bin"), 0x0801ad4eu);
  std::filesystem::remove_all(dir);
}

void expect_same_checkpoint(const Checkpoint& got, const Checkpoint& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.params, want.params);
  EXPECT_EQ(got.eval_perplexity, want.eval_perplexity);
  EXPECT_EQ(got.schedule_step_base, want.schedule_step_base);
  EXPECT_EQ(got.client_trained_rounds, want.client_trained_rounds);
  EXPECT_EQ(got.server_opt_state, want.server_opt_state);
  EXPECT_EQ(got.client_ef_residuals, want.client_ef_residuals);
  EXPECT_EQ(got.async_state.valid, want.async_state.valid);
  EXPECT_EQ(got.async_state.in_flight.size(), want.async_state.in_flight.size());
  EXPECT_EQ(got.tuner_state, want.tuner_state);
  EXPECT_EQ(got.privacy_state.valid, want.privacy_state.valid);
  EXPECT_EQ(got.privacy_state.wave_counter, want.privacy_state.wave_counter);
}

TEST(CheckpointStore, DiskStoreKeepsNoMemorySnapshots) {
  // The committed file is the snapshot of a disk store: however large
  // keep_last is, nothing is held in memory, and reads come from disk.
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_ckpt_no_ring_test";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir, /*keep_last=*/3);
  std::vector<Checkpoint> saved;
  for (std::uint32_t r = 0; r < 5; ++r) {
    Checkpoint c = r % 2 == 0 ? full_checkpoint() : plain_sync_checkpoint();
    c.round = r;
    c.params[r] = static_cast<float>(r);
    test::save(store, c);
    saved.push_back(std::move(c));
  }
  // The save reads only the borrowed bulk buffers, never meta's own.
  const Checkpoint last = full_checkpoint();
  const std::vector<std::span<const float>> residuals(
      last.client_ef_residuals.begin(), last.client_ef_residuals.end());
  Checkpoint meta = last;
  meta.round = 5;
  meta.params.clear();
  meta.client_ef_residuals.clear();
  store.save(meta, last.params, residuals);
  saved.push_back(last);
  saved.back().round = 5;

  EXPECT_EQ(store.num_in_memory(), 0u);
  const auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  expect_same_checkpoint(*latest, saved.back());
  for (const Checkpoint& want : saved) {
    const auto got = store.at_round(want.round);
    ASSERT_TRUE(got.has_value());
    expect_same_checkpoint(*got, want);
  }
  EXPECT_FALSE(store.at_round(6).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, MemoryStoreCopiesBorrowedBuffers) {
  // A memory-only store's ring entry is its snapshot, so it must own a
  // copy: later writes to the borrowed buffers do not reach it.
  CheckpointStore store;
  std::vector<float> params{1.0f, 2.0f};
  std::vector<float> residual{0.5f};
  const std::vector<std::span<const float>> residuals{residual};
  Checkpoint meta;
  meta.round = 4;
  store.save(meta, params, residuals);
  params[0] = 9.0f;
  residual[0] = 9.0f;
  const auto got = store.at_round(4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->params, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(got->client_ef_residuals,
            (std::vector<std::vector<float>>{{0.5f}}));
  EXPECT_EQ(store.num_in_memory(), 1u);
}

TEST(CheckpointStore, JournalTracksBeginAndCommitAcrossProcesses) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "photon_journal_test";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(dir, 2);
    EXPECT_EQ(store.journal_last_committed(), -1);
    Checkpoint meta;
    store.journal_begin(0);
    store.save(meta, std::vector<float>{1.0f}, {});
    store.journal_commit(0);
    store.journal_begin(1);
    meta.round = 1;
    store.save(meta, std::vector<float>{2.0f}, {});
    store.journal_commit(1);
    store.journal_begin(2);  // crash before round 2's commit
  }
  // A fresh store (fresh process) replays the journal: round 2 began but
  // never committed, so the recovery point is round 1.
  CheckpointStore recovered(dir, 2);
  EXPECT_EQ(recovered.journal_last_begun(), 2);
  EXPECT_EQ(recovered.journal_last_committed(), 1);
  const auto ckpt = recovered.at_round(1);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->params, (std::vector<float>{2.0f}));
  recovered.journal_recovered(2);
  EXPECT_EQ(recovered.journal().back(), "R 2");
  std::filesystem::remove_all(dir);
}

TEST(ServerOpt, StateSaveLoadRestoresMomentumExactly) {
  // A restored stateful optimizer must continue bit-identically: serialize
  // `a`'s momentum after one apply, load it into fresh `b`, then drive both
  // through the same gradient sequence on identical params.
  for (const char* name : {"fedmom", "nesterov", "fedadam"}) {
    auto a = make_server_opt(name, 0.5f, 0.9f);
    auto b = make_server_opt(name, 0.5f, 0.9f);
    const std::vector<float> g1{0.1f, -0.2f}, g2{0.3f, 0.4f};
    std::vector<float> warmup{1.0f, 2.0f};
    a->apply(warmup, g1);
    BinaryWriter w;
    a->save_state(w);
    BinaryReader r(w.bytes());
    b->load_state(r);
    std::vector<float> pa{5.0f, 6.0f}, pb{5.0f, 6.0f};
    a->apply(pa, g2);
    b->apply(pb, g2);
    EXPECT_EQ(pa, pb) << name;
    EXPECT_NE(pa, (std::vector<float>{5.0f, 6.0f})) << name;
  }
}

}  // namespace
}  // namespace photon
