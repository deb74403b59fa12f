#pragma once
// Checkpointing (paper Alg. 1 L11 server-side, L27 client-side): global
// model snapshots each round for fast recovery, either as a memory ring or
// streamed to disk, with recovery metadata and a write-ahead round journal
// that makes aggregator crash-recovery exact (ServerOpt applied exactly
// once per completed round; LR schedule state restored bit-identically).

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace photon {

/// One in-flight async update pending at a drain boundary, retained as its
/// compressed wire image so a restored run replays it through the exact
/// dequantize-accumulate path the uninterrupted run would have used.
struct AsyncInFlightSnapshot {
  int client = -1;
  double arrive_time = 0.0;          // absolute sim time the update lands
  std::uint32_t dispatch_version = 0;  // server model version it trained on
  /// SecAgg dispatch wave this update was masked under (0 when plain).
  /// Every member of a wave shares it, so a restored run rebuilds the same
  /// SecAggSession (seeded by wave id) and unmasking stays bit-exact.
  std::uint64_t wave_id = 0;
  /// 0 = delivers normally; 1 = client crashed mid-round; 2 = the return
  /// transmit aborted.  Failed slots still occupy admission capacity until
  /// their arrive_time, so they must survive recovery too.
  std::uint8_t failure_kind = 0;
  std::uint64_t tokens = 0;
  double mean_train_loss = 0.0;
  double train_sim_seconds = 0.0;
  std::map<std::string, double> metrics;
  // --- retained wire image (empty for failed slots) ---
  std::string codec;
  std::uint64_t elems = 0;
  std::uint64_t chunk_raw_bytes = 0;
  std::vector<std::uint64_t> chunk_lens;
  std::vector<std::uint8_t> chunk_bytes;  // compressed chunks, concatenated
};

/// Async engine state captured at a FedBuff drain boundary (the fp64
/// accumulator is always empty there, so "buffer contents" = the in-flight
/// updates plus the per-client counters that gate admission).  Trailing v2
/// checkpoint field; absent for sync-mode saves and older snapshots.
struct AsyncAggregatorState {
  bool valid = false;
  /// Async rounds consume sim time across drain boundaries, so unlike the
  /// sync engine the clock itself is part of the restart state.
  double sim_now = 0.0;
  std::uint64_t accepted_total = 0;
  std::uint64_t discarded_total = 0;
  std::vector<std::uint8_t> membership;     // MembershipState per client
  std::vector<std::uint32_t> defer_counts;  // consecutive admission defers
  std::vector<double> next_eligible;        // sim time a defer expires
  std::vector<AsyncInFlightSnapshot> in_flight;
};

/// Privacy engine state at a checkpoint boundary (DESIGN.md §14): the RDP
/// accountant's composition count (epsilon is recomputed from it) and the
/// SecAgg wave counter that seeds per-dispatch-wave mask sessions.  A
/// restored run continues both exactly where the crashed run left off.
struct PrivacyCheckpointState {
  bool valid = false;
  std::uint64_t accounted_rounds = 0;   // RDP compositions so far
  double noise_multiplier = 0.0;        // sigma the accountant was built with
  double delta = 0.0;                   // target delta; 0 = DP disabled
  std::uint64_t wave_counter = 0;       // next async secagg wave id
  std::uint64_t shares_reconstructed_total = 0;  // lifetime dropout recoveries
  double epsilon = 0.0;                 // eps(delta) at save time (audit)
};

struct Checkpoint {
  std::uint32_t round = 0;
  std::vector<float> params;
  double eval_perplexity = -1.0;

  // --- recovery metadata (defaults = "not recorded", for legacy saves) ---
  /// Cumulative schedule step count *after* completing `round`; restoring
  /// it makes the post-recovery cosine LR schedule identical to an
  /// uninterrupted run.
  std::int64_t schedule_step_base = -1;
  /// Per-client count of rounds whose local training actually ran, used to
  /// fast-forward fresh client data streams to their pre-crash positions.
  std::vector<std::uint32_t> client_trained_rounds;
  /// Serialized ServerOpt state (momentum / moment buffers) captured after
  /// this round's apply; empty for stateless optimizers.
  std::vector<std::uint8_t> server_opt_state;
  /// Per-client error-feedback residuals under quantized wire codecs
  /// (empty vectors for clients that have not hit a lossy codec yet, the
  /// whole list empty when the wire path is lossless).  Restoring them
  /// keeps the post-recovery wire stream bit-identical to an uninterrupted
  /// run.  Trailing v2 field: absent in older snapshots, read only when
  /// bytes remain.
  std::vector<std::vector<float>> client_ef_residuals;
  /// Elastic async engine state (valid only for async-mode saves); second
  /// trailing field, written after the residuals and skipped entirely for
  /// sync saves so their byte layout is unchanged.
  AsyncAggregatorState async_state;
  /// Opaque autotuner state (src/tune decision history + trace digests);
  /// third trailing field, flag-prefixed, written only when a tuner is
  /// attached so untuned saves keep their exact historical byte layout.
  /// Restoring it replays the tuner's knob decisions bit-identically.
  std::vector<std::uint8_t> tuner_state;
  /// Privacy engine state (DESIGN.md §14): DP accountant composition and
  /// the SecAgg wave counter.  Fourth trailing field, flag-prefixed,
  /// written only when secure aggregation or DP accounting is active so
  /// plain saves keep their exact historical byte layout.
  PrivacyCheckpointState privacy_state;
};

class CheckpointStore {
 public:
  /// `dir` empty = memory-only store (tests, sweeps) holding a ring of the
  /// last `keep_last` snapshots.  Otherwise each snapshot is streamed to
  /// <dir>/ckpt_<round>.bin, the file is the only copy (`keep_last` does
  /// not apply), and the round journal lives in <dir>/round.journal
  /// (replayed on construction for crash recovery).
  explicit CheckpointStore(std::filesystem::path dir = {},
                           std::size_t keep_last = 3);

  /// Save one snapshot with the bulk buffers borrowed for the call: `meta`
  /// carries every small field (its `params` and `client_ef_residuals` are
  /// ignored), `params` and one span per client residual are read in
  /// place.  A disk store writes them straight into the file; a memory-only
  /// store copies them into its ring, since that copy is its snapshot.
  /// Throws, before anything is recorded as saved, if the file could not be
  /// written in full.
  void save(Checkpoint meta, std::span<const float> params,
            std::span<const std::span<const float>> ef_residuals);

  /// Most recent checkpoint: the newest in memory (memory-only store), the
  /// last one this store wrote, else (fresh process) the highest-round
  /// ckpt_*.bin on disk.
  std::optional<Checkpoint> latest() const;

  /// Checkpoint for an exact round (the ring, or the file on disk).
  std::optional<Checkpoint> at_round(std::uint32_t round) const;

  std::size_t num_in_memory() const { return memory_.size(); }
  const std::filesystem::path& dir() const { return dir_; }

  // --- write-ahead round journal ---------------------------------------
  // Protocol per round r: `begin r` is appended (and flushed) BEFORE the
  // ServerOpt apply; `commit r` AFTER the round's checkpoint is durable
  // (written in full and closed into the page cache: it survives a process
  // crash, not a power loss, as nothing is fsync'd).
  // On recovery the last committed round is the restore point: a round
  // with a dangling `begin` may have mutated the in-memory model but never
  // produced a durable checkpoint, so re-running it from the last commit
  // applies ServerOpt exactly once per round of the final timeline.

  void journal_begin(std::uint32_t round);
  void journal_commit(std::uint32_t round);
  /// Record that a recovery restarted the run at `round` (audit trail).
  void journal_recovered(std::uint32_t round);

  /// Highest round with a durable checkpoint per the journal; -1 if the
  /// journal has no commits (fall back to latest()).
  std::int64_t journal_last_committed() const { return last_committed_; }
  /// Highest round that began applying; -1 if none.
  std::int64_t journal_last_begun() const { return last_begun_; }
  /// In-order journal entries ("B <r>" / "C <r>" / "R <r>"), replayed from
  /// disk on construction when persistent.
  const std::vector<std::string>& journal() const { return journal_; }

 private:
  void journal_append(char tag, std::uint32_t round);
  void replay_journal();
  void write_to_disk(const Checkpoint& ckpt, std::span<const float> params,
                     std::span<const std::span<const float>> ef_residuals);
  std::optional<Checkpoint> read_from_disk(std::uint32_t round) const;

  std::filesystem::path dir_;
  std::size_t keep_last_;  // ring size; memory-only stores only
  /// Ring of the last keep_last_ snapshots; memory-only stores only (a
  /// disk store's snapshot is its committed file).
  std::vector<Checkpoint> memory_;
  std::optional<std::uint32_t> last_saved_;  // disk store: last file written
  std::vector<std::string> journal_;
  std::int64_t last_begun_ = -1;
  std::int64_t last_committed_ = -1;
};

}  // namespace photon
