#include "core/checkpoint.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "util/serialization.hpp"

namespace photon {
namespace {

// v2 on-disk checkpoint magic ("PCK2"); legacy files (no magic) start with
// the raw round counter, which for any plausible run is far below this.
constexpr std::uint32_t kCkptMagic = 0x324B4350;

constexpr const char* kJournalFile = "round.journal";

std::filesystem::path ckpt_path(const std::filesystem::path& dir,
                                std::uint32_t round) {
  return dir / ("ckpt_" + std::to_string(round) + ".bin");
}

void write_metric_dict(BinaryWriter& w,
                       const std::map<std::string, double>& metrics) {
  w.write(static_cast<std::uint64_t>(metrics.size()));
  for (const auto& [key, value] : metrics) {
    w.write_string(key);
    w.write(value);
  }
}

std::map<std::string, double> read_metric_dict(BinaryReader& r) {
  std::map<std::string, double> metrics;
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.read_string();
    metrics[std::move(key)] = r.read<double>();
  }
  return metrics;
}

void write_async_state(BinaryWriter& w, const AsyncAggregatorState& s) {
  w.write(s.sim_now);
  w.write(s.accepted_total);
  w.write(s.discarded_total);
  w.write_vector(s.membership);
  w.write_vector(s.defer_counts);
  w.write_vector(s.next_eligible);
  w.write(static_cast<std::uint64_t>(s.in_flight.size()));
  for (const AsyncInFlightSnapshot& u : s.in_flight) {
    w.write(u.client);
    w.write(u.arrive_time);
    w.write(u.dispatch_version);
    w.write(u.wave_id);
    w.write(u.failure_kind);
    w.write(u.tokens);
    w.write(u.mean_train_loss);
    w.write(u.train_sim_seconds);
    write_metric_dict(w, u.metrics);
    w.write_string(u.codec);
    w.write(u.elems);
    w.write(u.chunk_raw_bytes);
    w.write_vector(u.chunk_lens);
    w.write_vector(u.chunk_bytes);
  }
}

AsyncAggregatorState read_async_state(BinaryReader& r) {
  AsyncAggregatorState s;
  s.valid = true;
  s.sim_now = r.read<double>();
  s.accepted_total = r.read<std::uint64_t>();
  s.discarded_total = r.read<std::uint64_t>();
  s.membership = r.read_vector<std::uint8_t>();
  s.defer_counts = r.read_vector<std::uint32_t>();
  s.next_eligible = r.read_vector<double>();
  const auto n = r.read<std::uint64_t>();
  s.in_flight.resize(n);
  for (AsyncInFlightSnapshot& u : s.in_flight) {
    u.client = r.read<int>();
    u.arrive_time = r.read<double>();
    u.dispatch_version = r.read<std::uint32_t>();
    u.wave_id = r.read<std::uint64_t>();
    u.failure_kind = r.read<std::uint8_t>();
    u.tokens = r.read<std::uint64_t>();
    u.mean_train_loss = r.read<double>();
    u.train_sim_seconds = r.read<double>();
    u.metrics = read_metric_dict(r);
    u.codec = r.read_string();
    u.elems = r.read<std::uint64_t>();
    u.chunk_raw_bytes = r.read<std::uint64_t>();
    u.chunk_lens = r.read_vector<std::uint64_t>();
    u.chunk_bytes = r.read_vector<std::uint8_t>();
  }
  return s;
}

}  // namespace

CheckpointStore::CheckpointStore(std::filesystem::path dir,
                                 std::size_t keep_last)
    : dir_(std::move(dir)), keep_last_(std::max<std::size_t>(1, keep_last)) {
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_);
    replay_journal();
  }
}

void CheckpointStore::save(
    Checkpoint meta, std::span<const float> params,
    std::span<const std::span<const float>> ef_residuals) {
  if (!dir_.empty()) {
    write_to_disk(meta, params, ef_residuals);
    return;
  }
  meta.params.assign(params.begin(), params.end());
  meta.client_ef_residuals.clear();
  for (const auto residual : ef_residuals) {
    meta.client_ef_residuals.emplace_back(residual.begin(), residual.end());
  }
  memory_.push_back(std::move(meta));
  if (memory_.size() > keep_last_) {
    memory_.erase(memory_.begin(),
                  memory_.begin() +
                      static_cast<std::ptrdiff_t>(memory_.size() - keep_last_));
  }
}

std::optional<Checkpoint> CheckpointStore::latest() const {
  if (!memory_.empty()) return memory_.back();
  if (last_saved_.has_value()) return read_from_disk(*last_saved_);
  // Fresh process after a crash: scan the directory for the newest round.
  if (dir_.empty() || !std::filesystem::exists(dir_)) return std::nullopt;
  std::int64_t best = -1;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) != 0 || entry.path().extension() != ".bin") {
      continue;
    }
    try {
      best = std::max<std::int64_t>(best, std::stoll(name.substr(5)));
    } catch (const std::exception&) {
      continue;  // not one of ours
    }
  }
  if (best < 0) return std::nullopt;
  return read_from_disk(static_cast<std::uint32_t>(best));
}

std::optional<Checkpoint> CheckpointStore::at_round(std::uint32_t round) const {
  if (!dir_.empty()) return read_from_disk(round);
  for (auto it = memory_.rbegin(); it != memory_.rend(); ++it) {
    if (it->round == round) return *it;
  }
  return std::nullopt;
}

void CheckpointStore::journal_append(char tag, std::uint32_t round) {
  std::string entry;
  entry += tag;
  entry += ' ';
  entry += std::to_string(round);
  journal_.push_back(entry);
  if (!dir_.empty()) {
    std::ofstream os(dir_ / kJournalFile, std::ios::app);
    if (!os) {
      throw std::runtime_error("CheckpointStore: cannot append journal in " +
                               dir_.string());
    }
    os << entry << '\n' << std::flush;
  }
}

void CheckpointStore::journal_begin(std::uint32_t round) {
  journal_append('B', round);
  last_begun_ = std::max<std::int64_t>(last_begun_, round);
}

void CheckpointStore::journal_commit(std::uint32_t round) {
  journal_append('C', round);
  last_committed_ = std::max<std::int64_t>(last_committed_, round);
}

void CheckpointStore::journal_recovered(std::uint32_t round) {
  journal_append('R', round);
}

void CheckpointStore::replay_journal() {
  std::ifstream is(dir_ / kJournalFile);
  if (!is) return;
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 3 || line[1] != ' ') continue;  // torn tail line
    std::int64_t round = -1;
    try {
      round = std::stoll(line.substr(2));
    } catch (const std::exception&) {
      continue;
    }
    if (round < 0) continue;
    journal_.push_back(line);
    if (line[0] == 'B') last_begun_ = std::max(last_begun_, round);
    if (line[0] == 'C') last_committed_ = std::max(last_committed_, round);
  }
}

void CheckpointStore::write_to_disk(
    const Checkpoint& ckpt, std::span<const float> params,
    std::span<const std::span<const float>> ef_residuals) {
  const auto path = ckpt_path(dir_, ckpt.round);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("CheckpointStore: cannot write " + path.string());
  // The small fields are encoded into `w`, which is flushed to the file
  // ahead of each bulk buffer; the bulk buffers go from their owners
  // straight to the file, so a save never materialises its payload twice.
  BinaryWriter w;
  const auto flush = [&] {
    os.write(reinterpret_cast<const char*>(w.bytes().data()),
             static_cast<std::streamsize>(w.size()));
    w = BinaryWriter(w.take());
  };
  const auto write_floats = [&](std::span<const float> v) {
    w.write(static_cast<std::uint64_t>(v.size()));
    flush();
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size_bytes()));
  };
  w.write(kCkptMagic);
  w.write(ckpt.round);
  w.write(ckpt.eval_perplexity);
  w.write(ckpt.schedule_step_base);
  write_floats(params);
  w.write_vector(ckpt.client_trained_rounds);
  w.write_vector(ckpt.server_opt_state);
  // Trailing v2 field (readers tolerate its absence): error-feedback
  // residuals, one vector per client.
  w.write(static_cast<std::uint64_t>(ef_residuals.size()));
  for (const auto residual : ef_residuals) write_floats(residual);
  // Second trailing field: elastic async engine state.  Sync-mode saves
  // write nothing here, keeping their byte layout identical to before —
  // unless a later trailing field follows, in which case the async flag
  // byte must be present (as 0) so readers can tell the fields apart.
  const bool has_privacy = ckpt.privacy_state.valid;
  const bool has_tuner = !ckpt.tuner_state.empty();
  if (ckpt.async_state.valid) {
    w.write(static_cast<std::uint8_t>(1));
    write_async_state(w, ckpt.async_state);
  } else if (has_tuner || has_privacy) {
    w.write(static_cast<std::uint8_t>(0));
  }
  // Third trailing field: opaque autotuner state (flag-prefixed).
  if (has_tuner) {
    w.write(static_cast<std::uint8_t>(1));
    w.write_vector(ckpt.tuner_state);
  } else if (has_privacy) {
    w.write(static_cast<std::uint8_t>(0));
  }
  // Fourth trailing field: privacy engine state (flag-prefixed).
  if (has_privacy) {
    w.write(static_cast<std::uint8_t>(1));
    w.write(ckpt.privacy_state.accounted_rounds);
    w.write(ckpt.privacy_state.noise_multiplier);
    w.write(ckpt.privacy_state.delta);
    w.write(ckpt.privacy_state.wave_counter);
    w.write(ckpt.privacy_state.shares_reconstructed_total);
    w.write(ckpt.privacy_state.epsilon);
  }
  flush();
  // A short write (full disk, I/O error) sets the stream state without
  // throwing, and the buffered tail only reaches the file at close(), whose
  // failure adds to that state.  The trailing fields are optional on read,
  // so a torn file would restore silently: fail here, before the caller can
  // journal the round as committed, and leave no torn file behind.
  os.close();
  if (!os) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw std::runtime_error("CheckpointStore: short write to " + path.string());
  }
  last_saved_ = ckpt.round;
}

std::optional<Checkpoint> CheckpointStore::read_from_disk(
    std::uint32_t round) const {
  const auto path = ckpt_path(dir_, round);
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  // One sized read; BinaryReader's bounds checks still catch a truncated
  // file (or a non-regular one, which reads as empty).
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  const std::size_t size = ec ? 0 : static_cast<std::size_t>(file_size);
  const auto bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  if (!is.read(reinterpret_cast<char*>(bytes.get()),
               static_cast<std::streamsize>(size))) {
    throw std::runtime_error("CheckpointStore: cannot read " + path.string());
  }
  BinaryReader r(std::span<const std::uint8_t>(bytes.get(), size));
  Checkpoint ckpt;
  const auto first = r.read<std::uint32_t>();
  if (first == kCkptMagic) {
    ckpt.round = r.read<std::uint32_t>();
    ckpt.eval_perplexity = r.read<double>();
    ckpt.schedule_step_base = r.read<std::int64_t>();
    ckpt.params = r.read_vector<float>();
    ckpt.client_trained_rounds = r.read_vector<std::uint32_t>();
    ckpt.server_opt_state = r.read_vector<std::uint8_t>();
    if (r.remaining() > 0) {
      const auto n = r.read<std::uint64_t>();
      ckpt.client_ef_residuals.resize(n);
      for (auto& residual : ckpt.client_ef_residuals) {
        residual = r.read_vector<float>();
      }
    }
    if (r.remaining() > 0 && r.read<std::uint8_t>() != 0) {
      ckpt.async_state = read_async_state(r);
    }
    if (r.remaining() > 0 && r.read<std::uint8_t>() != 0) {
      ckpt.tuner_state = r.read_vector<std::uint8_t>();
    }
    if (r.remaining() > 0 && r.read<std::uint8_t>() != 0) {
      ckpt.privacy_state.valid = true;
      ckpt.privacy_state.accounted_rounds = r.read<std::uint64_t>();
      ckpt.privacy_state.noise_multiplier = r.read<double>();
      ckpt.privacy_state.delta = r.read<double>();
      ckpt.privacy_state.wave_counter = r.read<std::uint64_t>();
      ckpt.privacy_state.shares_reconstructed_total = r.read<std::uint64_t>();
      ckpt.privacy_state.epsilon = r.read<double>();
    }
  } else {
    // Legacy (pre-journal) layout: round, perplexity, params.
    ckpt.round = first;
    ckpt.eval_perplexity = r.read<double>();
    ckpt.params = r.read_vector<float>();
  }
  return ckpt;
}

}  // namespace photon
