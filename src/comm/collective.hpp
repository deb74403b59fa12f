#pragma once
// Aggregation collectives: the three topologies of paper §4.
//
// Each collective performs a *real* element-wise mean across worker buffers
// (the reduction Photon applies to pseudo-gradients) and returns the byte /
// time accounting implied by that topology, so benches can report both the
// numerics and the communication costs together.
//
//   PS  — parameter server: server receives K updates, K*S down + S*K up.
//   AR  — naive AllReduce: every worker sends its buffer to all peers.
//   RAR — Ring-AllReduce: chunked reduce-scatter + all-gather, the
//         bandwidth-optimal 2*S*(K-1)/K per worker.
// PS and AR produce bit-identical means (per element an fp64 sum in buffer
// order, narrowed once).  RAR runs the chunked ring dataflow in float, so
// its mean agrees with theirs to rounding (property-tested to 1e-5), not bit
// for bit; the three differ in cost.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/message.hpp"
#include "tensor/kernel_context.hpp"

namespace photon {

class Codec;

struct CollectiveReport {
  Topology topology = Topology::kParameterServer;
  int workers = 0;
  /// Bytes crossing the bottleneck participant (server for PS, any worker
  /// for AR/RAR).
  std::uint64_t bottleneck_bytes = 0;
  /// Total bytes moved across the whole fabric.
  std::uint64_t total_bytes = 0;
  /// Simulated wall time at `bandwidth_mbps`.
  double seconds = 0.0;
};

/// Byte and time accounting of one collective over `k` members of
/// `member_bytes` each — the PS / AR / RAR formulas of paper §4 (Appendix
/// B.1 Eqs. 2-4), in the integer arithmetic every caller shares:
///   PS  bottleneck K*S,          total 2*K*S
///   AR  bottleneck (K-1)*S,      total K*(K-1)*S
///   RAR bottleneck 2*S*(K-1)/K,  total bottleneck*K
/// `seconds` is the bottleneck at `bandwidth_mbps`.
CollectiveReport collective_cost(Topology topology, int k,
                                 std::uint64_t member_bytes,
                                 double bandwidth_mbps);

/// In-place mean over `buffers` through `topology`; every buffer ends
/// holding the mean.  Buffers must be equal length and non-empty.
///   PS  — the server accumulates all K updates and broadcasts the mean.
///   AR  — every worker receives every peer's buffer and reduces locally.
///   RAR — the chunked ring dataflow: reduce-scatter then all-gather with
///         K chunks, then the mean in float.
/// Element ranges shard over `ctx` with the same deterministic-sharding
/// contract as the tensor kernels: results are bit-identical between serial
/// and parallel execution at any thread count (the reduction order per
/// element never depends on sharding).  Returns the topology's
/// collective_cost for the buffers.
CollectiveReport collective_mean(
    Topology topology, std::vector<std::span<float>> buffers,
    double bandwidth_mbps,
    const kernels::KernelContext& ctx = kernels::default_context());

/// The fp64 weighted mean both round engines aggregate through (DESIGN.md
/// §11, §12): members fold into one accumulator in batch order, then the
/// mean narrows once.  Per element the arithmetic is
///   out[e] = float((sum_j w_j * double(x_j[e])) * (1 / sum_j w_j))
/// so a sync cohort at weight 1 reproduces the materialized PS mean bit for
/// bit, and the async buffer is its staleness-weighted generalization.
class WeightedMeanFold {
 public:
  /// One update: a decoded fp32 payload, or (when `wire` is set) a retained
  /// quantized wire image that is dequantized chunk by chunk as it folds.
  struct Member {
    std::span<const float> fp32;
    const WireView* wire = nullptr;
    double weight = 1.0;
  };

  /// Start an n-element mean: zero the accumulator and the weight sum.
  void reset(std::size_t n);
  /// acc[e] += w_j * x_j[e] for every member j, in batch order per element.
  /// A batch holding a wire image folds chunk-major on that image's chunk
  /// grid — chunk-parallel on the global pool when `parallel` — decoding
  /// into per-thread scratch, so no member's full fp32 update materializes;
  /// an fp32-only batch folds on the calling thread.  `chunk_ns`, when
  /// non-null, receives each chunk's measured fold time.  Throws
  /// std::runtime_error on a member whose size or chunk grid differs from
  /// the mean's, or whose codec is unknown.
  void fold(std::span<const Member> batch, bool parallel,
            std::vector<std::uint64_t>* chunk_ns = nullptr);
  /// out[e] = float(acc[e] * (1 / weight_sum)); zeros when nothing folded.
  void finish(std::span<float> out) const;
  double weight_sum() const { return weight_sum_; }

 private:
  std::vector<double> acc_;
  double weight_sum_ = 0.0;
  std::vector<const Codec*> codecs_;  // per member of the current batch
};

}  // namespace photon
