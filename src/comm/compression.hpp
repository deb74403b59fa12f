#pragma once
// Lossless payload codecs for the Link post-processing pipeline (paper §4:
// "By default, Photon uses lossless compression techniques without
// pruning").
//
// One lossless codec is provided: rle0, which run-length encodes zero
// bytes; it is effective on clipped/sparse pseudo-gradients and on padded
// buffers, and round-trips bit-exactly on arbitrary input (property-
// tested).  The lossy q8/q4 codecs live in quantization.hpp.
//
// A codec has one encoder and one decoder, both into caller buffers (the
// PHO2 frame records each chunk's raw size), plus raw_size, which reads a
// chunk's raw size from its structure so a frame can be validated without
// decoding it.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace photon {

class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::string name() const = 0;

  /// True for the "" pass-through codec: compressed bytes == input bytes.
  /// Callers use this to skip intermediate buffers entirely.
  virtual bool is_identity() const { return false; }

  /// Nonzero for lossy blockwise-quantized codecs (q8 -> 8, q4 -> 4).  The
  /// Aggregator keys the streamed dequantize-and-accumulate fan-in on this,
  /// and clients key error-feedback residual tracking on it; lossless
  /// codecs return 0.
  virtual int quant_bits() const { return 0; }

  /// Compress into `out`, reusing its capacity (cleared first).  This is
  /// the allocation-free primitive the chunked Message path calls per
  /// chunk with scratch buffers held across rounds.
  virtual void compress_into(std::span<const std::uint8_t> input,
                             std::vector<std::uint8_t>& out) const = 0;

  /// Decompress into the caller-provided buffer of exactly the original
  /// size (the chunked wire format stores it).  Writes no temporaries.
  /// Throws std::runtime_error on malformed input or if the output does
  /// not fill `out` exactly.
  virtual void decompress_into(std::span<const std::uint8_t> input,
                               std::span<std::uint8_t> out) const = 0;

  /// The one out.size() for which decompress_into(input, out) succeeds,
  /// read from the compressed structure without decoding it; throws
  /// std::runtime_error where no size would.  Message::validate_wire checks
  /// each chunk against its planned raw size with this, so a frame it
  /// accepts is one decode_into would accept.
  virtual std::size_t raw_size(std::span<const std::uint8_t> input) const = 0;
};

class Rle0Codec final : public Codec {
 public:
  std::string name() const override { return "rle0"; }
  void compress_into(std::span<const std::uint8_t> input,
                     std::vector<std::uint8_t>& out) const override;
  void decompress_into(std::span<const std::uint8_t> input,
                       std::span<std::uint8_t> out) const override;
  std::size_t raw_size(std::span<const std::uint8_t> input) const override;
};

/// Codec registry; returns nullptr for unknown names, and an identity for "".
const Codec* codec_by_name(const std::string& name);

/// Codecs eligible for default wire paths: "" identity, lossless "rle0",
/// and the lossy blockwise-quantized "q8"/"q4" (see quantization.hpp).
/// Every lossless entry must sustain >= 0.3 GB/s encode and every quantized
/// entry >= 1 GB/s on adversarial payloads — enforced by bench_round_path.
const std::vector<std::string>& enabled_wire_codecs();

}  // namespace photon
