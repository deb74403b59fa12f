#pragma once
// Test-only one-shot wrappers over entry points that reuse or borrow
// caller buffers: Message::encode_into / decode_into, Codec::compress_into /
// decompress_into and the borrowed-buffer CheckpointStore::save.  The
// library has only those forms; tests use these to compare whole buffers
// and to save a Checkpoint they hold in full.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/compression.hpp"
#include "comm/message.hpp"
#include "core/checkpoint.hpp"

namespace photon::test {

inline std::vector<std::uint8_t> encoded(const Message& m) {
  WireScratch scratch;
  m.encode_into(scratch);
  return std::move(scratch.wire);
}

inline Message decoded(std::span<const std::uint8_t> wire) {
  Message m;
  Message::decode_into(wire, m);
  return m;
}

inline std::vector<std::uint8_t> compressed(const Codec& codec,
                                            std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> out;
  codec.compress_into(in, out);
  return out;
}

/// `raw_size` is the size `in` was compressed from, as the PHO2 chunk
/// table records it.
inline std::vector<std::uint8_t> decompressed(const Codec& codec,
                                              std::span<const std::uint8_t> in,
                                              std::size_t raw_size) {
  std::vector<std::uint8_t> out(raw_size);
  codec.decompress_into(in, out);
  return out;
}

/// Save `ckpt` with its own params and EF residuals as the borrowed bulk
/// buffers.
inline void save(CheckpointStore& store, const Checkpoint& ckpt) {
  const std::vector<std::span<const float>> residuals(
      ckpt.client_ef_residuals.begin(), ckpt.client_ef_residuals.end());
  store.save(ckpt, ckpt.params, residuals);
}

}  // namespace photon::test
