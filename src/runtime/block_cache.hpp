// The run key of the retired cross-sweep block cache (Section 3.4). The
// simulator keys nothing any more: units of one gate sweep that read equal
// bytes share one output, and the bytes themselves decide equality (see
// CompressedStateSimulator::run_units).
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace cqs::runtime {

class BlockCache {
 public:
  /// Stays only because the benchmark suite times it as `cache.key_mb_s`.
  /// Hashes the descriptor count, each per-gate descriptor with its length
  /// (so ({"ab","c"}, ...) and ({"a","bc"}, ...) never collide), the input
  /// block and its codec id.
  static std::uint64_t make_run_key(std::span<const Bytes> op_descriptors,
                                    ByteSpan cb1, std::uint8_t cb1_codec = 0);
};

}  // namespace cqs::runtime
