// Compressed block cache (Section 3.4, Figure 4). Each cache line maps
// (gate op, compressed input block(s)) -> compressed output block(s), so a
// hit skips decompression, computation, and recompression entirely.
// Replacement is least-recently-used over a fixed number of lines (the
// paper uses 64 per rank). The cache disables itself when it has seen many
// misses and no hit (paper: "disable the compressed block cache if the
// cache hit rate is always zero").
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::runtime {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool disabled = false;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class BlockCache {
 public:
  /// `lines`: cache capacity; `disable_after_misses`: consecutive-miss
  /// count with zero hits after which lookups short-circuit.
  explicit BlockCache(std::size_t lines = 64,
                      std::uint64_t disable_after_misses = 4096);

  /// Key for (RUN, CB1, CB2): a run that pairs blocks, keyed like
  /// make_run_key (the descriptor count and each per-gate descriptor with
  /// its length) plus both input payloads, each with its codec id —
  /// byte-identical payloads produced by different codecs decode to
  /// different blocks, so the id must join the identity. `map_generation`
  /// is the simulator's qubit-map version counter: ops are cached in
  /// physical coordinates, and folding the generation in keeps every cached
  /// block a pure function of its inputs even across relabels that reuse a
  /// physical gate descriptor (0 = the identity layout, which never
  /// changes).
  static std::uint64_t make_key(std::span<const Bytes> op_descriptors,
                                ByteSpan cb1, ByteSpan cb2,
                                std::uint8_t cb1_codec = 0,
                                std::uint8_t cb2_codec = 0,
                                std::uint64_t map_generation = 0);

  /// Key for (RUN, CB1): a gate run is a first-class cache identity — the
  /// hash covers the descriptor count and each per-gate descriptor with
  /// its length, so ({"ab","c"}, ...) and ({"a","bc"}, ...) never collide,
  /// plus the single input block a unit sweep reads and its codec id,
  /// plus the qubit-map generation (see make_key).
  static std::uint64_t make_run_key(std::span<const Bytes> op_descriptors,
                                    ByteSpan cb1, std::uint8_t cb1_codec = 0,
                                    std::uint64_t map_generation = 0);

  /// On hit, copies the cached output blocks into `out1` / `out2` (out2
  /// untouched for single-block entries), reports which codec produced
  /// each output via the optional id pointers, and returns true.
  bool lookup(std::uint64_t key, Bytes& out1, Bytes& out2,
              std::uint8_t* codec1 = nullptr, std::uint8_t* codec2 = nullptr);

  /// Inserts outputs for `key`, evicting the LRU line if full. The codec
  /// ids record which codec produced each output payload so a later hit
  /// can restore the block's BlockMeta exactly.
  void insert(std::uint64_t key, const Bytes& out1, const Bytes& out2,
              std::uint8_t codec1 = 0, std::uint8_t codec2 = 0);

  CacheStats stats() const;
  bool enabled() const;

 private:
  struct Line {
    std::uint64_t key;
    Bytes out1;
    Bytes out2;
    std::uint8_t codec1 = 0;
    std::uint8_t codec2 = 0;
  };

  void maybe_disable_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t disable_after_misses_;
  std::list<Line> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Line>::iterator> index_;
  CacheStats stats_;
};

}  // namespace cqs::runtime
