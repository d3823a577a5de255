// BlockStore: the compressed state vector of one logical rank — a set of
// independently compressed blocks plus the codec/bound metadata needed to
// decompress each one.
//
// Blocks live in one of two tiers. A *resident* block holds its payload in
// memory. A *spilled* block's payload lives in a SpillFile segment and is
// read back as a zero-copy mmap view. Tier moves are byte-preserving by
// construction — the payload is opaque either way — which is what lets the
// golden layers pin spill-on == spill-off at tolerance 0.
//
// Ownership contract (matching the simulator's sweep discipline): a block
// is touched — read, written or moved between tiers — only by its owner:
// inside a parallel region the worker its unit was handed to, between
// regions the main thread. So a block's slot is plain data. Workers share
// only the TierStats atomics and the SpillFile, which locks its own free
// list. TierStats is also the only byte ledger: a store counts its bytes
// there and nowhere else.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "compression/compressor.hpp"
#include "runtime/spill_file.hpp"

namespace cqs::runtime {

/// Which codec/bound a block was last compressed with. `level` indexes the
/// simulator's error ladder the pass ran at: 0 = lossless, k > 0 =
/// ladder[k-1]. `codec` is the compression::codec_id of the codec that
/// actually produced the payload, and the decompressor is always selected
/// by `codec`, never by `level`: checkpoint images of earlier versions can
/// hold lossless (codec 0) blocks at a lossy ladder level.
struct BlockMeta {
  std::uint8_t level = 0;
  std::uint8_t codec = 0;
};

/// Shared two-tier accounting, one instance per simulator, attached to
/// every rank's BlockStore: the one ledger of the state's compressed bytes
/// (the sum term of Eq. 8, split by tier). Byte counters move at every
/// block mutation — set and spill — so the peaks bound actual occupancy at
/// mutation granularity rather than being sampled at gate boundaries.
/// spill/fault counts are deterministic across worker counts (the set of
/// mutations is schedule-independent).
struct TierStats {
  std::atomic<std::size_t> resident_bytes{0};
  std::atomic<std::size_t> spilled_bytes{0};
  std::atomic<std::size_t> peak_resident_bytes{0};
  std::atomic<std::size_t> peak_total_bytes{0};
  std::atomic<std::uint64_t> spill_events{0};
  std::atomic<std::uint64_t> fault_events{0};

  /// Applies a byte movement and refreshes both peaks (relaxed fetch-max).
  void note_delta(std::ptrdiff_t resident_delta, std::ptrdiff_t spilled_delta);

  /// Zeroes everything (checkpoint restore replaces the whole state).
  void reset();
};

class BlockStore {
 public:
  BlockStore() = default;
  explicit BlockStore(int num_blocks)
      : slots_(static_cast<std::size_t>(num_blocks)),
        meta_(static_cast<std::size_t>(num_blocks)) {}

  // Spill segments are uniquely owned, so stores move but never copy (a
  // copy would double-free its segments).
  BlockStore(BlockStore&& other) noexcept;
  BlockStore& operator=(BlockStore&& other) noexcept;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;
  ~BlockStore();

  /// Connects the store to the shared accounting and (optionally) the
  /// spill backend, adding the bytes it already holds (each block's
  /// block_size, by tier) to `stats`. An unattached store counts nothing.
  /// `spill` may be null (accounting-only attachment, the spill-off path).
  void attach(TierStats* stats, SpillFile* spill);

  int num_blocks() const { return static_cast<int>(slots_.size()); }

  const BlockMeta& meta(int index) const {
    return meta_[static_cast<std::size_t>(index)];
  }

  /// The payload bytes of a block in either tier: a span over the resident
  /// Bytes, or a zero-copy view into the spill file (counted as a fault
  /// event). The view is valid until the block is next written or spilled.
  ByteSpan payload_view(int index) const;

  /// Like payload_view, but counts no fault event. For serialization paths
  /// (checkpoint save) whose reads are bookkeeping, not simulation faults,
  /// and must not skew the report's telemetry.
  ByteSpan raw_view(int index) const;

  std::size_t block_size(int index) const;
  bool is_spilled(int index) const {
    return slots_[static_cast<std::size_t>(index)].spilled;
  }

  /// Replaces a block's payload, making it resident (a spilled block's
  /// segment is freed). Keeps tier accounting current. Safe to call
  /// concurrently for distinct indices.
  void set_block(int index, Bytes payload, BlockMeta meta);

  /// Moves a resident block to the spill tier and frees its in-memory
  /// payload. No-op when already spilled. Throws SpillError on write
  /// failure, leaving the block resident. Requires an attached SpillFile.
  void spill_block(int index);

 private:
  struct Slot {
    /// The payload while resident; empty once spilled.
    Bytes payload;
    SpillSegment segment{};  ///< valid iff spilled
    bool spilled = false;
  };

  void release_segments();

  std::vector<Slot> slots_;
  std::vector<BlockMeta> meta_;
  TierStats* stats_ = nullptr;
  SpillFile* spill_ = nullptr;
};

}  // namespace cqs::runtime
