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
// Concurrency contract (matching the simulator's sweep discipline): within
// one parallel region, a given block index is touched by exactly one
// worker; cross-block state (the byte totals, the shared TierStats) is the
// only contended data and is updated through atomics. A block changes tier
// only on the thread that owns it at that moment: its worker inside a
// region (streaming spill after the block is stored) or the main thread
// between regions (eviction), never concurrently with a reader of the same
// block.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "compression/compressor.hpp"
#include "runtime/spill_file.hpp"

namespace cqs::runtime {

/// Which codec/bound a block was last compressed with. `level` indexes the
/// simulator's error ladder the pass ran at: 0 = lossless, k > 0 =
/// ladder[k-1]. `codec` is the compression::codec_id of the codec that
/// actually produced the payload — under the adaptive policy a block can
/// be stored lossless (codec 0) even at a lossy ladder level, and the
/// decompressor is always selected by `codec`, never by `level`.
struct BlockMeta {
  std::uint8_t level = 0;
  std::uint8_t codec = 0;
};

/// Shared two-tier accounting, one instance per simulator, attached to
/// every rank's BlockStore. Byte counters move at every block mutation —
/// set and spill — so the peaks bound actual occupancy at mutation
/// granularity rather than being sampled at gate boundaries.
/// spill/fault counts are deterministic across worker counts (the set of
/// mutations is schedule-independent); readahead_hits depends on timing
/// when several workers race an advise against a read, so it is
/// report-only, never part of determinism pins.
struct TierStats {
  std::atomic<std::size_t> resident_bytes{0};
  std::atomic<std::size_t> spilled_bytes{0};
  std::atomic<std::size_t> peak_resident_bytes{0};
  std::atomic<std::size_t> peak_total_bytes{0};
  std::atomic<std::uint64_t> spill_events{0};
  std::atomic<std::uint64_t> fault_events{0};
  std::atomic<std::uint64_t> readahead_issued{0};
  std::atomic<std::uint64_t> readahead_hits{0};

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
  /// spill backend, folding any bytes it already holds into `stats`.
  /// `spill` may be null (accounting-only attachment, the spill-off path).
  void attach(TierStats* stats, SpillFile* spill);

  int num_blocks() const { return static_cast<int>(slots_.size()); }

  const BlockMeta& meta(int index) const {
    return meta_[static_cast<std::size_t>(index)];
  }

  /// The payload of a *resident* block. Throws std::logic_error for a
  /// spilled block — callers that may see either tier use payload_view.
  const Bytes& block(int index) const;

  /// The payload bytes of a block in either tier: a span over the resident
  /// Bytes, or a zero-copy view into the spill file (counted as a fault
  /// event; a readahead hit too when the block was advised first). The
  /// view is valid until the block is next written or spilled.
  ByteSpan payload_view(int index) const;

  /// Like payload_view, but touches no accounting: no fault event, no
  /// readahead-hit consumption, the advised flag stays armed. For
  /// serialization paths (checkpoint save) whose reads are bookkeeping,
  /// not simulation faults, and must not skew the report's telemetry.
  ByteSpan raw_view(int index) const;

  std::size_t block_size(int index) const;
  bool is_spilled(int index) const {
    const Slot& slot = slots_[static_cast<std::size_t>(index)];
    return std::atomic_ref(const_cast<std::uint8_t&>(slot.spilled))
               .load(std::memory_order_relaxed) != 0;
  }

  /// Replaces a block's payload, making it resident (a spilled block's
  /// segment is freed). Keeps tier accounting current. Safe to call
  /// concurrently for distinct indices.
  void set_block(int index, Bytes payload, BlockMeta meta);

  /// Moves a resident block to the spill tier and frees its in-memory
  /// payload. No-op when already spilled. Throws SpillError on write
  /// failure, leaving the block resident. Requires an attached SpillFile.
  void spill_block(int index);

  /// Readahead: asks the kernel to page a spilled block in ahead of its
  /// use and arms the hit detector. No-op for resident blocks.
  void advise(int index) const;

  /// Total compressed bytes across both tiers (the sum term of Eq. 8).
  std::size_t total_bytes() const {
    return resident_bytes() + spilled_bytes();
  }
  std::size_t resident_bytes() const {
    return std::atomic_ref(const_cast<std::size_t&>(resident_bytes_))
        .load(std::memory_order_relaxed);
  }
  std::size_t spilled_bytes() const {
    return std::atomic_ref(const_cast<std::size_t&>(spilled_bytes_))
        .load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// The payload while resident; empty once spilled.
    Bytes payload;
    /// Tier state (`spilled` + `segment`) is written only by the block's
    /// owning worker or the main thread between regions, but advise() may
    /// read it from *any* worker while a readahead window overlaps a
    /// sweep — so every write, and advise's reads, go through relaxed
    /// atomic_ref. A racing advise can see a mid-transition snapshot; the
    /// worst case is a WILLNEED hint over a stale range, which is
    /// harmless by madvise semantics.
    SpillSegment segment{};      ///< valid iff spilled
    std::uint8_t spilled = 0;
    /// Armed by advise(), disarmed by the first spilled read (the hit) or
    /// the next write. Crossed between threads, hence accessed through
    /// atomic_ref; mutable because reads account through it.
    mutable std::uint8_t advised = 0;
  };

  void account(std::ptrdiff_t resident_delta, std::ptrdiff_t spilled_delta);
  void release_segments();

  std::vector<Slot> slots_;
  std::vector<BlockMeta> meta_;
  /// Plain words updated through atomic_ref: distinct blocks are written
  /// concurrently by worker threads, and atomic members would cost the
  /// store its movability.
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  TierStats* stats_ = nullptr;
  SpillFile* spill_ = nullptr;
};

}  // namespace cqs::runtime
