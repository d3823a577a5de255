// ScratchArena: the MCDRAM stand-in (Section 3.2). The paper decompresses
// at most two blocks per rank into pre-allocated high-bandwidth memory; we
// pre-allocate block-sized double buffers per worker thread so the hot
// loop never allocates: two (Vector_x and Vector_y of Figure 2), or four
// where the simulator merges runs into sweeps over four-block cells. Each
// worker additionally owns a CodecScratch — the pooled codec working state
// (LZ77 hash chains, entropy staging buffers, quantization vectors) that
// makes steady-state codec calls allocation-free; its bytes count toward
// the Eq. 8 footprint next to the block buffers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "compression/codec_scratch.hpp"

namespace cqs::runtime {

class ScratchArena {
 public:
  /// `workers` independent slots, each with `buffers` buffers of
  /// `doubles_per_block` doubles plus one CodecScratch. The buffers are
  /// not zero-filled: every user decodes a block into one before reading
  /// it. Four buffers pay for their extra two with 16-bit LZ77 chain links
  /// (Lz77Scratch::short_links, identical tokens), which take 2 bytes per
  /// input byte instead of 4: for blocks up to 64 KiB, a worker's scratch
  /// does not grow.
  ScratchArena(std::size_t workers, std::size_t doubles_per_block,
               std::size_t buffers = 2)
      : doubles_per_block_(doubles_per_block),
        buffers_(buffers),
        doubles_(workers * buffers * doubles_per_block),
        storage_(std::make_unique_for_overwrite<double[]>(doubles_)),
        codec_(workers) {
    for (auto& scratch : codec_) scratch.zx.lz.short_links = buffers > 2;
  }

  /// Buffers per worker.
  std::size_t buffers() const { return buffers_; }

  /// Buffer `index` (< buffers()) of `worker`.
  std::span<double> block_buffer(std::size_t worker, std::size_t index) {
    return {storage_.get() + (worker * buffers_ + index) * doubles_per_block_,
            doubles_per_block_};
  }

  /// Pooled codec working state of one worker.
  compression::CodecScratch& codec_scratch(std::size_t worker) {
    return codec_[worker];
  }

  /// Bytes held by the block buffers — the "2 * (2^{n+4} / (r * nb))" term
  /// of Eq. 8 (twice that with four buffers), summed over workers.
  std::size_t block_buffer_bytes() const { return doubles_ * sizeof(double); }

  /// Bytes held by the per-worker codec pools (their steady-state
  /// high-water marks).
  std::size_t codec_scratch_bytes() const {
    std::size_t total = 0;
    for (const auto& scratch : codec_) total += scratch.bytes();
    return total;
  }

  /// Total scratch footprint charged to Eq. 8.
  std::size_t bytes() const {
    return block_buffer_bytes() + codec_scratch_bytes();
  }

 private:
  std::size_t doubles_per_block_;
  std::size_t buffers_;
  std::size_t doubles_;
  std::unique_ptr<double[]> storage_;
  std::vector<compression::CodecScratch> codec_;
};

}  // namespace cqs::runtime
