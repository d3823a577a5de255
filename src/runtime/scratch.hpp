// ScratchArena: the MCDRAM stand-in (Section 3.2). The paper decompresses
// at most two blocks per rank into pre-allocated high-bandwidth memory; we
// pre-allocate two aligned block-sized double buffers per worker thread so
// the hot loop never allocates. Each worker additionally owns a
// CodecScratch — the pooled codec working state (LZ77 hash chains, entropy
// staging buffers, quantization vectors) that makes steady-state codec
// calls allocation-free; its bytes count toward the Eq. 8 footprint next
// to the block buffers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "compression/codec_scratch.hpp"

namespace cqs::runtime {

class ScratchArena {
 public:
  /// `workers` independent slots, each with two buffers of
  /// `doubles_per_block` doubles (Vector_x and Vector_y of Figure 2) plus
  /// one CodecScratch.
  ScratchArena(std::size_t workers, std::size_t doubles_per_block)
      : doubles_per_block_(doubles_per_block),
        storage_(workers * 2 * doubles_per_block),
        codec_(workers) {}

  std::span<double> vector_x(std::size_t worker) {
    return {storage_.data() + worker * 2 * doubles_per_block_,
            doubles_per_block_};
  }

  std::span<double> vector_y(std::size_t worker) {
    return {storage_.data() + (worker * 2 + 1) * doubles_per_block_,
            doubles_per_block_};
  }

  /// Pooled codec working state of one worker.
  compression::CodecScratch& codec_scratch(std::size_t worker) {
    return codec_[worker];
  }

  /// Bytes held by the block buffers — the "2 * (2^{n+4} / (r * nb))" term
  /// of Eq. 8, summed over workers.
  std::size_t block_buffer_bytes() const {
    return storage_.size() * sizeof(double);
  }

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
  std::vector<double> storage_;
  std::vector<compression::CodecScratch> codec_;
};

}  // namespace cqs::runtime
