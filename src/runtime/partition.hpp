// Amplitude-index partitioning (Section 3.3, Figure 3). The global index
// of an amplitude splits into three segments:
//
//   [ rank bits | block bits | offset bits ]
//    high                          low
//
// A gate on qubit q is routed by which segment q falls into:
//   offset segment  -> both amplitudes of every pair live in one block;
//   block segment   -> pairs span two blocks of the same rank;
//   rank segment    -> pairs span two ranks and blocks must be exchanged.
// Control qubits use the same segmentation to skip amplitudes, whole
// blocks, or whole ranks when the control bit is 0.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace cqs::runtime {

struct Partition {
  int num_qubits = 0;
  int rank_bits = 0;    ///< log2(ranks)
  int block_bits = 0;   ///< log2(blocks per rank)
  int offset_bits = 0;  ///< log2(amplitudes per block)

  int num_ranks() const { return 1 << rank_bits; }
  int blocks_per_rank() const { return 1 << block_bits; }
  std::uint64_t amplitudes_per_block() const {
    return std::uint64_t{1} << offset_bits;
  }
  std::uint64_t total_amplitudes() const {
    return std::uint64_t{1} << num_qubits;
  }
  /// Doubles per block (re/im interleaved).
  std::size_t doubles_per_block() const {
    return static_cast<std::size_t>(amplitudes_per_block()) * 2;
  }
  std::size_t bytes_per_block() const {
    return doubles_per_block() * sizeof(double);
  }

  enum class Segment { kOffset, kBlock, kRank };

  Segment segment_of(int qubit) const {
    if (qubit < offset_bits) return Segment::kOffset;
    if (qubit < offset_bits + block_bits) return Segment::kBlock;
    return Segment::kRank;
  }

  /// Bit position of `qubit` within its segment's local index.
  int local_bit(int qubit) const {
    switch (segment_of(qubit)) {
      case Segment::kOffset: return qubit;
      case Segment::kBlock: return qubit - offset_bits;
      case Segment::kRank: return qubit - offset_bits - block_bits;
    }
    return 0;
  }

  /// Global amplitude index from (rank, block, offset).
  std::uint64_t global_index(int rank, int block,
                             std::uint64_t offset) const {
    return (static_cast<std::uint64_t>(rank) << (offset_bits + block_bits)) |
           (static_cast<std::uint64_t>(block) << offset_bits) | offset;
  }
};

/// Validates and builds a partition. Ranks and blocks/rank must be powers
/// of two, and the block must hold at least one amplitude.
inline Partition make_partition(int num_qubits, int num_ranks,
                                int blocks_per_rank) {
  if (num_qubits < 1 || num_qubits > 40) {
    throw std::invalid_argument("partition: qubits must be in [1, 40]");
  }
  if (num_ranks < 1 || !std::has_single_bit(unsigned(num_ranks))) {
    throw std::invalid_argument("partition: ranks must be a power of two");
  }
  if (blocks_per_rank < 1 ||
      !std::has_single_bit(unsigned(blocks_per_rank))) {
    throw std::invalid_argument(
        "partition: blocks per rank must be a power of two");
  }
  Partition p;
  p.num_qubits = num_qubits;
  p.rank_bits = std::countr_zero(unsigned(num_ranks));
  p.block_bits = std::countr_zero(unsigned(blocks_per_rank));
  p.offset_bits = num_qubits - p.rank_bits - p.block_bits;
  if (p.offset_bits < 1) {
    throw std::invalid_argument(
        "partition: rank * block count exceeds state size");
  }
  return p;
}

}  // namespace cqs::runtime
