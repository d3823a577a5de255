// Greedy hash-chain LZ77 tokenizer. Output token stream format (all
// varints little-endian LEB128):
//
//   repeat:
//     lit_len   varint
//     literals  lit_len raw bytes
//     match_len varint   (0 terminates the stream; otherwise length-4)
//     offset    varint   (>= 1, distance back from current position)
//
// Long runs (the all-zero early state vector) collapse to a single
// offset-1 match, which is what gives the lossless stage its high ratio at
// the start of a simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::lossless {

inline constexpr std::size_t kMinMatch = 4;

struct Lz77Config {
  int max_chain = 16;        // positions examined per match attempt
  std::size_t max_match = 1 << 20;  // cap so pathological inputs stay O(n)
  /// Early exit: a match at least this long is accepted without walking
  /// the rest of the chain. Keeps highly repetitive inputs (hash buckets
  /// with thousands of candidates) from degrading to O(n * max_chain).
  std::size_t good_match = 32;
};

/// Largest input lz77_tokenize accepts. Chain positions are 32-bit
/// (stored as stamp + position, see Lz77Scratch), so longer inputs are
/// rejected with std::length_error instead of wrapping; zx stores them raw.
inline constexpr std::size_t kMaxTokenizeBytes =
    std::numeric_limits<std::uint32_t>::max() - 1;

/// Reusable hash-chain state: 1 MiB of head table plus 4 bytes per input
/// byte of chain links. A pass stores position p as `base + p`, where
/// `base` is the value `stamp` held when the pass began, and advances
/// `stamp` past every value it wrote. A head entry counts only when it is
/// >= the pass's base, so entries from earlier passes read as empty and
/// reuse costs O(1) instead of a zero-fill. When the next pass would not
/// fit below 2^32, the table is zero-filled once and `stamp` restarts at 1.
/// The chain-link table grows monotonically; stale links are unreachable
/// because every reachable link was written during the current pass.
struct Lz77Scratch {
  std::vector<std::uint32_t> head;  // hash -> base + most recent position
  std::vector<std::uint32_t> prev;  // position -> head entry it displaced
  std::uint32_t stamp = 1;          // base of the next pass

  /// Bytes held by the scratch (Eq. 8 accounting).
  std::size_t bytes() const {
    return (head.capacity() + prev.capacity()) * sizeof(std::uint32_t);
  }
};

/// Tokenizes `input`; appends the token stream to `out`. Throws
/// std::length_error when `input` exceeds kMaxTokenizeBytes.
void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config = {});

/// Scratch-pooled variant: identical token stream, zero allocations once
/// `scratch` capacities are warm.
void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config,
                   Lz77Scratch& scratch);

/// Reverses lz77_tokenize into `out`, which must be exactly the decoded
/// size: the caller has checked the size claim, so the bytes are written
/// in place. Throws std::runtime_error on a malformed stream, including
/// one that decodes to more or fewer than out.size() bytes.
void lz77_detokenize(ByteSpan tokens, std::span<std::byte> out);

/// Reverses lz77_tokenize, replacing the contents of `out` (capacity
/// reused). `expected_size` is an unchecked claim: it caps the output,
/// but the buffer grows only as tokens produce bytes, so a lying claim
/// never becomes committed memory. Throws std::runtime_error on a
/// malformed stream or one that does not decode to exactly
/// `expected_size` bytes.
void lz77_detokenize(ByteSpan tokens, std::size_t expected_size, Bytes& out);

/// Value-returning form of the growing variant.
Bytes lz77_detokenize(ByteSpan tokens, std::size_t expected_size);

}  // namespace cqs::lossless
