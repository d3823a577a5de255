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
#include <cstdlib>
#include <limits>
#include <memory>
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

/// Entries of the head table: one per 18-bit hash, 1 MiB in all.
inline constexpr std::size_t kLz77HashEntries = std::size_t{1} << 18;

/// Largest input that 16-bit chain links cover (see Lz77Scratch): every
/// distance between two positions of it fits in 16 bits.
inline constexpr std::size_t kMaxShortLinkBytes = std::size_t{1} << 16;

/// Reusable hash-chain state: 1 MiB of head table plus chain links, 4 bytes
/// per input byte, or 2 with `short_links` set and an input of at most
/// kMaxShortLinkBytes. A pass stores position p as `base + p`, where `base`
/// is the value `stamp` held when the pass began, and advances `stamp` past
/// every value it wrote. A head entry counts only when it is >= the pass's
/// base, so entries from earlier passes read as empty and reuse costs O(1)
/// instead of a zero-fill. When the next pass would not fit below 2^32, the
/// table is zero-filled once and `stamp` restarts at 1. The chain-link
/// tables grow monotonically; stale links are unreachable because every
/// reachable link was written during the current pass. Both link widths
/// walk the same chains, so they give identical tokens.
struct Lz77Scratch {
  struct Free {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };
  /// hash -> base + most recent position, kLz77HashEntries entries. The
  /// first pass allocates it zeroed with calloc, so no page of it is
  /// written before a pass touches one of its buckets: filling 1 MiB of
  /// fresh pages costs more than the rest of a simulator's construction.
  std::unique_ptr<std::uint32_t[], Free> head;
  std::vector<std::uint32_t> prev;  // position -> head entry it displaced
  /// With short links: position -> distance back to the position it
  /// displaced from its bucket, 0 when the bucket held none this pass.
  std::vector<std::uint16_t> prev_near;
  std::uint32_t stamp = 1;  // base of the next pass
  /// Link inputs of at most kMaxShortLinkBytes through prev_near.
  bool short_links = false;

  /// Bytes held by the scratch (Eq. 8 accounting).
  std::size_t bytes() const {
    return ((head ? kLz77HashEntries : 0) + prev.capacity()) *
               sizeof(std::uint32_t) +
           prev_near.capacity() * sizeof(std::uint16_t);
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
