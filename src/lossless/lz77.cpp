#include "lossless/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

namespace cqs::lossless {
namespace {

// Hash 6 bytes, not the minimum match length of 4: double-precision
// payloads share 4-byte prefixes (sign/exponent/top mantissa) so widely
// that 4-byte buckets degenerate into thousands of short false
// candidates; 6 bytes keeps buckets selective. Only matches of at least
// kMinEmit bytes are emitted (shorter ones barely cover token overhead).
inline std::uint32_t hash6(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  v &= 0xffffffffffffull;  // low 6 bytes
  return static_cast<std::uint32_t>((v * 0x9e3779b185ebca87ull) >> 46);
}

constexpr std::size_t kMinEmit = 6;
constexpr std::size_t kHashBytes = 8;  // hash6 reads 8 bytes

/// Length of the common prefix of [a, limit) and [b, limit-relative).
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                const std::byte* limit) {
  const std::byte* start = a;
  while (a + 8 <= limit) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a, 8);
    std::memcpy(&vb, b, 8);
    if (va != vb) {
      const std::uint64_t diff = va ^ vb;
      return static_cast<std::size_t>(a - start) +
             (std::countr_zero(diff) >> 3);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

/// Opens a tokenize pass of `n` bytes over `scratch` and returns its base:
/// every head entry from earlier passes is below it. Advances the stamp
/// past this pass's values, restarting it (one full zero-fill) when they
/// would not fit below 2^32.
std::uint32_t begin_pass(Lz77Scratch& scratch, std::size_t n) {
  constexpr std::uint32_t kMaxStamp = std::numeric_limits<std::uint32_t>::max();
  if (!scratch.head) {
    scratch.head.reset(static_cast<std::uint32_t*>(
        std::calloc(kLz77HashEntries, sizeof(std::uint32_t))));
    if (!scratch.head) throw std::bad_alloc();
  }
  if (scratch.stamp == 0 || n > kMaxStamp - scratch.stamp) {
    std::fill_n(scratch.head.get(), kLz77HashEntries, 0);
    scratch.stamp = 1;
  }
  const std::uint32_t base = scratch.stamp;
  scratch.stamp += static_cast<std::uint32_t>(n);
  return base;
}

/// Chain links as the head entries they displaced: 4 bytes per position.
struct WideLinks {
  std::uint32_t* prev;
  std::uint32_t base;

  void link(std::size_t p, std::uint32_t displaced) const {
    prev[p] = displaced;
  }
  /// The entry chained after `entry`, the pass's entry for its position;
  /// below the base at the chain's end.
  std::uint32_t next(std::uint32_t entry) const { return prev[entry - base]; }
};

/// Chain links as distances back, 2 bytes per position: an input of at
/// most kMaxShortLinkBytes puts every position within 2^16 - 1 of every
/// other, and 0 (no position is 0 back) ends the chain.
struct NearLinks {
  std::uint16_t* prev;
  std::uint32_t base;

  void link(std::size_t p, std::uint32_t displaced) const {
    prev[p] = displaced >= base ? static_cast<std::uint16_t>(
                                      base + static_cast<std::uint32_t>(p) -
                                      displaced)
                                : 0;
  }
  /// As WideLinks::next; 0 is below every base.
  std::uint32_t next(std::uint32_t entry) const {
    const std::uint16_t back = prev[entry - base];
    return back != 0 ? entry - back : 0;
  }
};

/// The greedy hash-chain pass over `input` for a pass opened at `stamp`,
/// with chain links in `links`.
template <class Links>
void tokenize(ByteSpan input, Bytes& out, const Lz77Config& config,
              std::uint32_t* const head, std::uint32_t stamp, Links links) {
  const std::size_t n = input.size();
  const std::byte* base = input.data();
  // Chains position `p` into bucket `h`.
  const auto insert = [&](std::uint32_t h, std::size_t p) {
    links.link(p, head[h]);
    head[h] = stamp + static_cast<std::uint32_t>(p);
  };

  std::size_t literal_start = 0;
  std::size_t pos = 0;
  while (pos + kHashBytes <= n) {
    const std::uint32_t h = hash6(base + pos);
    std::uint32_t candidate = head[h];
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    int chain = config.max_chain;
    while (candidate >= stamp && chain-- > 0) {
      const std::size_t cand_pos = candidate - stamp;
      const std::size_t len =
          match_length(base + pos, base + cand_pos, base + n);
      if (len > best_len) {
        best_len = len;
        best_offset = pos - cand_pos;
        if (len >= config.good_match || len >= config.max_match) break;
      }
      candidate = links.next(candidate);
    }

    if (best_len >= kMinEmit) {
      best_len = std::min(best_len, config.max_match);
      // Emit pending literals + this match.
      put_varint(out, pos - literal_start);
      out.insert(out.end(), base + literal_start, base + pos);
      put_varint(out, best_len - kMinMatch + 1);
      put_varint(out, best_offset);

      // Index the covered positions (sparsely for long matches to stay fast).
      const std::size_t end = pos + best_len;
      const std::size_t step = best_len > 512 ? 509 : 1;  // prime stride
      for (std::size_t i = pos; i + kHashBytes <= n && i < end; i += step) {
        insert(hash6(base + i), i);
      }
      pos = end;
      literal_start = pos;
    } else {
      insert(h, pos);
      ++pos;
    }
  }
  // Trailing literals + terminator.
  put_varint(out, n - literal_start);
  out.insert(out.end(), base + literal_start, base + n);
  put_varint(out, 0);
}

// ---- detokenize -----------------------------------------------------------

/// Copies a match whose source starts `offset` >= 8 bytes back, 8 bytes at
/// a time: each word's source was written before the word is stored.
inline void copy_far(std::byte* dst, std::size_t offset, std::size_t len) {
  const std::byte* src = dst - offset;
  if (offset >= len) {
    std::memcpy(dst, src, len);
    return;
  }
  for (; len >= 8; len -= 8, dst += 8, src += 8) std::memcpy(dst, src, 8);
  std::memcpy(dst, src, len);  // len < 8 <= offset: disjoint
}

/// Copies a match with a 2..7-byte period: the first bytes one by one, then
/// words from P = the smallest multiple of `offset` that is >= 8 back,
/// where the run already repeats and a word never overlaps its source.
inline void copy_periodic(std::byte* dst, std::size_t offset,
                          std::size_t len) {
  const std::size_t period = (8 + offset - 1) / offset * offset;
  const std::byte* src = dst - offset;
  std::size_t i = 0;
  for (; i < len && i < period; ++i) dst[i] = src[i];
  for (; i + 8 <= len; i += 8) std::memcpy(dst + i, dst + i - period, 8);
  if (i < len) std::memcpy(dst + i, dst + i - period, len - i);
}

/// Decodes `tokens` into `out[0, expected)`. The first `room` bytes of `out`
/// are writable; when a token needs more, `grow` (set only on the growing
/// path) is resized geometrically, never past `expected`, and `out`
/// follows it.
void detokenize(ByteSpan tokens, std::size_t expected, std::byte* out,
                std::size_t room, Bytes* grow) {
  std::size_t produced = 0;
  // Makes room for `len` more output bytes or rejects the token.
  const auto make_room = [&](std::uint64_t len) {
    if (len > expected - produced) {
      throw std::runtime_error("cqs: lz77 output exceeds the declared size");
    }
    if (len > room - produced) {
      grow->resize(std::min(
          expected, std::max<std::size_t>(produced + len, 2 * room)));
      out = grow->data();
      room = grow->size();
    }
  };

  std::size_t offset = 0;
  while (true) {
    const std::uint64_t lit_len = get_varint(tokens, offset);
    if (lit_len > tokens.size() - offset) {
      throw std::runtime_error("cqs: lz77 literal overrun");
    }
    make_room(lit_len);
    // Short runs with 16 bytes of slack on both sides take one fixed-size
    // copy. Bytes past the run land beyond `produced`, where nothing reads
    // before a later token rewrites them (every match reads below it).
    if (lit_len <= 16 && tokens.size() - offset >= 16 &&
        room - produced >= 16) {
      std::memcpy(out + produced, tokens.data() + offset, 16);
    } else if (lit_len > 0) {
      std::memcpy(out + produced, tokens.data() + offset, lit_len);
    }
    offset += lit_len;
    produced += lit_len;

    const std::uint64_t len_code = get_varint(tokens, offset);
    if (len_code == 0) break;
    const std::uint64_t match_offset = get_varint(tokens, offset);
    if (match_offset == 0 || match_offset > produced) {
      throw std::runtime_error("cqs: lz77 bad match offset");
    }
    const std::uint64_t match_len = len_code - 1 + kMinMatch;
    if (match_len < len_code) {  // wrapped: longer than any output
      throw std::runtime_error("cqs: lz77 output exceeds the declared size");
    }
    make_room(match_len);
    std::byte* dst = out + produced;
    // Overlapping matches (offset < len) replicate runs, so no memmove.
    if (match_offset >= 16 && match_len <= 16 && room - produced >= 16) {
      std::memcpy(dst, dst - match_offset, 16);  // disjoint, as above
    } else if (match_offset == 1) {
      std::memset(dst, static_cast<int>(dst[-1]), match_len);
    } else if (match_offset >= 8) {
      copy_far(dst, match_offset, match_len);
    } else {
      copy_periodic(dst, match_offset, match_len);
    }
    produced += match_len;
  }
  if (produced != expected) {
    throw std::runtime_error("cqs: lz77 output shorter than the declared size");
  }
}

}  // namespace

void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config,
                   Lz77Scratch& scratch) {
  const std::size_t n = input.size();
  if (n > kMaxTokenizeBytes) {
    throw std::length_error("cqs: lz77 input exceeds 32-bit positions");
  }
  const std::uint32_t stamp = begin_pass(scratch, n);
  if (scratch.short_links && n <= kMaxShortLinkBytes) {
    if (scratch.prev_near.size() < n) scratch.prev_near.resize(n);
    tokenize(input, out, config, scratch.head.get(), stamp,
             NearLinks{scratch.prev_near.data(), stamp});
  } else {
    if (scratch.prev.size() < n) scratch.prev.resize(n);
    tokenize(input, out, config, scratch.head.get(), stamp,
             WideLinks{scratch.prev.data(), stamp});
  }
}

void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config) {
  Lz77Scratch scratch;
  lz77_tokenize(input, out, config, scratch);
}

void lz77_detokenize(ByteSpan tokens, std::span<std::byte> out) {
  detokenize(tokens, out.size(), out.data(), out.size(), nullptr);
}

void lz77_detokenize(ByteSpan tokens, std::size_t expected_size, Bytes& out) {
  // Start from storage the caller already holds (or the token count), never
  // from the claim alone; detokenize widens it as tokens arrive.
  out.resize(std::min(expected_size, std::max(out.capacity(), tokens.size())));
  detokenize(tokens, expected_size, out.data(), out.size(), &out);
  out.resize(expected_size);
}

Bytes lz77_detokenize(ByteSpan tokens, std::size_t expected_size) {
  Bytes out;
  lz77_detokenize(tokens, expected_size, out);
  return out;
}

}  // namespace cqs::lossless
