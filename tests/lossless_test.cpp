// Unit tests for the lossless stack: canonical Huffman, LZ77, and the zx
// container (the Zstd stand-in).
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz77.hpp"
#include "lossless/zx.hpp"

namespace cqs::lossless {
namespace {

Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

/// The binary-heap length builder the two-queue build replaced, kept as
/// the reference it must match: pop the two lightest nodes by (weight,
/// order) — leaves ordered by symbol, internal nodes after every leaf in
/// creation order — and halve the counts while any code exceeds
/// kMaxCodeLength. Counts the halving rounds into `rescales`.
std::vector<std::uint8_t> heap_code_lengths(
    std::span<const std::uint64_t> counts, int& rescales) {
  struct Node {
    std::uint64_t weight;
    std::uint32_t order;
    int left;
    int right;
  };
  std::vector<std::uint64_t> working(counts.begin(), counts.end());
  std::vector<std::uint8_t> lengths(counts.size(), 0);
  while (true) {
    std::vector<Node> nodes;
    const auto heavier = [&nodes](int a, int b) {
      if (nodes[a].weight != nodes[b].weight) {
        return nodes[a].weight > nodes[b].weight;
      }
      return nodes[a].order > nodes[b].order;
    };
    std::priority_queue<int, std::vector<int>, decltype(heavier)> heap(
        heavier);
    for (std::uint32_t s = 0; s < working.size(); ++s) {
      if (working[s] == 0) continue;
      nodes.push_back({working[s], s, -1, -1});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
    if (heap.empty()) return lengths;
    if (heap.size() == 1) {
      lengths[nodes[heap.top()].order] = 1;
      return lengths;
    }
    auto order = static_cast<std::uint32_t>(working.size());
    while (heap.size() > 1) {
      const int a = heap.top();
      heap.pop();
      const int b = heap.top();
      heap.pop();
      nodes.push_back({nodes[a].weight + nodes[b].weight, order++, a, b});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
    std::vector<std::pair<int, int>> stack{{heap.top(), 0}};
    int max_len = 0;
    while (!stack.empty()) {
      const auto [idx, depth] = stack.back();
      stack.pop_back();
      if (nodes[idx].left < 0) {
        lengths[nodes[idx].order] = static_cast<std::uint8_t>(depth);
        max_len = std::max(max_len, depth);
      } else {
        stack.push_back({nodes[idx].left, depth + 1});
        stack.push_back({nodes[idx].right, depth + 1});
      }
    }
    if (max_len <= kMaxCodeLength) return lengths;
    ++rescales;
    for (auto& c : working) {
      if (c > 0) c = c / 2 + 1;
    }
  }
}

/// Count vectors of every shape the builder meets: ties, zeros and
/// single-symbol inputs, byte alphabets, sz-sized alphabets up to 2^16
/// symbols, and Fibonacci runs deep enough to need the rescale loop.
std::vector<std::uint64_t> random_counts(Rng& rng, int shape) {
  const std::size_t sizes[] = {1, 2, 3, 17, 256, 256, 256, 1000};
  std::size_t n = sizes[rng.next_below(std::size(sizes))];
  int kind = shape % 5;
  if (shape % 100 == 1) n = 4096;
  if (shape % 2000 == 0) {  // one full sz-sized alphabet of each kind
    n = std::size_t{1} << 16;
    kind = shape / 2000;
  }
  std::vector<std::uint64_t> counts(n, 0);
  switch (kind) {
    case 0:  // small values: many ties, some zeros
      for (auto& c : counts) c = rng.next_below(4);
      break;
    case 1:  // sparse: mostly zeros, a handful of used symbols
      for (int k = 0; k < 1 + static_cast<int>(rng.next_below(5)); ++k) {
        counts[rng.next_below(n)] = 1 + rng.next_below(1000);
      }
      break;
    case 2:  // skewed, like LZ77 token bytes
      for (auto& c : counts) {
        c = rng.next_below(2) ? 0 : (std::uint64_t{1} << rng.next_below(20));
      }
      break;
    case 3: {  // Fibonacci runs past kMaxCodeLength force rescaling
      std::uint64_t a = 1;
      std::uint64_t b = 1;
      for (std::size_t i = 0; i < std::min<std::size_t>(n, 60); ++i) {
        counts[rng.next_below(n)] += a;
        const std::uint64_t next = a + b;
        a = b;
        b = next;
      }
      break;
    }
    default:  // wide uniform weights
      for (auto& c : counts) c = rng.next_below(1u << 30);
      break;
  }
  return counts;
}

TEST(HuffmanTest, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> counts(256, 0);
  counts['a'] = 1000;
  counts['b'] = 500;
  counts['c'] = 100;
  counts['d'] = 1;
  const auto lengths = build_code_lengths(counts);
  double kraft = 0.0;
  for (auto l : lengths) {
    if (l > 0) kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
  EXPECT_LE(lengths['a'], lengths['d']);
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> counts(256, 0);
  counts[42] = 100;
  const auto lengths = build_code_lengths(counts);
  EXPECT_EQ(lengths[42], 1);
}

TEST(HuffmanTest, DepthLimitRespectedOnPathologicalCounts) {
  // Fibonacci-like counts force deep trees without limiting.
  std::vector<std::uint64_t> counts(64, 0);
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = build_code_lengths(counts);
  for (auto l : lengths) EXPECT_LE(l, kMaxCodeLength);
}

TEST(HuffmanTest, LengthsMatchHeapReference) {
  Rng rng(2024);
  int rescales = 0;
  for (int shape = 0; shape < 10000; ++shape) {
    const auto counts = random_counts(rng, shape);
    ASSERT_EQ(build_code_lengths(counts), heap_code_lengths(counts, rescales))
        << "shape " << shape << ", " << counts.size() << " symbols";
  }
  EXPECT_GT(rescales, 100) << "too few vectors exercised the rescale loop";
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> counts(300, 0);
  Rng rng(3);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    // Skewed distribution over a >256 alphabet (like SZ quant codes).
    const auto s = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(299, rng.next_below(16) * rng.next_below(20)));
    symbols.push_back(s);
    ++counts[s];
  }
  const auto encoder = HuffmanEncoder::from_counts(counts);
  Bytes buffer;
  encoder.write_table(buffer);
  {
    BitWriter writer(buffer);
    for (auto s : symbols) encoder.encode(writer, s);
  }
  std::size_t offset = 0;
  const auto decoder = HuffmanDecoder::read_table(buffer, offset, 300);
  BitReader reader(ByteSpan(buffer).subspan(offset));
  for (auto s : symbols) {
    ASSERT_EQ(decoder.decode(reader), s);
  }
}

TEST(Lz77Test, RoundTripText) {
  const Bytes input = to_bytes(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again");
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_LT(tokens.size(), input.size());
  const Bytes output = lz77_detokenize(tokens, input.size());
  EXPECT_EQ(output, input);
}

TEST(Lz77Test, RoundTripAllZeros) {
  const Bytes input(1 << 16, std::byte{0});
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_LT(tokens.size(), 64u);  // one giant overlapping match
  EXPECT_EQ(lz77_detokenize(tokens, input.size()), input);
}

TEST(Lz77Test, RoundTripIncompressibleRandom) {
  Rng rng(11);
  Bytes input(10000);
  for (auto& b : input) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_EQ(lz77_detokenize(tokens, input.size()), input);
}

TEST(Lz77Test, EmptyInput) {
  Bytes tokens;
  lz77_tokenize({}, tokens);
  EXPECT_EQ(lz77_detokenize(tokens, 0).size(), 0u);
}

TEST(Lz77Test, ShortInputsBelowMinMatch) {
  for (std::size_t n = 1; n < kMinMatch; ++n) {
    Bytes input(n, std::byte{7});
    Bytes tokens;
    lz77_tokenize(input, tokens);
    EXPECT_EQ(lz77_detokenize(tokens, n), input);
  }
}

TEST(Lz77Test, DetokenizeRejectsBadOffset) {
  Bytes tokens;
  put_varint(tokens, 0);   // no literals
  put_varint(tokens, 1);   // match length 4
  put_varint(tokens, 10);  // offset beyond output
  EXPECT_THROW(lz77_detokenize(tokens, 4), std::runtime_error);
}

/// 16 distinct literals, so every offset up to 16 has a source.
Bytes literal_prefix(Bytes& want) {
  Bytes tokens;
  put_varint(tokens, 16);
  for (int i = 0; i < 16; ++i) {
    tokens.push_back(static_cast<std::byte>(37 * i + 1));
    want.push_back(tokens.back());
  }
  return tokens;
}

/// Appends a match token to `tokens` and its bytes, copied one at a time
/// (the reference for every copy path), to `want`.
void add_match(Bytes& tokens, Bytes& want, std::size_t offset,
               std::size_t len) {
  put_varint(tokens, len - kMinMatch + 1);
  put_varint(tokens, offset);
  for (std::size_t i = 0; i < len; ++i) want.push_back(want[want.size() - offset]);
}

/// Decodes through both forms: the growing Bytes form and an exact span.
void expect_detokenizes_to(const Bytes& tokens, const Bytes& want) {
  EXPECT_EQ(lz77_detokenize(tokens, want.size()), want);
  Bytes exact(want.size());
  lz77_detokenize(tokens, std::span<std::byte>(exact));
  EXPECT_EQ(exact, want);
}

TEST(Lz77Test, DetokenizeCopyPathsMatchByteLoop) {
  // Offsets 1 (memset), 2..7 (periodic) and 8..16 (word copies), each at
  // every length 4..80, then a second match straight after it and three
  // trailing literals.
  for (std::size_t offset = 1; offset <= 16; ++offset) {
    for (std::size_t len = kMinMatch; len <= 80; ++len) {
      Bytes want;
      Bytes tokens = literal_prefix(want);
      add_match(tokens, want, offset, len);
      put_varint(tokens, 0);
      add_match(tokens, want, 17 - offset, 4 + len % 13);
      put_varint(tokens, 3);
      for (int i = 0; i < 3; ++i) {
        tokens.push_back(static_cast<std::byte>(200 + i));
        want.push_back(tokens.back());
      }
      put_varint(tokens, 0);
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(len));
      expect_detokenizes_to(tokens, want);
    }
  }
}

TEST(Lz77Test, DetokenizeRejectsMalformedStreams) {
  const auto stream = [](std::size_t literals, std::uint64_t len_code,
                         std::uint64_t offset, bool truncate_literals) {
    Bytes tokens;
    put_varint(tokens, literals);
    const std::size_t present = truncate_literals ? literals / 2 : literals;
    for (std::size_t i = 0; i < present; ++i) {
      tokens.push_back(static_cast<std::byte>(i));
    }
    if (truncate_literals) return tokens;
    put_varint(tokens, len_code);
    if (len_code == 0) return tokens;
    put_varint(tokens, offset);
    put_varint(tokens, 0);
    return tokens;
  };
  const struct {
    const char* what;
    Bytes tokens;
    std::size_t declared;
  } cases[] = {
      {"offset 0", stream(4, 1, 0, false), 8},
      {"offset past the produced bytes", stream(4, 1, 5, false), 8},
      {"literal overrun", stream(10, 0, 0, true), 10},
      {"match past the declared size", stream(4, 5, 1, false), 8},
      {"literals past the declared size", stream(10, 0, 0, false), 5},
      {"stream shorter than declared", stream(4, 0, 0, false), 8},
      {"wrapping length code", stream(4, ~std::uint64_t{0}, 1, false), 8},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_THROW(lz77_detokenize(c.tokens, c.declared), std::runtime_error);
    Bytes exact(c.declared);
    EXPECT_THROW(lz77_detokenize(c.tokens, std::span<std::byte>(exact)),
                 std::runtime_error);
  }
}

/// Bytes whose doubles repeat a small palette: long chains, many matches.
Bytes palette_bytes(Rng& rng, std::size_t n) {
  const double palette[4] = {0.0, 0.125, -0.375, 0.7071067811865476};
  std::vector<double> values(n / 8);
  for (auto& v : values) v = palette[rng.next_below(4)];
  Bytes out(n, std::byte{0});
  std::memcpy(out.data(), values.data(), values.size() * 8);
  return out;
}

TEST(Lz77Test, StampWrapMatchesFreshScratch) {
  Rng rng(41);
  Lz77Scratch scratch;
  Bytes tokens;
  lz77_tokenize(palette_bytes(rng, 8192), tokens, {}, scratch);
  // 64 bytes fit exactly below 2^32; every later pass must restart the
  // stamp (with one zero-fill) and still match a fresh scratch.
  scratch.stamp = std::numeric_limits<std::uint32_t>::max() - 64;
  for (const std::size_t n : {64, 4096, 50, 100000, 8}) {
    const Bytes input = palette_bytes(rng, n);
    Bytes want;
    Lz77Scratch fresh;
    lz77_tokenize(input, want, {}, fresh);
    Bytes got;
    lz77_tokenize(input, got, {}, scratch);
    EXPECT_EQ(got, want) << n << " bytes";
    EXPECT_EQ(lz77_detokenize(got, input.size()), input);
  }
  EXPECT_LT(scratch.stamp, 200000u) << "the stamp never restarted";

  scratch.stamp = std::numeric_limits<std::uint32_t>::max() - 100;
  const Bytes input = palette_bytes(rng, 4096);
  Bytes want;
  Lz77Scratch fresh;
  lz77_tokenize(input, want, {}, fresh);
  Bytes got;
  lz77_tokenize(input, got, {}, scratch);
  EXPECT_EQ(got, want);
}

/// `n` bytes of one of four shapes: "dense" amplitudes of one magnitude
/// scale, "sparse" zeros with a nonzero double every 64th slot,
/// "periodic" five doubles repeated, and "random" bytes.
Bytes shaped_bytes(const std::string& shape, std::size_t n, Rng& rng) {
  std::vector<double> values((n + 7) / 8, 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (shape == "dense") {
      values[i] = (rng.next_double() - 0.5) / 64.0;
    } else if (shape == "sparse") {
      if (i % 64 == 0) values[i] = rng.next_double();
    } else if (shape == "periodic") {
      values[i] = 0.125 * static_cast<double>(i % 5) - 0.25;
    }
  }
  Bytes out(n);
  if (shape == "random") {
    for (std::byte& b : out) b = static_cast<std::byte>(rng.next_below(256));
  } else if (n > 0) {
    std::memcpy(out.data(), values.data(), n);
  }
  return out;
}

TEST(Lz77Test, ShortLinksGiveTheWideLinksTokens) {
  // 16-bit links walk the chains 32-bit links walk, so the tokens match,
  // up to the largest input they cover; past it a short-link scratch
  // falls back to 32-bit links. Both scratches are reused across inputs,
  // so stale links from earlier passes must stay unreachable too.
  Rng rng(57);
  Lz77Scratch wide;
  Lz77Scratch narrow;
  narrow.short_links = true;
  for (const std::size_t n :
       {1, 8, 4096, 65535, 65536, 1, 65536, 65537}) {
    for (const char* shape : {"dense", "sparse", "periodic", "random"}) {
      const Bytes input = shaped_bytes(shape, n, rng);
      Bytes want;
      lz77_tokenize(input, want, {}, wide);
      Bytes got;
      lz77_tokenize(input, got, {}, narrow);
      EXPECT_EQ(got, want) << shape << ", " << n << " bytes";
      EXPECT_EQ(lz77_detokenize(got, input.size()), input);
    }
    if (n <= kMaxShortLinkBytes) {
      // 2 link bytes per input byte, against 4.
      EXPECT_TRUE(narrow.prev.empty()) << n;
      EXPECT_EQ(narrow.bytes() - kLz77HashEntries * 4,
                2 * narrow.prev_near.capacity());
      EXPECT_TRUE(wide.prev_near.empty()) << n;
    }
  }
  EXPECT_EQ(narrow.prev_near.size(), kMaxShortLinkBytes);
  EXPECT_EQ(narrow.prev.size(), kMaxShortLinkBytes + 1);
}

TEST(Lz77Test, RejectsInputsPastThe32BitPositionLimit) {
  // Address space only: the tokenizer must refuse before reading a byte.
  const std::size_t n = kMaxTokenizeBytes + 1;
  void* region = mmap(nullptr, n, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  Bytes tokens;
  EXPECT_THROW(
      lz77_tokenize(ByteSpan(static_cast<const std::byte*>(region), n),
                    tokens),
      std::length_error);
  EXPECT_TRUE(tokens.empty());
  munmap(region, n);
}

TEST(HuffmanTest, BulkCodersMatchPerSymbolCoders) {
  // Fibonacci weights over a byte alphabet give codes longer than
  // kPrimaryBits, which the decode fast loop hands to decode().
  std::vector<std::uint64_t> weights(256, 1);
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::size_t i = 0; i < 30; ++i) {
    weights[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  std::uint64_t total = 0;
  for (auto w : weights) total += w;
  Rng rng(9);
  Bytes symbols;
  std::vector<std::uint64_t> counts(256, 0);
  for (int i = 0; i < 30000; ++i) {
    std::uint64_t r = rng.next_below(total);
    std::uint32_t s = 0;
    while (r >= weights[s]) r -= weights[s++];
    symbols.push_back(static_cast<std::byte>(s));
    ++counts[s];
  }
  const auto encoder = HuffmanEncoder::from_counts(counts);
  ASSERT_GT(*std::max_element(encoder.lengths().begin(),
                              encoder.lengths().end()),
            kPrimaryBits)
      << "fixture no longer exercises the long-code path";

  Bytes per_symbol;
  {
    BitWriter writer(per_symbol);
    for (std::byte s : symbols) {
      encoder.encode(writer, static_cast<std::uint8_t>(s));
    }
  }
  Bytes bulk{std::byte{0xAA}};  // appends after existing bytes
  encoder.encode_bytes(symbols, encoder.encoded_bits(counts), bulk);
  ASSERT_EQ(ByteSpan(bulk).subspan(1).size(), per_symbol.size());
  EXPECT_TRUE(std::equal(per_symbol.begin(), per_symbol.end(),
                         bulk.begin() + 1));
  EXPECT_THROW(encoder.encode_bytes(symbols, encoder.encoded_bits(counts) - 9,
                                    bulk),
               std::logic_error);

  Bytes table;
  encoder.write_table(table);
  std::size_t offset = 0;
  const auto decoder = HuffmanDecoder::read_table(table, offset, 256);
  Bytes decoded(symbols.size());
  decoder.decode_bytes(per_symbol, decoded);
  EXPECT_EQ(decoded, symbols);
  BitReader reader(per_symbol);
  for (std::byte s : symbols) {
    ASSERT_EQ(decoder.decode(reader), static_cast<std::uint32_t>(s));
  }

  // Truncated payloads throw std::out_of_range, as per-symbol decode does.
  for (const std::size_t keep :
       {per_symbol.size() - 1, per_symbol.size() / 2, std::size_t{9},
        std::size_t{0}}) {
    EXPECT_THROW(
        decoder.decode_bytes(ByteSpan(per_symbol).first(keep), decoded),
        std::out_of_range)
        << keep << " bytes kept";
  }
}

TEST(ZxTest, RoundTripVariousInputs) {
  Rng rng(23);
  std::vector<Bytes> inputs;
  inputs.push_back({});
  inputs.push_back(to_bytes("a"));
  inputs.push_back(to_bytes(std::string(100000, 'z')));
  Bytes random(50000);
  for (auto& b : random) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  inputs.push_back(random);
  Bytes structured;
  for (int i = 0; i < 10000; ++i) {
    structured.push_back(static_cast<std::byte>(i % 17));
  }
  inputs.push_back(structured);

  for (const auto& input : inputs) {
    const Bytes compressed = zx_compress(input);
    EXPECT_EQ(zx_original_size(compressed), input.size());
    EXPECT_EQ(zx_decompress(compressed), input);
  }
}

TEST(ZxTest, ZerosCompressMassively) {
  const Bytes zeros(1 << 20, std::byte{0});
  const Bytes compressed = zx_compress(zeros);
  EXPECT_LT(compressed.size(), zeros.size() / 1000);
}

TEST(ZxTest, NeverExpandsBeyondHeader) {
  Rng rng(5);
  Bytes random(4096);
  for (auto& b : random) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  const Bytes compressed = zx_compress(random);
  EXPECT_LE(compressed.size(), random.size() + 12);
}

TEST(ZxTest, RejectsCorruptMagic) {
  Bytes bogus = to_bytes("not a container");
  EXPECT_THROW(zx_decompress(bogus), std::runtime_error);
  EXPECT_THROW(zx_original_size(bogus), std::runtime_error);
}

TEST(ZxTest, StateVectorLikeDataRoundTrip) {
  // Doubles with repeated values (amplitudes sharing values, Section 3.4).
  std::vector<double> values(8192);
  Rng rng(31);
  const double palette[4] = {0.0, 0.125, -0.125, 0.7071067811865476};
  for (auto& v : values) v = palette[rng.next_below(4)];
  ByteSpan input = as_bytes_span<double>(values);
  const Bytes compressed = zx_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  const Bytes output = zx_decompress(compressed);
  ASSERT_EQ(output.size(), input.size());
  EXPECT_EQ(0, std::memcmp(output.data(), input.data(), input.size()));
}

}  // namespace
}  // namespace cqs::lossless
