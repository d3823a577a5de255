// Canonical Huffman coding over a runtime-sized alphabet (up to 2^16
// symbols). Used twice in the stack: on LZ77 token bytes inside the zx
// lossless codec, and on quantization codes inside the SZ-like compressor —
// mirroring the "Huffman encoding + Zstd" stages of the paper's Solution A/B.
//
// Both coder objects are reusable: build()/parse_table() refill internal
// storage in place, so a long-lived encoder/decoder (e.g. one per worker
// inside a CodecScratch) reaches a steady state with zero allocations per
// (de)compression pass. Decoding is table-driven: an 11-bit first-level
// lookup resolves the common short codes in one peek, with a canonical
// per-length scan only for the rare codes longer than 11 bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/bytes.hpp"

namespace cqs::lossless {

/// Maximum admitted code length; counts are rescaled until respected.
inline constexpr int kMaxCodeLength = 24;

/// Largest alphabet the coder pair admits. The decoder's first-level table
/// stores symbols as uint16, so parse_table rejects anything larger.
inline constexpr std::size_t kMaxAlphabetSize = std::size_t{1} << 16;

/// First-level decode table width: codes of length <= kPrimaryBits decode
/// with a single lookup. 11 bits covers every code of a 256-symbol byte
/// alphabet in practice and keeps the table at 2^11 entries.
inline constexpr int kPrimaryBits = 11;

/// Builds canonical code lengths from symbol frequencies.
/// Returns one length per symbol (0 = symbol unused). The tree is depth
/// limited to kMaxCodeLength by iterative frequency flattening.
std::vector<std::uint8_t> build_code_lengths(
    std::span<const std::uint64_t> counts);

class HuffmanEncoder {
 public:
  /// Builds an encoder from frequencies (size = alphabet size).
  static HuffmanEncoder from_counts(std::span<const std::uint64_t> counts);

  /// Rebuilds this encoder from frequencies, reusing internal storage
  /// (no allocations once capacities are warm).
  void build(std::span<const std::uint64_t> counts);

  /// Serializes the code-length table (sparse varint encoding).
  void write_table(Bytes& out) const;

  void encode(BitWriter& writer, std::uint32_t symbol) const {
    const std::uint32_t entry = packed_[symbol];
    writer.write(entry >> kLengthBits, static_cast<int>(entry & kLengthMask));
  }

  /// Exact number of bits encode_bytes() emits for data with histogram
  /// `counts`.
  std::uint64_t encoded_bits(std::span<const std::uint64_t> counts) const;

  /// Appends the codes of `symbols` to `out`: the bytes a BitWriter fed
  /// encode() per symbol would hold after flush(). Needs an encoder built
  /// over a 256-symbol alphabet. `bits` must be encoded_bits() of the
  /// histogram this encoder was built from, which is the histogram of
  /// `symbols`; the output is pre-sized from it so every store is a whole
  /// word. Throws std::logic_error when the symbols do not fill exactly
  /// `bits`.
  void encode_bytes(ByteSpan symbols, std::uint64_t bits, Bytes& out) const;

  const std::vector<std::uint8_t>& lengths() const { return lengths_; }

  /// Bytes held across build() calls (scratch-pool accounting).
  std::size_t bytes() const {
    return lengths_.capacity() +
           packed_.capacity() * sizeof(std::uint32_t) +
           build_.leaves.capacity() * sizeof(BuildScratch::Leaf) +
           build_.merged.capacity() * sizeof(std::uint64_t) +
           build_.parent.capacity() * sizeof(std::uint32_t);
  }

 private:
  /// A packed_ entry is code << kLengthBits | length.
  static constexpr int kLengthBits = 8;
  static constexpr std::uint32_t kLengthMask = (1u << kLengthBits) - 1;

  /// Two-queue tree construction scratch, retained across build() calls so
  /// rebuilds don't allocate.
  struct BuildScratch {
    struct Leaf {
      std::uint64_t weight;  // count, halved by each depth-limit round
      std::uint32_t symbol;
    };
    std::vector<Leaf> leaves;            // used symbols by (weight, symbol)
    std::vector<std::uint64_t> merged;   // internal weights, creation order
    std::vector<std::uint32_t> parent;   // node -> parent, then -> depth
  };

  void build_lengths(std::span<const std::uint64_t> counts);
  void build_codes();

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> packed_;
  BuildScratch build_;
};

class HuffmanDecoder {
 public:
  /// Reads the table written by HuffmanEncoder::write_table.
  static HuffmanDecoder read_table(ByteSpan in, std::size_t& offset,
                                   std::size_t alphabet_size);

  /// In-place variant of read_table: refills this decoder's storage
  /// (tables included) without allocating once capacities are warm.
  void parse_table(ByteSpan in, std::size_t& offset,
                   std::size_t alphabet_size);

  std::uint32_t decode(BitReader& reader) const {
    const auto peeked =
        static_cast<std::uint32_t>(reader.peek(kMaxCodeLength));
    const PrimaryEntry e = primary_[peeked >> (kMaxCodeLength - kPrimaryBits)];
    if (e.length != 0) {
      reader.consume(e.length);
      return e.symbol;
    }
    return decode_long(reader, peeked);
  }

  /// Decodes out.size() symbols of a byte alphabet (a table parsed with at
  /// most 256 symbols) from the start of `data`. Same results and the same
  /// exceptions as calling decode() per symbol; while 8 whole bytes remain,
  /// one load serves up to five primary-table codes.
  void decode_bytes(ByteSpan data, std::span<std::byte> out) const;

  /// Bytes held across parse_table() calls (scratch-pool accounting).
  std::size_t bytes() const {
    return (first_code_.capacity() + first_index_.capacity() +
            symbol_count_.capacity() + symbols_.capacity()) *
               sizeof(std::uint32_t) +
           primary_.capacity() * sizeof(PrimaryEntry) +
           lengths_.capacity();
  }

 private:
  /// First-level table entry: symbol + code length, length 0 marking
  /// either an invalid prefix or a code longer than kPrimaryBits.
  struct PrimaryEntry {
    std::uint16_t symbol;
    std::uint8_t length;
  };

  std::uint32_t decode_long(BitReader& reader, std::uint32_t peeked) const;

  // Canonical decoding state: for each length, the first code value and the
  // index of its first symbol in the length-ordered symbol list.
  std::vector<std::uint32_t> first_code_;    // size kMaxCodeLength + 1
  std::vector<std::uint32_t> first_index_;   // size kMaxCodeLength + 1
  std::vector<std::uint32_t> symbol_count_;  // size kMaxCodeLength + 1
  std::vector<std::uint32_t> symbols_;       // sorted by (length, symbol)
  std::vector<PrimaryEntry> primary_;        // size 2^kPrimaryBits
  std::vector<std::uint8_t> lengths_;        // parse scratch (per symbol)
};

}  // namespace cqs::lossless
