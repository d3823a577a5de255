#include "lossless/huffman.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace cqs::lossless {

void HuffmanEncoder::build_lengths(std::span<const std::uint64_t> counts) {
  auto& leaves = build_.leaves;
  auto& merged = build_.merged;
  auto& parent = build_.parent;

  lengths_.assign(counts.size(), 0);
  leaves.clear();
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] != 0) leaves.push_back({counts[s], s});
  }
  const std::size_t n = leaves.size();
  if (n == 0) return;  // empty input: all zero lengths
  if (n == 1) {
    lengths_[leaves[0].symbol] = 1;
    return;
  }
  merged.resize(n - 1);
  parent.resize(2 * n - 2);  // every node but the root

  // Two-queue merge. Nodes 0..n-1 are the leaves in (weight, symbol) order,
  // nodes n.. the internal nodes in creation order, whose weights never
  // decrease. Taking the lighter queue front, the leaf on a tie, pops
  // nodes in the (weight, symbol-then-creation) order of a binary heap
  // keyed that way, so the tree and its lengths match the heap build's.
  while (true) {
    std::sort(leaves.begin(), leaves.end(),
              [](const BuildScratch::Leaf& a, const BuildScratch::Leaf& b) {
                if (a.weight != b.weight) return a.weight < b.weight;
                return a.symbol < b.symbol;
              });
    std::size_t next_leaf = 0;
    std::size_t next_merged = 0;
    const auto pop = [&](std::size_t created)
        -> std::pair<std::size_t, std::uint64_t> {
      if (next_leaf < n && (next_merged == created ||
                            leaves[next_leaf].weight <= merged[next_merged])) {
        const std::size_t leaf = next_leaf++;
        return {leaf, leaves[leaf].weight};
      }
      const std::size_t node = next_merged++;
      return {n + node, merged[node]};
    };
    for (std::size_t created = 0; created + 1 < n; ++created) {
      const auto [a, weight_a] = pop(created);
      const auto [b, weight_b] = pop(created);
      merged[created] = weight_a + weight_b;
      parent[a] = parent[b] = static_cast<std::uint32_t>(n + created);
    }
    // A parent is always created after its children, so one sweep from
    // the highest node down turns each parent link into a depth.
    const std::size_t root = 2 * n - 2;
    std::uint32_t max_len = 0;
    for (std::size_t node = root; node-- > 0;) {
      const std::uint32_t up = parent[node];
      parent[node] = (up == root ? 0 : parent[up]) + 1;
      if (node < n) max_len = std::max(max_len, parent[node]);
    }
    if (max_len <= kMaxCodeLength) {
      for (std::size_t i = 0; i < n; ++i) {
        lengths_[leaves[i].symbol] = static_cast<std::uint8_t>(parent[i]);
      }
      return;
    }
    // Depth limiting: flatten the distribution and rebuild. Halving skewed
    // counts converges in a handful of iterations.
    for (auto& leaf : leaves) leaf.weight = leaf.weight / 2 + 1;
  }
}

void HuffmanEncoder::build_codes() {
  // Canonical codes: consecutive values in (length, symbol) order, each
  // length's first code following the previous length's last, shifted.
  std::array<std::uint32_t, kMaxCodeLength + 1> next{};
  for (auto l : lengths_) ++next[l];
  std::uint32_t code = 0;
  std::uint32_t prev_count = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + prev_count) << 1;
    prev_count = next[len];
    next[len] = code;
  }
  packed_.resize(lengths_.size());
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    const std::uint32_t len = lengths_[s];
    packed_[s] = len == 0 ? 0 : (next[len]++ << kLengthBits) | len;
  }
}

void HuffmanEncoder::build(std::span<const std::uint64_t> counts) {
  build_lengths(counts);
  build_codes();
}

std::vector<std::uint8_t> build_code_lengths(
    std::span<const std::uint64_t> counts) {
  HuffmanEncoder enc;
  enc.build(counts);
  return enc.lengths();
}

std::uint64_t HuffmanEncoder::encoded_bits(
    std::span<const std::uint64_t> counts) const {
  if (counts.size() != lengths_.size()) {
    throw std::logic_error("cqs: histogram does not match the alphabet");
  }
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    bits += counts[s] * lengths_[s];
  }
  return bits;
}

void HuffmanEncoder::encode_bytes(ByteSpan symbols, std::uint64_t bits,
                                  Bytes& out) const {
  if (packed_.size() < 256) {
    throw std::logic_error("cqs: encode_bytes needs a byte alphabet");
  }
  const std::size_t start = out.size();
  const std::size_t nbytes = (bits + 7) / 8;
  out.resize(start + nbytes + 8);  // slack: the last word store may overhang
  std::byte* dst = out.data() + start;
  const std::byte* const end = dst + nbytes;
  const std::uint32_t* const table = packed_.data();
  // `acc` holds `filled` pending bits in its low end. Codes are at most
  // 24 bits, so two fit on top of the < 8 left after each store.
  std::uint64_t acc = 0;
  int filled = 0;
  const auto put = [&](std::byte symbol) {
    const std::uint32_t entry = table[static_cast<std::uint8_t>(symbol)];
    const int len = static_cast<int>(entry & kLengthMask);
    acc = (acc << len) | (entry >> kLengthBits);
    filled += len;
  };
  // Stores the whole pending bytes as one big-endian word; the partial byte
  // after them is rewritten by the next store. (The shift is masked so an
  // empty accumulator shifts by 0, not by an undefined 64.)
  const auto store = [&] {
    if (dst > end) {
      throw std::logic_error("cqs: huffman symbols overrun the bit count");
    }
    const std::uint64_t word = to_big_endian_u64(acc << ((64 - filled) & 63));
    std::memcpy(dst, &word, 8);
    dst += filled >> 3;
    filled &= 7;
  };
  const std::size_t n = symbols.size();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    put(symbols[i]);
    put(symbols[i + 1]);
    store();
  }
  if (i < n) {
    put(symbols[i]);
    store();
  }
  if (filled > 0) {
    if (dst >= end) {
      throw std::logic_error("cqs: huffman symbols overrun the bit count");
    }
    *dst++ = static_cast<std::byte>((acc << (8 - filled)) & 0xff);
  }
  if (dst != end) {
    throw std::logic_error("cqs: huffman symbols do not fill the bit count");
  }
  out.resize(start + nbytes);
}

HuffmanEncoder HuffmanEncoder::from_counts(
    std::span<const std::uint64_t> counts) {
  HuffmanEncoder enc;
  enc.build(counts);
  return enc;
}

void HuffmanEncoder::write_table(Bytes& out) const {
  // Sparse encoding: count of used symbols, then (delta symbol, length)
  // pairs in symbol order.
  std::uint64_t used = 0;
  for (auto l : lengths_) {
    if (l > 0) ++used;
  }
  put_varint(out, used);
  std::uint32_t prev = 0;
  for (std::uint32_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] == 0) continue;
    put_varint(out, s - prev);
    out.push_back(static_cast<std::byte>(lengths_[s]));
    prev = s;
  }
}

HuffmanDecoder HuffmanDecoder::read_table(ByteSpan in, std::size_t& offset,
                                          std::size_t alphabet_size) {
  HuffmanDecoder dec;
  dec.parse_table(in, offset, alphabet_size);
  return dec;
}

void HuffmanDecoder::parse_table(ByteSpan in, std::size_t& offset,
                                 std::size_t alphabet_size) {
  if (alphabet_size > kMaxAlphabetSize) {
    throw std::invalid_argument("cqs: huffman alphabet exceeds 2^16 symbols");
  }
  auto& lengths = lengths_;
  lengths.assign(alphabet_size, 0);
  const std::uint64_t used = get_varint(in, offset);
  std::uint32_t symbol = 0;
  for (std::uint64_t i = 0; i < used; ++i) {
    symbol += static_cast<std::uint32_t>(get_varint(in, offset));
    if (symbol >= alphabet_size) {
      throw std::runtime_error("cqs: huffman table symbol out of range");
    }
    if (offset >= in.size()) {
      throw std::out_of_range("cqs: huffman table truncated");
    }
    lengths[symbol] = static_cast<std::uint8_t>(in[offset++]);
    if (lengths[symbol] == 0 || lengths[symbol] > kMaxCodeLength) {
      throw std::runtime_error("cqs: huffman table invalid length");
    }
  }

  first_code_.assign(kMaxCodeLength + 1, 0);
  first_index_.assign(kMaxCodeLength + 1, 0);
  symbol_count_.assign(kMaxCodeLength + 1, 0);
  for (std::uint32_t s = 0; s < alphabet_size; ++s) {
    if (lengths[s] > 0) ++symbol_count_[lengths[s]];
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += symbol_count_[len];
    index += symbol_count_[len];
    // Kraft validity: an oversubscribed length (more codes than a
    // prefix-free tree admits) comes only from a corrupt table. It must be
    // rejected here — the primary-table fill below indexes rows by
    // code << (kPrimaryBits - len) and would write past the table.
    if (code > (std::uint32_t{1} << len)) {
      throw std::runtime_error("cqs: huffman table oversubscribed");
    }
  }
  // Symbols in (length, symbol) order: each length's run, filled in
  // increasing symbol order.
  symbols_.resize(index);
  std::array<std::uint32_t, kMaxCodeLength + 1> next{};
  std::copy(first_index_.begin(), first_index_.end(), next.begin());
  for (std::uint32_t s = 0; s < alphabet_size; ++s) {
    if (lengths[s] > 0) symbols_[next[lengths[s]]++] = s;
  }

  // First-level lookup: every code of length <= kPrimaryBits owns the
  // 2^(kPrimaryBits - length) table rows sharing its prefix. Longer codes
  // leave length 0, routing decode() to the canonical per-length scan.
  primary_.assign(std::size_t{1} << kPrimaryBits, PrimaryEntry{0, 0});
  index = 0;
  for (int len = 1; len <= std::min(kPrimaryBits, kMaxCodeLength); ++len) {
    for (std::uint32_t k = 0; k < symbol_count_[len]; ++k) {
      const std::uint32_t c = first_code_[len] + k;
      const std::uint32_t sym = symbols_[first_index_[len] + k];
      const std::uint32_t base = c << (kPrimaryBits - len);
      const std::uint32_t span = std::uint32_t{1} << (kPrimaryBits - len);
      for (std::uint32_t row = base; row < base + span; ++row) {
        primary_[row] = {static_cast<std::uint16_t>(sym),
                         static_cast<std::uint8_t>(len)};
      }
    }
  }
}

std::uint32_t HuffmanDecoder::decode_long(BitReader& reader,
                                          std::uint32_t peeked) const {
  // Canonical scan over the lengths the primary table doesn't cover. The
  // peeked window is zero-padded past the stream end; consume() rejects
  // any match that would need more bits than actually remain.
  for (int len = kPrimaryBits + 1; len <= kMaxCodeLength; ++len) {
    const std::uint32_t code = peeked >> (kMaxCodeLength - len);
    const std::uint32_t delta = code - first_code_[len];
    if (code >= first_code_[len] && delta < symbol_count_[len]) {
      reader.consume(len);
      return symbols_[first_index_[len] + delta];
    }
  }
  // No prefix of the window is a valid code. Distinguish the truncated
  // stream (historical out_of_range) from genuine corruption.
  if (reader.exhausted(kMaxCodeLength)) {
    throw std::out_of_range("cqs: bit stream truncated");
  }
  throw std::runtime_error("cqs: invalid huffman code");
}

void HuffmanDecoder::decode_bytes(ByteSpan data,
                                  std::span<std::byte> out) const {
  if (lengths_.size() > 256) {
    throw std::logic_error("cqs: decode_bytes needs a byte alphabet");
  }
  // A window loaded at any bit position holds at least 57 real bits, which
  // covers five primary-table codes of at most kPrimaryBits = 11 bits.
  constexpr int kCodesPerLoad = 5;
  static_assert(kCodesPerLoad * kPrimaryBits <= 57);
  const PrimaryEntry* const table = primary_.data();
  const std::size_t n = out.size();
  std::size_t pos = 0;  // bits consumed
  std::size_t i = 0;
  while (i + kCodesPerLoad <= n && (pos >> 3) + 8 <= data.size()) {
    std::uint64_t window;
    std::memcpy(&window, data.data() + (pos >> 3), 8);
    window = to_big_endian_u64(window) << (pos & 7);
    int k = 0;
    for (; k < kCodesPerLoad; ++k) {
      const PrimaryEntry e = table[window >> (64 - kPrimaryBits)];
      if (e.length == 0) break;
      out[i++] = static_cast<std::byte>(e.symbol);
      window <<= e.length;
      pos += e.length;
    }
    if (k < kCodesPerLoad) {
      // A long code or an invalid prefix: decode() resolves or rejects it.
      BitReader reader(data.subspan(pos >> 3));
      reader.consume(static_cast<int>(pos & 7));
      out[i++] = static_cast<std::byte>(decode(reader));
      pos = (pos & ~std::size_t{7}) + reader.position();
    }
  }
  BitReader reader(data.subspan(pos >> 3));
  reader.consume(static_cast<int>(pos & 7));
  for (; i < n; ++i) out[i] = static_cast<std::byte>(decode(reader));
}

}  // namespace cqs::lossless
