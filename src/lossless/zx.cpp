#include "lossless/zx.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace cqs::lossless {
namespace {

constexpr std::byte kMagic0{'Z'};
constexpr std::byte kMagic1{'X'};
constexpr std::byte kModeRaw{0};
constexpr std::byte kModeLz{2};
constexpr std::byte kModeLzHuff{3};

/// Appends the Huffman form of `data` (table, symbol count, codes) to `out`
/// when it is smaller than `data`; otherwise appends nothing and returns
/// false. The size is known from the histogram before any code is written.
bool huffman_bytes_into(ByteSpan data, ZxScratch& scratch, Bytes& out) {
  std::array<std::uint64_t, 256> counts{};
  for (std::byte b : data) ++counts[static_cast<std::uint8_t>(b)];
  scratch.encoder.build(counts);
  const std::size_t start = out.size();
  scratch.encoder.write_table(out);
  put_varint(out, data.size());
  const std::uint64_t bits = scratch.encoder.encoded_bits(counts);
  if (out.size() - start + (bits + 7) / 8 >= data.size()) {
    out.resize(start);
    return false;
  }
  scratch.encoder.encode_bytes(data, bits, out);
  return true;
}

/// Decodes a Huffman payload into `out`, resized to the symbol count.
void unhuffman_bytes_into(ByteSpan data, ZxScratch& scratch, Bytes& out) {
  std::size_t offset = 0;
  scratch.decoder.parse_table(data, offset, 256);
  const std::uint64_t count = get_varint(data, offset);
  // Every code is at least one bit: a larger count is a lie, and must be
  // rejected before it sizes the buffer.
  if (count > 8 * std::uint64_t{data.size() - offset}) {
    throw std::out_of_range("cqs: huffman symbol count exceeds the payload");
  }
  out.resize(count);
  scratch.decoder.decode_bytes(data.subspan(offset), out);
}

void append_raw_container(ByteSpan input, Bytes& out) {
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kModeRaw);
  put_varint(out, input.size());
  out.insert(out.end(), input.begin(), input.end());
}

/// A parsed container header.
struct Header {
  std::byte mode;
  std::uint64_t original_size;
  ByteSpan payload;
};

Header parse_header(ByteSpan compressed) {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("cqs: not a zx container");
  }
  std::size_t offset = 3;
  const std::uint64_t original_size = get_varint(compressed, offset);
  return {compressed[2], original_size, compressed.subspan(offset)};
}

/// The LZ77 token stream of an LZ-mode payload: the payload itself, or its
/// Huffman decoding in scratch.tokens.
ByteSpan container_tokens(const Header& h, ZxScratch& scratch) {
  if (h.mode == kModeLzHuff) {
    unhuffman_bytes_into(h.payload, scratch, scratch.tokens);
    return scratch.tokens;
  }
  if (h.mode == kModeLz) return h.payload;
  throw std::runtime_error("cqs: zx unknown mode");
}

}  // namespace

void zx_compress_into(ByteSpan input, const ZxConfig& config,
                      ZxScratch& scratch, Bytes& out) {
  if (input.size() > kMaxTokenizeBytes) {
    append_raw_container(input, out);
    return;
  }
  const std::size_t base = out.size();

  scratch.tokens.clear();
  lz77_tokenize(input, scratch.tokens, config.lz, scratch.lz);
  const ByteSpan tokens = scratch.tokens;
  if (tokens.size() >= input.size()) {
    append_raw_container(input, out);
    return;
  }

  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kModeLz);
  put_varint(out, input.size());
  if (config.enable_huffman && !tokens.empty() &&
      huffman_bytes_into(tokens, scratch, out)) {
    out[base + 2] = kModeLzHuff;
  } else {
    out.insert(out.end(), tokens.begin(), tokens.end());
  }
  // Raw fallback guarantee: if the pipeline expanded the data, store raw.
  if (out.size() - base > input.size() + 12) {
    out.resize(base);
    append_raw_container(input, out);
  }
}

Bytes zx_compress(ByteSpan input, const ZxConfig& config) {
  ZxScratch scratch;
  Bytes out;
  zx_compress_into(input, config, scratch, out);
  return out;
}

void zx_decompress_into(ByteSpan compressed, ZxScratch& scratch, Bytes& out) {
  const Header h = parse_header(compressed);
  if (h.mode == kModeRaw) {
    if (h.payload.size() != h.original_size) {
      throw std::runtime_error("cqs: zx raw payload size mismatch");
    }
    out.assign(h.payload.begin(), h.payload.end());
    return;
  }
  lz77_detokenize(container_tokens(h, scratch), h.original_size, out);
}

void zx_decompress_into(ByteSpan compressed, ZxScratch& scratch,
                        std::span<std::byte> out) {
  const Header h = parse_header(compressed);
  if (h.original_size != out.size()) {
    throw std::runtime_error("cqs: zx size claim does not match the output");
  }
  if (h.mode == kModeRaw) {
    if (h.payload.size() != out.size()) {
      throw std::runtime_error("cqs: zx raw payload size mismatch");
    }
    if (!out.empty()) std::memcpy(out.data(), h.payload.data(), out.size());
    return;
  }
  lz77_detokenize(container_tokens(h, scratch), out);
}

Bytes zx_decompress(ByteSpan compressed) {
  ZxScratch scratch;
  Bytes out;
  zx_decompress_into(compressed, scratch, out);
  return out;
}

std::size_t zx_original_size(ByteSpan compressed) {
  return parse_header(compressed).original_size;
}

}  // namespace cqs::lossless
