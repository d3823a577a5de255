// zx: the repository's Zstandard stand-in. A container that applies
// hash-chain LZ77 followed by canonical Huffman coding of the token
// stream, with a raw-store fallback so compression never expands data by
// more than the small header.
//
// Container layout:
//   magic   2 bytes  'Z' 'X'
//   mode    1 byte   0 = raw, 2 = lz77, 3 = lz77 + huffman
//   size    varint   original byte count
//   [mode 3] table + varint token byte count
//   payload
//
// The *_into variants append/replace into caller-owned buffers and thread
// a ZxScratch, so a warm scratch makes a full compress/decompress round
// allocation-free; the value-returning entry points forward to them.
#pragma once

#include "common/bytes.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz77.hpp"

namespace cqs::lossless {

struct ZxConfig {
  Lz77Config lz;
  bool enable_huffman = true;
};

/// Reusable working state for one zx compress/decompress stream: the LZ77
/// hash chains, the token staging buffer, and the Huffman coder pair.
struct ZxScratch {
  Lz77Scratch lz;
  Bytes tokens;  // LZ77 token stream (compress) / decoded tokens (decompress)
  HuffmanEncoder encoder;
  HuffmanDecoder decoder;

  /// Bytes held across passes, Huffman coder pools included (Eq. 8
  /// accounting).
  std::size_t bytes() const {
    return lz.bytes() + tokens.capacity() + encoder.bytes() +
           decoder.bytes();
  }
};

/// Compresses `input`; never throws on valid input and never expands beyond
/// input size + header bytes. Inputs longer than kMaxTokenizeBytes skip
/// LZ77 and are stored raw.
Bytes zx_compress(ByteSpan input, const ZxConfig& config = {});

/// Scratch-pooled variant producing the identical container byte-for-byte;
/// appends to `out` (existing contents untouched).
void zx_compress_into(ByteSpan input, const ZxConfig& config,
                      ZxScratch& scratch, Bytes& out);

/// Decompresses a zx container. Throws std::runtime_error on corruption.
Bytes zx_decompress(ByteSpan compressed);

/// Scratch-pooled variant; replaces the contents of `out`. The container's
/// size claim is unchecked here, so `out` grows only as the payload
/// produces bytes (lz77_detokenize's growing form).
void zx_decompress_into(ByteSpan compressed, ZxScratch& scratch, Bytes& out);

/// Decompresses into `out`, a buffer of the size the caller knows the data
/// has: throws std::runtime_error before decoding anything unless the
/// container claims exactly out.size() bytes, then writes them in place.
void zx_decompress_into(ByteSpan compressed, ZxScratch& scratch,
                        std::span<std::byte> out);

/// Original (decompressed) size recorded in a zx container header.
std::size_t zx_original_size(ByteSpan compressed);

}  // namespace cqs::lossless
