// qzc — the paper's tailored lossy compressor (Section 4.2, Solutions C/D).
//
// Pipeline per double value:
//   1. Bit-plane truncation: keep Sig_Bit_Count = 12 + ceil(-log2(eps))
//      leading bits of the IEEE-754 representation (sign + exponent = 12
//      bits for double, Eq. 12), truncating the mantissa toward zero, so
//      |d'| is in [|d|(1 - eps), |d|].
//   2. XOR leading-zero data reduction: XOR with the previous truncated
//      value; a 2-bit code records how many leading bytes are identical
//      (0..3+), and only the differing significant bytes are emitted.
//   3. zx (Zstd stand-in) lossless compression of the code + payload
//      streams.
//
// Solution D prepends a reshuffle that de-interleaves the complex array
// into a real plane followed by an imaginary plane.
//
// Container layout:
//   magic 'Q','Z'   2 bytes
//   flags           1 byte   (bit 0: shuffled / Solution D)
//   mantissa_bits   1 byte   (0xff = lossless passthrough not used here)
//   count           varint   number of doubles
//   zx container    the compressed code+payload streams
#pragma once

#include "compression/compressor.hpp"

namespace cqs::qzc {

/// Mantissa bits to keep for a pointwise relative bound eps (Eq. 12):
/// smallest m with 2^-m <= eps.
int mantissa_bits_for_bound(double eps);

/// The worst-case relative error actually incurred when keeping m mantissa
/// bits (2^-m); always <= the requested bound.
double bound_for_mantissa_bits(int m);

class QzcCodec final : public compression::Compressor {
 public:
  /// shuffle = false: Solution C. shuffle = true: Solution D.
  explicit QzcCodec(bool shuffle = false) : shuffle_(shuffle) {}

  std::string name() const override {
    return shuffle_ ? "qzc-shuffle" : "qzc";
  }
  bool supports(compression::BoundMode mode) const override {
    return mode == compression::BoundMode::kPointwiseRelative;
  }
  using Compressor::compress;
  using Compressor::decompress;
  Bytes compress(std::span<const double> data,
                 const compression::ErrorBound& bound,
                 compression::CodecScratch& scratch) const override;
  void decompress(ByteSpan compressed, std::span<double> out,
                  compression::CodecScratch& scratch) const override;
  std::size_t element_count(ByteSpan compressed) const override;

 private:
  bool shuffle_;
};

}  // namespace cqs::qzc
