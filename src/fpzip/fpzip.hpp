// FPZIP-like predictive floating-point compressor. FPZIP controls loss
// through a "precision" number p in [4, 64]: the number of leading bits of
// each double that survive. We reproduce that model:
//
//   1. Precision truncation: keep p leading bits (sign + exponent = 12,
//      so p - 12 mantissa bits), truncating toward zero.
//   2. Prediction: previous truncated value, in a monotone integer
//      encoding of the double (sign-magnitude flipped so ordering is
//      preserved under integer subtraction).
//   3. Residual coding: zigzag varints, then the zx entropy stage.
//
// The paper maps precisions {16, 18, 22, 24, 28} to pointwise relative
// bounds {1e-1 .. 1e-5}; precision_for_bound reproduces that mapping from
// first principles (p = 12 + ceil(-log2 eps)).
#pragma once

#include "compression/compressor.hpp"

namespace cqs::fpzip {

/// Precision (total leading bits kept) that guarantees pointwise relative
/// error below eps.
int precision_for_bound(double eps);

/// Worst-case pointwise relative bound for a given precision.
double bound_for_precision(int precision);

class FpzipCodec final : public compression::Compressor {
 public:
  /// fixed_precision in [4, 64]; 0 = derive from the bound per call.
  explicit FpzipCodec(int fixed_precision = 0);

  std::string name() const override { return "fpzip"; }
  bool supports(compression::BoundMode mode) const override {
    return mode == compression::BoundMode::kPointwiseRelative ||
           mode == compression::BoundMode::kLossless;
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
  int fixed_precision_;
};

}  // namespace cqs::fpzip
