// SZ-like prediction-based lossy compressor — the paper's Solution A
// (classic SZ 2.1 pipeline on a 1D array) and Solution B (complex-type
// aware prediction with a 16,384-entry quantization table).
//
// Pipeline (Section 2.3 / 4.2):
//   1. Lorenzo (order-1) prediction from the previous *reconstructed*
//      value — two independent chains in complex-split mode.
//   2. Linear-scaling quantization of the prediction residual into
//      2*bound-wide bins; out-of-range residuals become "unpredictable"
//      outliers stored verbatim.
//   3. Canonical Huffman coding of the quantization codes.
//   4. zx (Zstd stand-in) lossless compression of everything.
//
// Pointwise-relative bounds use the standard log-preprocessing transform:
// compress log2|d| with the equivalent absolute bound log2(1 + eps),
// plus sign and exact-zero side channels.
#pragma once

#include <stdexcept>

#include "compression/compressor.hpp"
#include "lossless/huffman.hpp"

namespace cqs::sz {

struct SzConfig {
  /// Solution B predicts real/imaginary interleaved streams separately.
  bool complex_split = false;
  /// Quantization bins (power of two). SZ 2.1 default 65536; Solution B
  /// uses 16384 for faster coding.
  std::uint32_t max_bins = 65536;
  /// SZ 2.1's precomputation-based log transform (table lookup instead of
  /// a libm call per point); the tiny lookup error is deducted from the
  /// log-domain bound so the pointwise relative bound still holds.
  bool fast_log = true;
};

class SzCodec final : public compression::Compressor {
 public:
  explicit SzCodec(SzConfig config = {}) : config_(config) {
    // The Huffman decoder admits at most 2^16 symbols; a larger bin count
    // would compress containers its own decompress rejects.
    if (config_.max_bins > lossless::kMaxAlphabetSize) {
      throw std::invalid_argument("sz: max_bins exceeds 2^16");
    }
  }

  std::string name() const override {
    return config_.complex_split ? "sz-complex" : "sz";
  }
  bool supports(compression::BoundMode mode) const override {
    return mode == compression::BoundMode::kAbsolute ||
           mode == compression::BoundMode::kPointwiseRelative;
  }
  using Compressor::compress;
  using Compressor::decompress;
  Bytes compress(std::span<const double> data,
                 const compression::ErrorBound& bound,
                 compression::CodecScratch& scratch) const override;
  void decompress(ByteSpan compressed, std::span<double> out,
                  compression::CodecScratch& scratch) const override;
  std::size_t element_count(ByteSpan compressed) const override;

  const SzConfig& config() const { return config_; }

 private:
  SzConfig config_;
};

}  // namespace cqs::sz
