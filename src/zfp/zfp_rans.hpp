// "zfp-rans": the zfp codec with an order-0 rANS entropy stage re-coding
// the whole zfp container (header + plane stream). The zfp bit-plane coder
// is a group-tested embedded coder, not an entropy coder — its output
// bytes keep residual skew (empty-block runs, exponent bytes, sparse
// significance bits) that a static rANS pass captures at ~zero fidelity
// cost, the stage being exactly lossless. Registered as its own codec id
// (append-only) so a run can pick it while every existing zfp bitstream
// stays byte-identical; when the rANS stream would not be
// smaller the raw container is stored behind a flag bit, so the wrapper
// never loses to plain zfp by more than the 3-byte header + count varint.
#pragma once

#include "compression/compressor.hpp"
#include "zfp/zfp.hpp"

namespace cqs::zfp {

class ZfpRansCodec final : public compression::Compressor {
 public:
  /// `fixed_precision` is forwarded to the inner zfp codec (and validated
  /// there): if > 0, encode exactly that many bit planes per block.
  explicit ZfpRansCodec(int fixed_precision = 0) : zfp_(fixed_precision) {}

  std::string name() const override { return "zfp-rans"; }
  bool supports(compression::BoundMode mode) const override {
    return zfp_.supports(mode);
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
  ZfpCodec zfp_;
};

}  // namespace cqs::zfp
