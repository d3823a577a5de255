// Lossless Compressor over double arrays: the "Zstd" stage of the paper's
// hybrid pipeline (Section 3.7), backed by the zx codec.
#pragma once

#include "compression/compressor.hpp"

namespace cqs::compression {

class ZxCodec final : public Compressor {
 public:
  std::string name() const override { return "zstd"; }
  bool supports(BoundMode mode) const override {
    return mode == BoundMode::kLossless;
  }
  using Compressor::compress;
  using Compressor::decompress;
  Bytes compress(std::span<const double> data, const ErrorBound& bound,
                 CodecScratch& scratch) const override;
  void decompress(ByteSpan compressed, std::span<double> out,
                  CodecScratch& scratch) const override;
  std::size_t element_count(ByteSpan compressed) const override;
};

}  // namespace cqs::compression
