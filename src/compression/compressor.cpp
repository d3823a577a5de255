#include "compression/compressor.hpp"

#include "compression/codec_scratch.hpp"

namespace cqs::compression {

Bytes Compressor::compress(std::span<const double> data,
                           const ErrorBound& bound) const {
  CodecScratch scratch;
  return compress(data, bound, scratch);
}

void Compressor::decompress(ByteSpan compressed, std::span<double> out) const {
  CodecScratch scratch;
  decompress(compressed, out, scratch);
}

}  // namespace cqs::compression
