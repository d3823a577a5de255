#include "compression/zx_codec.hpp"

#include <stdexcept>

#include "compression/codec_scratch.hpp"
#include "lossless/zx.hpp"

namespace cqs::compression {

Bytes ZxCodec::compress(std::span<const double> data, const ErrorBound& bound,
                        CodecScratch& scratch) const {
  if (bound.mode != BoundMode::kLossless) {
    throw std::invalid_argument("ZxCodec is lossless only");
  }
  scratch.packed.clear();
  lossless::zx_compress_into(as_bytes_span(data), {}, scratch.zx,
                             scratch.packed);
  return Bytes(scratch.packed.begin(), scratch.packed.end());
}

void ZxCodec::decompress(ByteSpan compressed, std::span<double> out,
                         CodecScratch& scratch) const {
  // The span form checks the container's size claim against
  // out.size_bytes() before decoding, then decodes straight into `out`.
  lossless::zx_decompress_into(compressed, scratch.zx,
                               std::as_writable_bytes(out));
}

std::size_t ZxCodec::element_count(ByteSpan compressed) const {
  return lossless::zx_original_size(compressed) / sizeof(double);
}

}  // namespace cqs::compression
