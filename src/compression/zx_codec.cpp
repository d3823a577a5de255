#include "compression/zx_codec.hpp"

#include <cstring>
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
  lossless::zx_decompress_into(compressed, scratch.zx, scratch.inner);
  if (scratch.inner.size() != out.size_bytes()) {
    throw std::runtime_error("ZxCodec: output size mismatch");
  }
  if (!scratch.inner.empty()) {
    std::memcpy(out.data(), scratch.inner.data(), scratch.inner.size());
  }
}

std::size_t ZxCodec::element_count(ByteSpan compressed) const {
  return lossless::zx_original_size(compressed) / sizeof(double);
}

}  // namespace cqs::compression
