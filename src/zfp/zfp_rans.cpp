#include "zfp/zfp_rans.hpp"

#include <stdexcept>

#include "compression/codec_scratch.hpp"
#include "compression/rans.hpp"

namespace cqs::zfp {
namespace {

constexpr std::byte kMagic0{'Z'};
constexpr std::byte kMagic1{'R'};
/// The rANS stream was not smaller; the raw zfp container follows.
constexpr std::uint8_t kFlagRaw = 1;

std::size_t varint_length(std::uint64_t value) {
  std::size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

}  // namespace

Bytes ZfpRansCodec::compress(std::span<const double> data,
                             const compression::ErrorBound& bound,
                             compression::CodecScratch& scratch) const {
  zfp_.compress_into(data, bound, scratch, scratch.packed);
  scratch.entropy.clear();
  compression::rans::encode(scratch.packed, scratch.rans, scratch.entropy);
  const bool raw = scratch.entropy.size() >= scratch.packed.size();
  const Bytes& payload = raw ? scratch.packed : scratch.entropy;

  Bytes result;
  result.reserve(3 + varint_length(data.size()) + payload.size());
  result.push_back(kMagic0);
  result.push_back(kMagic1);
  result.push_back(static_cast<std::byte>(raw ? kFlagRaw : 0));
  put_varint(result, data.size());
  result.insert(result.end(), payload.begin(), payload.end());
  return result;
}

void ZfpRansCodec::decompress(ByteSpan compressed, std::span<double> out,
                              compression::CodecScratch& scratch) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("zfp-rans: bad magic");
  }
  const auto flags = static_cast<std::uint8_t>(compressed[2]);
  std::size_t offset = 3;
  const std::uint64_t count = get_varint(compressed, offset);
  if (out.size() != count) {
    throw std::runtime_error("zfp-rans: output size mismatch");
  }
  if ((flags & kFlagRaw) != 0) {
    zfp_.decompress(compressed.subspan(offset), out, scratch);
    return;
  }
  compression::rans::decode(compressed, offset, scratch.rans,
                            scratch.entropy);
  zfp_.decompress(scratch.entropy, out, scratch);
}

std::size_t ZfpRansCodec::element_count(ByteSpan compressed) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("zfp-rans: bad magic");
  }
  std::size_t offset = 3;
  return get_varint(compressed, offset);
}

}  // namespace cqs::zfp
