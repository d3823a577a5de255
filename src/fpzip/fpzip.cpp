#include "fpzip/fpzip.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "compression/codec_scratch.hpp"
#include "lossless/zx.hpp"

namespace cqs::fpzip {
namespace {

constexpr std::byte kMagic0{'F'};
constexpr std::byte kMagic1{'P'};
constexpr int kSignExponentBits = 12;

/// Monotone bijection double bits -> uint64 preserving numeric order.
inline std::uint64_t order_encode(std::uint64_t u) {
  return (u >> 63) != 0 ? ~u : (u | 0x8000000000000000ull);
}

inline std::uint64_t order_decode(std::uint64_t o) {
  return (o >> 63) != 0 ? (o & 0x7fffffffffffffffull) : ~o;
}

inline std::uint64_t truncate_to_precision(std::uint64_t u, int precision) {
  const int drop = 64 - precision;
  if (drop <= 0) return u;
  return u & (~0ull << drop);
}

}  // namespace

int precision_for_bound(double eps) {
  if (!(eps > 0.0)) {
    throw std::invalid_argument("fpzip: bound must be positive");
  }
  if (eps >= 1.0) return kSignExponentBits + 4;  // fpzip minimum p = 16-ish
  const int mantissa =
      std::min(52, static_cast<int>(std::ceil(-std::log2(eps))));
  return std::clamp(kSignExponentBits + mantissa, 4, 64);
}

double bound_for_precision(int precision) {
  return std::ldexp(1.0, -(std::max(0, precision - kSignExponentBits)));
}

FpzipCodec::FpzipCodec(int fixed_precision)
    : fixed_precision_(fixed_precision) {
  if (fixed_precision != 0 && (fixed_precision < 4 || fixed_precision > 64)) {
    throw std::invalid_argument("fpzip: precision must be in [4, 64]");
  }
}

Bytes FpzipCodec::compress(std::span<const double> data,
                           const compression::ErrorBound& bound,
                           compression::CodecScratch& scratch) const {
  int precision;
  if (bound.mode == compression::BoundMode::kLossless) {
    precision = 64;
  } else if (bound.mode == compression::BoundMode::kPointwiseRelative) {
    precision =
        fixed_precision_ > 0 ? fixed_precision_ : precision_for_bound(bound.value);
  } else {
    throw std::invalid_argument("fpzip: unsupported bound mode");
  }

  Bytes& residuals = scratch.inner;
  residuals.clear();
  residuals.reserve(data.size() * 3);
  std::uint64_t prev_ordered = order_encode(0);
  for (double d : data) {
    std::uint64_t u;
    std::memcpy(&u, &d, 8);
    const std::uint64_t t = truncate_to_precision(u, precision);
    const std::uint64_t ordered = order_encode(t);
    const std::uint64_t delta = ordered - prev_ordered;  // wraps mod 2^64
    put_varint(residuals,
               zigzag_encode(static_cast<std::int64_t>(delta)));
    prev_ordered = ordered;
  }
  Bytes& out = scratch.packed;
  out.clear();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<std::byte>(precision));
  put_varint(out, data.size());
  lossless::zx_compress_into(residuals, {}, scratch.zx, out);
  return Bytes(out.begin(), out.end());
}

void FpzipCodec::decompress(ByteSpan compressed, std::span<double> out,
                            compression::CodecScratch& scratch) const {
  if (compressed.size() < 4 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("fpzip: bad magic");
  }
  std::size_t offset = 3;
  const std::uint64_t count = get_varint(compressed, offset);
  if (out.size() != count) {
    throw std::runtime_error("fpzip: output size mismatch");
  }
  Bytes& residuals = scratch.inner;
  lossless::zx_decompress_into(compressed.subspan(offset), scratch.zx,
                               residuals);
  std::size_t pos = 0;
  std::uint64_t prev_ordered = order_encode(0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t delta = static_cast<std::uint64_t>(
        zigzag_decode(get_varint(residuals, pos)));
    prev_ordered += delta;
    const std::uint64_t t = order_decode(prev_ordered);
    double d;
    std::memcpy(&d, &t, 8);
    out[i] = d;
  }
}

std::size_t FpzipCodec::element_count(ByteSpan compressed) const {
  if (compressed.size() < 4 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("fpzip: bad magic");
  }
  std::size_t offset = 3;
  return get_varint(compressed, offset);
}

}  // namespace cqs::fpzip
