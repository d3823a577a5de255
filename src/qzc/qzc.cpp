#include "qzc/qzc.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/bits.hpp"
#include "compression/codec_scratch.hpp"
#include "lossless/zx.hpp"

namespace cqs::qzc {
namespace {

constexpr std::byte kMagic0{'Q'};
constexpr std::byte kMagic1{'Z'};

/// Two-bit leading-same-byte code values map to {0, 1, 2, 3} leading bytes;
/// 3 means "3 or more were identical but we only skip 3" — the remaining
/// identical bytes still appear in the payload and are removed by zx.
constexpr int kMaxLeadCode = 3;

struct Header {
  bool shuffled = false;
  int mantissa_bits = 0;
  std::size_t count = 0;
  std::size_t payload_offset = 0;  // offset of the zx container
};

Header parse_header(ByteSpan in) {
  if (in.size() < 4 || in[0] != kMagic0 || in[1] != kMagic1) {
    throw std::runtime_error("qzc: bad magic");
  }
  Header h;
  h.shuffled = (static_cast<std::uint8_t>(in[2]) & 1u) != 0;
  h.mantissa_bits = static_cast<std::uint8_t>(in[3]);
  std::size_t offset = 4;
  h.count = get_varint(in, offset);
  h.payload_offset = offset;
  return h;
}

/// Truncates the low (52 - m) mantissa bits toward zero. Sign and exponent
/// are always preserved, so the pointwise relative error is < 2^-m and the
/// magnitude never increases: |d'| in [|d|(1 - 2^-m), |d|].
inline std::uint64_t truncate_bits(std::uint64_t u, int mantissa_bits) {
  const int drop = 52 - mantissa_bits;
  if (drop <= 0) return u;
  return u & (~0ull << drop);
}

void deinterleave(std::span<const double> data, std::vector<double>& out) {
  // [re0 im0 re1 im1 ...] -> [re0 re1 ... | im0 im1 ...]. Odd trailing
  // element (non-complex payload) stays at the end of the first plane.
  const std::size_t pairs = data.size() / 2;
  out.resize(data.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    out[i] = data[2 * i];
    out[pairs + i] = data[2 * i + 1];
  }
  if (data.size() % 2 != 0) out[data.size() - 1] = data.back();
}

/// Decodes the XOR-delta streams into `out` (plane order when shuffled).
void decode_values(const Header& h, ByteSpan codes, ByteSpan payload,
                   std::span<double> out) {
  const int drop = 52 - h.mantissa_bits;
  const int trailing_zero_bytes = drop > 0 ? drop / 8 : 0;

  std::uint64_t prev = 0;
  std::size_t payload_pos = 0;
  for (std::size_t i = 0; i < h.count; ++i) {
    const auto code_byte = static_cast<std::uint8_t>(codes[i / 4]);
    const int lead = (code_byte >> (6 - 2 * (i % 4))) & 3;
    std::uint64_t x = 0;
    for (int b = lead; b < 8 - trailing_zero_bytes; ++b) {
      if (payload_pos >= payload.size()) {
        throw std::runtime_error("qzc: payload truncated");
      }
      x |= static_cast<std::uint64_t>(payload[payload_pos++]) << (56 - 8 * b);
    }
    const std::uint64_t t = x ^ prev;
    prev = t;
    double d;
    std::memcpy(&d, &t, 8);
    out[i] = d;
  }
}

}  // namespace

int mantissa_bits_for_bound(double eps) {
  if (!(eps > 0.0)) {
    throw std::invalid_argument("qzc: relative bound must be positive");
  }
  if (eps >= 1.0) return 0;
  const int m = static_cast<int>(std::ceil(-std::log2(eps)));
  return std::min(m, 52);
}

double bound_for_mantissa_bits(int m) { return std::ldexp(1.0, -m); }

Bytes QzcCodec::compress(std::span<const double> data,
                         const compression::ErrorBound& bound,
                         compression::CodecScratch& scratch) const {
  if (bound.mode != compression::BoundMode::kPointwiseRelative) {
    throw std::invalid_argument("qzc: pointwise relative bound required");
  }
  const int mbits = mantissa_bits_for_bound(bound.value);
  const int drop = 52 - mbits;
  // Bytes of every truncated value that are structurally zero.
  const int trailing_zero_bytes = drop / 8;

  std::span<const double> values = data;
  if (shuffle_) {
    deinterleave(data, scratch.values);
    values = scratch.values;
  }

  // Stream 1: 2-bit leading-same-byte codes, packed 4 per byte.
  // Stream 2: differing payload bytes (big-endian significant first).
  Bytes& codes = scratch.codes;
  codes.clear();
  codes.reserve(values.size() / 4 + 1);
  Bytes& payload = scratch.payload;
  payload.clear();
  payload.reserve(values.size() * (8 - trailing_zero_bytes) / 2);

  std::uint64_t prev = 0;
  std::uint8_t code_accum = 0;
  int codes_in_accum = 0;
  for (double d : values) {
    std::uint64_t u;
    std::memcpy(&u, &d, 8);
    const std::uint64_t t = truncate_bits(u, mbits);
    const std::uint64_t x = t ^ prev;
    prev = t;

    int lead = leading_zero_bytes(x);
    if (lead > kMaxLeadCode) lead = kMaxLeadCode;
    code_accum = static_cast<std::uint8_t>((code_accum << 2) | lead);
    if (++codes_in_accum == 4) {
      codes.push_back(static_cast<std::byte>(code_accum));
      code_accum = 0;
      codes_in_accum = 0;
    }
    for (int b = lead; b < 8 - trailing_zero_bytes; ++b) {
      payload.push_back(static_cast<std::byte>((x >> (56 - 8 * b)) & 0xff));
    }
  }
  if (codes_in_accum > 0) {
    code_accum = static_cast<std::uint8_t>(code_accum
                                           << (2 * (4 - codes_in_accum)));
    codes.push_back(static_cast<std::byte>(code_accum));
  }

  // Concatenate [varint codes size][codes][payload] and zx-compress that
  // straight into the container being built.
  Bytes& streams = scratch.inner;
  streams.clear();
  streams.reserve(codes.size() + payload.size() + 10);
  put_varint(streams, codes.size());
  streams.insert(streams.end(), codes.begin(), codes.end());
  streams.insert(streams.end(), payload.begin(), payload.end());

  Bytes& out = scratch.packed;
  out.clear();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<std::byte>(shuffle_ ? 1 : 0));
  out.push_back(static_cast<std::byte>(mbits));
  put_varint(out, data.size());
  lossless::zx_compress_into(streams, {}, scratch.zx, out);
  return Bytes(out.begin(), out.end());
}

void QzcCodec::decompress(ByteSpan compressed, std::span<double> out,
                          compression::CodecScratch& scratch) const {
  const Header h = parse_header(compressed);
  if (out.size() != h.count) {
    throw std::runtime_error("qzc: output size mismatch");
  }
  Bytes& streams = scratch.inner;
  lossless::zx_decompress_into(compressed.subspan(h.payload_offset),
                               scratch.zx, streams);
  std::size_t offset = 0;
  const std::uint64_t codes_size = get_varint(streams, offset);
  if (offset + codes_size > streams.size()) {
    throw std::runtime_error("qzc: code stream truncated");
  }
  if (codes_size < (h.count + 3) / 4) {
    throw std::runtime_error("qzc: code stream too short for element count");
  }
  const ByteSpan codes(streams.data() + offset, codes_size);
  const ByteSpan payload(streams.data() + offset + codes_size,
                         streams.size() - offset - codes_size);

  if (!h.shuffled) {
    decode_values(h, codes, payload, out);
    return;
  }
  // Shuffled (Solution D): decode the planes into scratch and interleave
  // straight into `out` — no full-copy reinterleave temporary.
  scratch.values.resize(h.count);
  decode_values(h, codes, payload, scratch.values);
  const std::span<const double> planes = scratch.values;
  const std::size_t pairs = h.count / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    out[2 * i] = planes[i];
    out[2 * i + 1] = planes[pairs + i];
  }
  if (h.count % 2 != 0) out[h.count - 1] = planes[h.count - 1];
}

std::size_t QzcCodec::element_count(ByteSpan compressed) const {
  return parse_header(compressed).count;
}

}  // namespace cqs::qzc
