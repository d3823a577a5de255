#include "zfp/zfp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "compression/codec_scratch.hpp"
#include "lossless/zx.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CQS_ZFP_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CQS_ZFP_NEON 1
#include <arm_neon.h>
#endif

namespace cqs::zfp {
namespace {

constexpr std::byte kMagic0{'Z'};
constexpr std::byte kMagic1{'F'};
constexpr std::uint8_t kFlagRelative = 1;

// Fixed-point target: the block maximum is scaled to ~2^kFixedExp, leaving
// headroom for transform growth inside 62 negabinary planes.
constexpr int kFixedExp = 58;
constexpr int kEmaxBias = 1100;  // ilogb(double) in [-1074, 1023]
constexpr std::uint64_t kNegabinaryMask = 0xaaaaaaaaaaaaaaaaull;

inline std::uint64_t int_to_negabinary(std::int64_t q) {
  return (static_cast<std::uint64_t>(q) + kNegabinaryMask) ^ kNegabinaryMask;
}

inline std::int64_t negabinary_to_int(std::uint64_t u) {
  return static_cast<std::int64_t>((u ^ kNegabinaryMask) - kNegabinaryMask);
}

// ---------------------------------------------------------------------------
// Plane packing tables. A plane's 4 coefficient bits live in a nibble with
// coefficient i at bit (3 - i), so a nibble emitted through the multi-bit
// writer leaves MSB-first in ascending-i order — the exact order the
// historical per-bit coder produced. `extract[mask][nib]` packs the
// mask-selected bits (ascending i, first selected at the packed MSB);
// `deposit[mask][packed]` is its inverse.
// ---------------------------------------------------------------------------

struct PackTables {
  std::array<std::array<std::uint8_t, 16>, 16> extract{};
  std::array<std::array<std::uint8_t, 16>, 16> deposit{};
};

constexpr PackTables make_pack_tables() {
  PackTables t{};
  for (int mask = 0; mask < 16; ++mask) {
    for (int nib = 0; nib < 16; ++nib) {
      std::uint8_t packed = 0;
      for (int i = 0; i < 4; ++i) {
        if (mask & (8 >> i)) {
          packed = static_cast<std::uint8_t>((packed << 1) |
                                             ((nib >> (3 - i)) & 1));
        }
      }
      t.extract[mask][nib] = packed;
    }
    const int k = std::popcount(static_cast<unsigned>(mask));
    for (int packed = 0; packed < (1 << k); ++packed) {
      std::uint8_t nib = 0;
      int left = k;
      for (int i = 0; i < 4; ++i) {
        if (mask & (8 >> i)) {
          nib = static_cast<std::uint8_t>(nib |
                                          (((packed >> --left) & 1) << (3 - i)));
        }
      }
      t.deposit[mask][packed] = nib;
    }
  }
  return t;
}

constexpr PackTables kPack = make_pack_tables();

// ---------------------------------------------------------------------------
// Embedded bit-plane coder. Group-test / significance / refinement bits are
// gathered into packed words per plane and move through BitWriter's
// multi-bit path; the emitted bitstream is identical to the per-bit coder.
// ---------------------------------------------------------------------------

void encode_block(BitWriter& writer, const std::array<std::uint64_t, 4>& u,
                  int kept) {
  const int lo = kTotalPlanes - kept;
  int plane = kTotalPlanes - 1;

  // Local accumulator so a plane's refinement + group + significance bits
  // cost one writer call, not one per field.
  std::uint64_t acc = 0;
  int nacc = 0;
  const auto put = [&](std::uint64_t value, int nbits) {
    if (nacc + nbits > 64) {
      writer.write(acc, nacc);
      acc = 0;
      nacc = 0;
    }
    acc = (acc << nbits) | value;
    nacc += nbits;
  };

  // While nothing is significant, every plane above the top set bit costs
  // exactly one zero group bit — emit the whole run in one shot. `u` is
  // never all-zero here (empty blocks short-circuit before encoding).
  const std::uint64_t any = u[0] | u[1] | u[2] | u[3];
  const int top = 63 - std::countl_zero(any);
  if (plane > top) {
    const int zeros = std::min(plane - top, kept);
    put(0, zeros);
    plane -= zeros;
  }

  std::uint8_t sig = 0;
  for (; plane >= lo; --plane) {
    const std::uint8_t nib = static_cast<std::uint8_t>(
        (((u[0] >> plane) & 1u) << 3) | (((u[1] >> plane) & 1u) << 2) |
        (((u[2] >> plane) & 1u) << 1) | ((u[3] >> plane) & 1u));
    if (sig == 0xF) {
      put(nib, 4);  // refinement only: every coefficient is significant
      continue;
    }
    put(kPack.extract[sig][nib], std::popcount(static_cast<unsigned>(sig)));
    const std::uint8_t ins = static_cast<std::uint8_t>(~sig & 0xF);
    const std::uint8_t newly = static_cast<std::uint8_t>(nib & ins);
    if (newly == 0) {
      put(0, 1);  // group test: nobody becomes significant at this plane
      continue;
    }
    put(1, 1);
    put(kPack.extract[ins][nib], std::popcount(static_cast<unsigned>(ins)));
    sig |= newly;
  }
  if (nacc > 0) writer.write(acc, nacc);
}

void decode_block(BitReader& reader, std::array<std::uint64_t, 4>& u,
                  int kept) {
  u = {0, 0, 0, 0};
  const int lo = kTotalPlanes - kept;
  int plane = kTotalPlanes - 1;
  std::uint8_t sig = 0;

  const auto deposit = [&](std::uint8_t nib, int p) {
    u[0] |= static_cast<std::uint64_t>((nib >> 3) & 1u) << p;
    u[1] |= static_cast<std::uint64_t>((nib >> 2) & 1u) << p;
    u[2] |= static_cast<std::uint64_t>((nib >> 1) & 1u) << p;
    u[3] |= static_cast<std::uint64_t>(nib & 1u) << p;
  };

  // Leading zero-group planes arrive as a run of 0 bits; count the run in
  // the peek window instead of one read_bit per plane.
  while (plane >= lo && sig == 0) {
    const int n = std::min(plane - lo + 1, 57);
    const std::uint64_t w = reader.peek(n);
    if (w == 0) {
      reader.consume(n);
      plane -= n;
      continue;
    }
    const int zeros = n - std::bit_width(w);
    reader.consume(zeros + 1);  // the run plus the group bit that fired
    plane -= zeros;
    const auto nib = static_cast<std::uint8_t>(reader.read(4));
    deposit(nib, plane);
    sig = nib;
    --plane;
  }

  for (; plane >= lo; --plane) {
    if (sig == 0xF) {
      deposit(static_cast<std::uint8_t>(reader.read(4)), plane);
      continue;
    }
    const int nsig = std::popcount(static_cast<unsigned>(sig));
    if (nsig > 0) {
      deposit(kPack.deposit[sig][reader.read(nsig)], plane);
    }
    if (reader.read_bit() != 0) {
      const std::uint8_t ins = static_cast<std::uint8_t>(~sig & 0xF);
      const std::uint8_t nib =
          kPack.deposit[ins]
                       [reader.read(std::popcount(static_cast<unsigned>(ins)))];
      deposit(nib, plane);
      sig |= nib;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime-dispatched integer Haar lifting. All arithmetic is exact 64-bit
// integer work, so every backend is bit-identical to the scalar reference
// (pinned by zfp_test); dispatch mirrors qsim/gates.cpp.
// ---------------------------------------------------------------------------

#if defined(CQS_ZFP_AVX2)

__attribute__((target("avx2"))) inline __m256i asr1_epi64(__m256i x) {
  // AVX2 has no 64-bit arithmetic shift; for a shift by one, the sign bit
  // ORed back over the logical shift is exact.
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm256_or_si256(_mm256_srli_epi64(x, 1), _mm256_and_si256(x, sign));
}

__attribute__((target("avx2"))) inline __m128i asr1_epi64(__m128i x) {
  const __m128i sign =
      _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm_or_si128(_mm_srli_epi64(x, 1), _mm_and_si128(x, sign));
}

__attribute__((target("avx2"))) void forward_transform_avx2(
    std::array<std::int64_t, 4>& v) {
  const __m256i x =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.data()));
  // Pairwise lift: lanes 0/2 of d carry d1/d2 and of s carry s1/s2.
  const __m256i sw = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 3, 0, 1));
  const __m256i d = _mm256_sub_epi64(x, sw);
  const __m256i s = _mm256_add_epi64(sw, asr1_epi64(d));
  // Second level on (s1, s2): lane 0 of ds/ss holds the result.
  const __m256i s_sw = _mm256_permute4x64_epi64(s, _MM_SHUFFLE(1, 0, 3, 2));
  const __m256i ds = _mm256_sub_epi64(s, s_sw);
  const __m256i ss = _mm256_add_epi64(s_sw, asr1_epi64(ds));
  // Assemble {ss, ds, d1, d2}.
  const __m256i lo_pair = _mm256_unpacklo_epi64(ss, ds);
  const __m256i d_pair = _mm256_permute4x64_epi64(d, _MM_SHUFFLE(0, 0, 2, 0));
  const __m256i out = _mm256_permute2x128_si256(lo_pair, d_pair, 0x20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(v.data()), out);
}

__attribute__((target("avx2"))) void inverse_transform_avx2(
    std::array<std::int64_t, 4>& v) {
  // Level 2 is two scalar ops; level 1 un-lifts both pairs in one vector.
  const std::int64_t s2 = v[0] - (v[1] >> 1);
  const std::int64_t s1 = s2 + v[1];
  const __m128i s = _mm_set_epi64x(s2, s1);  // [s1, s2]
  const __m128i d =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(v.data() + 2));
  const __m128i qo = _mm_sub_epi64(s, asr1_epi64(d));  // [q1, q3]
  const __m128i qe = _mm_add_epi64(qo, d);             // [q0, q2]
  _mm_storeu_si128(reinterpret_cast<__m128i*>(v.data()),
                   _mm_unpacklo_epi64(qe, qo));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(v.data() + 2),
                   _mm_unpackhi_epi64(qe, qo));
}

#endif  // CQS_ZFP_AVX2

#if defined(CQS_ZFP_NEON)

void forward_transform_neon(std::array<std::int64_t, 4>& v) {
  const int64x2_t a = vld1q_s64(v.data());      // [v0, v1]
  const int64x2_t b = vld1q_s64(v.data() + 2);  // [v2, v3]
  const int64x2_t even = vzip1q_s64(a, b);      // [v0, v2]
  const int64x2_t odd = vzip2q_s64(a, b);       // [v1, v3]
  const int64x2_t d = vsubq_s64(even, odd);     // [d1, d2]
  const int64x2_t s = vaddq_s64(odd, vshrq_n_s64(d, 1));  // [s1, s2]
  const std::int64_t ds = vgetq_lane_s64(s, 0) - vgetq_lane_s64(s, 1);
  const std::int64_t ss = vgetq_lane_s64(s, 1) + (ds >> 1);
  v[0] = ss;
  v[1] = ds;
  vst1q_s64(v.data() + 2, d);
}

void inverse_transform_neon(std::array<std::int64_t, 4>& v) {
  const std::int64_t s2 = v[0] - (v[1] >> 1);
  const std::int64_t s1 = s2 + v[1];
  const int64x2_t s = vcombine_s64(vcreate_s64(static_cast<std::uint64_t>(s1)),
                                   vcreate_s64(static_cast<std::uint64_t>(s2)));
  const int64x2_t d = vld1q_s64(v.data() + 2);            // [d1, d2]
  const int64x2_t qo = vsubq_s64(s, vshrq_n_s64(d, 1));   // [q1, q3]
  const int64x2_t qe = vaddq_s64(qo, d);                  // [q0, q2]
  vst1q_s64(v.data(), vzip1q_s64(qe, qo));                // [q0, q1]
  vst1q_s64(v.data() + 2, vzip2q_s64(qe, qo));            // [q2, q3]
}

#endif  // CQS_ZFP_NEON

enum class TransformBackend { kScalar, kAvx2, kNeon };

TransformBackend detect_transform_backend() {
#if defined(CQS_ZFP_AVX2)
  if (__builtin_cpu_supports("avx2")) return TransformBackend::kAvx2;
#elif defined(CQS_ZFP_NEON)
  return TransformBackend::kNeon;
#endif
  return TransformBackend::kScalar;
}

const TransformBackend kTransformBackend = detect_transform_backend();

}  // namespace

namespace detail {

/// Exactly invertible two-level integer Haar lifting on 4 coefficients.
void forward_transform_scalar(std::array<std::int64_t, 4>& v) {
  const std::int64_t d1 = v[0] - v[1];
  const std::int64_t s1 = v[1] + (d1 >> 1);
  const std::int64_t d2 = v[2] - v[3];
  const std::int64_t s2 = v[3] + (d2 >> 1);
  const std::int64_t ds = s1 - s2;
  const std::int64_t ss = s2 + (ds >> 1);
  v = {ss, ds, d1, d2};
}

void inverse_transform_scalar(std::array<std::int64_t, 4>& v) {
  const std::int64_t ss = v[0];
  const std::int64_t ds = v[1];
  const std::int64_t d1 = v[2];
  const std::int64_t d2 = v[3];
  const std::int64_t s2 = ss - (ds >> 1);
  const std::int64_t s1 = s2 + ds;
  const std::int64_t q1 = s1 - (d1 >> 1);
  const std::int64_t q0 = q1 + d1;
  const std::int64_t q3 = s2 - (d2 >> 1);
  const std::int64_t q2 = q3 + d2;
  v = {q0, q1, q2, q3};
}

void forward_transform(std::array<std::int64_t, 4>& v) {
  switch (kTransformBackend) {
#if defined(CQS_ZFP_AVX2)
    case TransformBackend::kAvx2:
      forward_transform_avx2(v);
      return;
#endif
#if defined(CQS_ZFP_NEON)
    case TransformBackend::kNeon:
      forward_transform_neon(v);
      return;
#endif
    default:
      break;
  }
  forward_transform_scalar(v);
}

void inverse_transform(std::array<std::int64_t, 4>& v) {
  switch (kTransformBackend) {
#if defined(CQS_ZFP_AVX2)
    case TransformBackend::kAvx2:
      inverse_transform_avx2(v);
      return;
#endif
#if defined(CQS_ZFP_NEON)
    case TransformBackend::kNeon:
      inverse_transform_neon(v);
      return;
#endif
    default:
      break;
  }
  inverse_transform_scalar(v);
}

const char* transform_backend() {
  switch (kTransformBackend) {
    case TransformBackend::kAvx2: return "avx2";
    case TransformBackend::kNeon: return "neon";
    case TransformBackend::kScalar: return "scalar";
  }
  return "?";
}

}  // namespace detail

/// Planes to keep for an absolute tolerance given the block exponent:
/// dropped-plane error (incl. transform amplification) must stay <= tol.
int planes_for_tolerance(double tolerance, int emax) {
  if (!(tolerance > 0.0)) return kTotalPlanes;  // NaN or <= 0: exact
  if (std::isinf(tolerance)) return 0;
  const double ulp = std::ldexp(1.0, emax - kFixedExp);
  const double ratio = tolerance / ulp;
  // ldexp saturates at the double range: an overflowed ulp (ratio 0) means
  // the tolerance is below one ulp of the block scale — keep every plane;
  // an underflowed ulp (ratio inf) means the tolerance dwarfs the block.
  if (!(ratio > 0.0)) return kTotalPlanes;
  if (std::isinf(ratio)) return 0;
  const int p = static_cast<int>(std::floor(std::log2(ratio))) - 3;
  return std::clamp(kTotalPlanes - p, 0, kTotalPlanes);
}

ZfpCodec::ZfpCodec(int fixed_precision) : fixed_precision_(fixed_precision) {
  if (fixed_precision < 0 || fixed_precision > kTotalPlanes) {
    throw std::invalid_argument(
        "zfp: fixed_precision must be in [0, 62] planes");
  }
}

void ZfpCodec::compress_absolute_into(std::span<const double> data,
                                      double tolerance, std::uint8_t flags,
                                      Bytes& out) const {
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<std::byte>(flags));
  put_varint(out, data.size());

  BitWriter writer(out);
  for (std::size_t base = 0; base < data.size(); base += 4) {
    std::array<double, 4> block{};
    const std::size_t have = std::min<std::size_t>(4, data.size() - base);
    for (std::size_t i = 0; i < have; ++i) block[i] = data[base + i];

    double amax = 0.0;
    for (double d : block) {
      if (!std::isfinite(d)) {
        throw std::invalid_argument("zfp: nonfinite value unsupported");
      }
      amax = std::max(amax, std::abs(d));
    }
    if (amax == 0.0) {
      writer.write_bit(1);  // empty block
      continue;
    }
    writer.write_bit(0);
    const int emax = std::ilogb(amax);
    const int kept = fixed_precision_ > 0
                         ? fixed_precision_
                         : planes_for_tolerance(tolerance, emax);
    writer.write(static_cast<std::uint64_t>(emax + kEmaxBias), 12);
    writer.write(static_cast<std::uint64_t>(kept), 6);

    std::array<std::int64_t, 4> fixed{};
    const double scale = std::ldexp(1.0, kFixedExp - emax);
    for (int i = 0; i < 4; ++i) {
      fixed[i] = static_cast<std::int64_t>(std::llround(block[i] * scale));
    }
    detail::forward_transform(fixed);
    std::array<std::uint64_t, 4> u{};
    for (int i = 0; i < 4; ++i) u[i] = int_to_negabinary(fixed[i]);
    encode_block(writer, u, kept);
  }
  writer.flush();
}

void ZfpCodec::decompress_absolute(ByteSpan in, std::span<double> out) const {
  std::size_t offset = 3;
  const std::uint64_t count = get_varint(in, offset);
  if (out.size() != count) {
    throw std::runtime_error("zfp: output size mismatch");
  }
  BitReader reader(in.subspan(offset));
  for (std::size_t base = 0; base < count; base += 4) {
    const std::size_t have = std::min<std::size_t>(4, count - base);
    if (reader.read_bit() != 0) {
      for (std::size_t i = 0; i < have; ++i) out[base + i] = 0.0;
      continue;
    }
    const int emax = static_cast<int>(reader.read(12)) - kEmaxBias;
    const int kept = static_cast<int>(reader.read(6));
    std::array<std::uint64_t, 4> u{};
    decode_block(reader, u, kept);
    std::array<std::int64_t, 4> fixed{};
    for (int i = 0; i < 4; ++i) fixed[i] = negabinary_to_int(u[i]);
    detail::inverse_transform(fixed);
    const double scale = std::ldexp(1.0, emax - kFixedExp);
    for (std::size_t i = 0; i < have; ++i) {
      out[base + i] = static_cast<double>(fixed[i]) * scale;
    }
  }
}

Bytes ZfpCodec::compress(std::span<const double> data,
                         const compression::ErrorBound& bound,
                         compression::CodecScratch& scratch) const {
  compress_into(data, bound, scratch, scratch.packed);
  return Bytes(scratch.packed.begin(), scratch.packed.end());
}

void ZfpCodec::compress_into(std::span<const double> data,
                             const compression::ErrorBound& bound,
                             compression::CodecScratch& scratch,
                             Bytes& out) const {
  if (!supports(bound.mode)) {
    throw std::invalid_argument("zfp: unsupported bound mode");
  }
  if (!(bound.value > 0.0) && fixed_precision_ <= 0) {
    throw std::invalid_argument("zfp: non-positive bound");
  }
  out.clear();
  if (bound.mode == compression::BoundMode::kAbsolute) {
    compress_absolute_into(data, bound.value, 0, out);
    return;
  }

  // Pointwise-relative via log preprocessing (the paper's methodology for
  // ZFP): compress log2|d| under the equivalent absolute bound.
  const double log_bound = std::log2(1.0 + bound.value);
  auto& logs = scratch.values;
  logs.clear();
  logs.reserve(data.size());
  auto& negative = scratch.mask_a;
  auto& special = scratch.mask_b;
  negative.assign(data.size(), false);
  special.assign(data.size(), false);
  Bytes& special_values = scratch.special_bytes;
  special_values.clear();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double d = data[i];
    negative[i] = std::signbit(d);
    if (d == 0.0 || !std::isfinite(d)) {
      special[i] = true;
      put_scalar(special_values, d);
      logs.push_back(0.0);
    } else {
      logs.push_back(std::log2(std::abs(d)));
    }
  }
  Bytes& inner = scratch.codes;
  inner.clear();
  compress_absolute_into(logs, log_bound, kFlagRelative, inner);

  Bytes& sides = scratch.payload;
  sides.clear();
  write_bitmask(sides, negative);
  write_bitmask(sides, special);
  put_varint(sides, special_values.size() / sizeof(double));
  sides.insert(sides.end(), special_values.begin(), special_values.end());

  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<std::byte>(kFlagRelative));
  put_varint(out, data.size());
  put_varint(out, inner.size());
  out.insert(out.end(), inner.begin(), inner.end());
  lossless::zx_compress_into(sides, {}, scratch.zx, out);
}

void ZfpCodec::decompress(ByteSpan compressed, std::span<double> out,
                          compression::CodecScratch& scratch) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("zfp: bad magic");
  }
  const auto flags = static_cast<std::uint8_t>(compressed[2]);
  if ((flags & kFlagRelative) == 0) {
    decompress_absolute(compressed, out);
    return;
  }
  std::size_t offset = 3;
  const std::uint64_t count = get_varint(compressed, offset);
  if (out.size() != count) {
    throw std::runtime_error("zfp: output size mismatch");
  }
  const std::uint64_t inner_size = get_varint(compressed, offset);
  if (offset + inner_size > compressed.size()) {
    throw std::runtime_error("zfp: inner blob truncated");
  }
  auto& logs = scratch.values;
  logs.resize(count);
  decompress_absolute(compressed.subspan(offset, inner_size), logs);
  Bytes& sides = scratch.inner;
  lossless::zx_decompress_into(compressed.subspan(offset + inner_size),
                               scratch.zx, sides);
  std::size_t pos = 0;
  auto& negative = scratch.mask_a;
  auto& special = scratch.mask_b;
  read_bitmask(sides, pos, negative, count);
  read_bitmask(sides, pos, special, count);
  const std::uint64_t special_count = read_double_count(sides, pos, count);
  auto& special_values = scratch.special_values;
  special_values.resize(special_count);
  for (std::uint64_t i = 0; i < special_count; ++i) {
    special_values[i] = get_scalar<double>(sides, pos);
  }
  std::size_t special_pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (special[i]) {
      if (special_pos >= special_values.size()) {
        throw std::runtime_error("zfp: special stream truncated");
      }
      out[i] = special_values[special_pos++];
    } else {
      const double magnitude = std::exp2(logs[i]);
      out[i] = negative[i] ? -magnitude : magnitude;
    }
  }
}

std::size_t ZfpCodec::element_count(ByteSpan compressed) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("zfp: bad magic");
  }
  std::size_t offset = 3;
  return get_varint(compressed, offset);
}

}  // namespace cqs::zfp
