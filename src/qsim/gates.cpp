#include "qsim/gates.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CQS_KERNELS_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CQS_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace cqs::qsim {
namespace {

constexpr double kInvSqrt2 = 0.7071067811865475244;

/// r * e^{ix} for either sign of r. std::polar requires r >= 0, which
/// u3's cos(theta/2) and sin(theta/2) break for theta outside [0, pi];
/// this is the product libstdc++'s polar forms, bit for bit.
Amplitude scaled_phase(double r, double x) {
  return Amplitude(r * std::cos(x), r * std::sin(x));
}

Mat2 u3_matrix(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  return {Amplitude(c, 0.0), -scaled_phase(s, lambda), scaled_phase(s, phi),
          scaled_phase(c, phi + lambda)};
}

}  // namespace

bool Mat2::approx_unitary(double tol) const {
  const Mat2 product = *this * adjoint();
  return std::abs(product.u00 - Amplitude(1, 0)) < tol &&
         std::abs(product.u01) < tol && std::abs(product.u10) < tol &&
         std::abs(product.u11 - Amplitude(1, 0)) < tol;
}

Mat2 gate_matrix(const GateOp& op) {
  using namespace std::complex_literals;
  const double theta = op.params[0];
  switch (op.kind) {
    case GateKind::kH:
      return {kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2};
    case GateKind::kX:
    case GateKind::kCX:
    case GateKind::kCCX:
      return {0, 1, 1, 0};
    case GateKind::kY:
      return {0, -1i, 1i, 0};
    case GateKind::kZ:
    case GateKind::kCZ:
      return {1, 0, 0, -1};
    case GateKind::kS:
      return {1, 0, 0, 1i};
    case GateKind::kSdg:
      return {1, 0, 0, -1i};
    case GateKind::kT:
      return {1, 0, 0, std::polar(1.0, std::numbers::pi / 4)};
    case GateKind::kTdg:
      return {1, 0, 0, std::polar(1.0, -std::numbers::pi / 4)};
    case GateKind::kRx:
      return {std::cos(theta / 2), -1i * std::sin(theta / 2),
              -1i * std::sin(theta / 2), std::cos(theta / 2)};
    case GateKind::kRy:
      return {std::cos(theta / 2), -std::sin(theta / 2), std::sin(theta / 2),
              std::cos(theta / 2)};
    case GateKind::kRz:
      return {std::polar(1.0, -theta / 2), 0, 0, std::polar(1.0, theta / 2)};
    case GateKind::kPhase:
    case GateKind::kCPhase:
      return {1, 0, 0, std::polar(1.0, theta)};
    case GateKind::kU3:
      return u3_matrix(op.params[0], op.params[1], op.params[2]);
    case GateKind::kSqrtX:
      return {Amplitude(0.5, 0.5), Amplitude(0.5, -0.5), Amplitude(0.5, -0.5),
              Amplitude(0.5, 0.5)};
    case GateKind::kSqrtY:
      return {Amplitude(0.5, 0.5), Amplitude(-0.5, -0.5),
              Amplitude(0.5, 0.5), Amplitude(0.5, 0.5)};
    case GateKind::kSqrtW:
      // sqrt(W) with W = (X + Y)/sqrt(2); Google supremacy gate set.
      // Derived by diagonalizing W = [[0, e^{-i pi/4}], [e^{i pi/4}, 0]].
      return {Amplitude(0.5, 0.5), Amplitude(0.0, -kInvSqrt2),
              Amplitude(kInvSqrt2, 0.0), Amplitude(0.5, 0.5)};
    case GateKind::kSwap:
      return {1, 0, 0, 1};  // structural; never applied as a 2x2
    case GateKind::kU3G: {
      const Mat2 base =
          u3_matrix(op.params[0], op.params[1], op.params[2]);
      const Amplitude phase = std::polar(1.0, op.params[3]);
      return {phase * base.u00, phase * base.u01, phase * base.u10,
              phase * base.u11};
    }
  }
  throw std::invalid_argument("gate_matrix: unknown gate kind");
}

GateOp decompose_unitary(const Mat2& m, int target) {
  // Write m = e^{i alpha} [[c, -e^{i lambda} s], [e^{i phi} s,
  // e^{i (phi + lambda)} c]] with c = cos(theta/2), s = sin(theta/2).
  const double c = std::abs(m.u00);
  const double s = std::abs(m.u10);
  const double theta = 2.0 * std::atan2(s, c);
  double alpha;
  double phi;
  double lambda;
  if (c > 1e-12) {
    alpha = std::arg(m.u00);
    phi = s > 1e-12 ? std::arg(m.u10) - alpha : 0.0;
    lambda = std::arg(m.u11) - alpha - phi;
  } else {
    // theta = pi: u00 = u11 = 0; pick lambda = 0.
    lambda = 0.0;
    alpha = std::arg(-m.u01);
    phi = std::arg(m.u10) - alpha;
  }
  return {GateKind::kU3G, target, {-1, -1}, {theta, phi, lambda, alpha}};
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::kH: return "h";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kS: return "s";
    case GateKind::kSdg: return "sdg";
    case GateKind::kT: return "t";
    case GateKind::kTdg: return "tdg";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kPhase: return "p";
    case GateKind::kU3: return "u3";
    case GateKind::kU3G: return "u3g";
    case GateKind::kSqrtX: return "sx";
    case GateKind::kSqrtY: return "sy";
    case GateKind::kSqrtW: return "sw";
    case GateKind::kCX: return "cx";
    case GateKind::kCZ: return "cz";
    case GateKind::kCPhase: return "cp";
    case GateKind::kSwap: return "swap";
    case GateKind::kCCX: return "ccx";
  }
  return "?";
}

bool is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRz:
    case GateKind::kPhase:
    case GateKind::kCZ:
    case GateKind::kCPhase:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Apply kernels. The scalar loops below are the reference semantics; the
// SIMD paths reproduce them operation-for-operation. std::complex multiply
// on finite inputs lowers to (a.re*c.re - a.im*c.im, a.re*c.im + a.im*c.re)
// with no fusion, and IEEE-754 add/multiply are bitwise commutative on
// non-NaN values, so issuing the same products through mul/add/sub/addsub
// vector instructions (never FMA) yields bit-identical results.
// ---------------------------------------------------------------------------

namespace {

void scale_scalar(Amplitude* amps, std::uint64_t count, Amplitude factor,
                  std::uint64_t ctrl) {
  for (std::uint64_t i = 0; i < count; ++i) {
    if ((i & ctrl) != ctrl) continue;
    amps[i] *= factor;
  }
}

void diag_scalar(Amplitude* amps, std::uint64_t count, const Mat2& m,
                 std::uint64_t target_bit, std::uint64_t ctrl) {
  for (std::uint64_t i = 0; i < count; ++i) {
    if ((i & ctrl) != ctrl) continue;
    amps[i] *= (i & target_bit) ? m.u11 : m.u00;
  }
}

void mix_scalar(Amplitude* amps, std::uint64_t count, const Mat2& m,
                std::uint64_t stride, std::uint64_t ctrl) {
  for (std::uint64_t base = 0; base < count; base += 2 * stride) {
    for (std::uint64_t i = base; i < base + stride; ++i) {
      if ((i & ctrl) != ctrl) continue;
      const Amplitude a0 = amps[i];
      const Amplitude a1 = amps[i + stride];
      amps[i] = m.u00 * a0 + m.u01 * a1;
      amps[i + stride] = m.u10 * a0 + m.u11 * a1;
    }
  }
}

void pair_scalar(Amplitude* a0, Amplitude* a1, std::uint64_t count,
                 const Mat2& m, std::uint64_t ctrl) {
  for (std::uint64_t i = 0; i < count; ++i) {
    if ((i & ctrl) != ctrl) continue;
    const Amplitude x = a0[i];
    const Amplitude y = a1[i];
    a0[i] = m.u00 * x + m.u01 * y;
    a1[i] = m.u10 * x + m.u11 * y;
  }
}

#if defined(CQS_KERNELS_AVX2)

// Two complexes per __m256d: [c0.re, c0.im, c1.re, c1.im]. `re`/`im` carry
// the per-lane coefficient components; addsub gives (re-part subtract,
// im-part add) exactly as the scalar formula.
__attribute__((target("avx2"))) inline __m256d cmul2(__m256d v, __m256d re,
                                                     __m256d im) {
  const __m256d swapped = _mm256_permute_pd(v, 0b0101);
  return _mm256_addsub_pd(_mm256_mul_pd(v, re), _mm256_mul_pd(swapped, im));
}

__attribute__((target("avx2"))) void scale_avx2(Amplitude* amps,
                                                std::uint64_t count,
                                                Amplitude factor) {
  double* d = reinterpret_cast<double*>(amps);
  const __m256d re = _mm256_set1_pd(factor.real());
  const __m256d im = _mm256_set1_pd(factor.imag());
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    _mm256_storeu_pd(d + 2 * i, cmul2(_mm256_loadu_pd(d + 2 * i), re, im));
  }
  for (; i < count; ++i) amps[i] *= factor;
}

__attribute__((target("avx2"))) void diag_avx2(Amplitude* amps,
                                               std::uint64_t count,
                                               const Mat2& m,
                                               std::uint64_t target_bit) {
  double* d = reinterpret_cast<double*>(amps);
  if (target_bit == 1) {
    // Factors alternate per amplitude: lanes [u00, u00, u11, u11].
    const __m256d re = _mm256_set_pd(m.u11.real(), m.u11.real(),
                                     m.u00.real(), m.u00.real());
    const __m256d im = _mm256_set_pd(m.u11.imag(), m.u11.imag(),
                                     m.u00.imag(), m.u00.imag());
    std::uint64_t i = 0;
    for (; i + 2 <= count; i += 2) {
      _mm256_storeu_pd(d + 2 * i, cmul2(_mm256_loadu_pd(d + 2 * i), re, im));
    }
    for (; i < count; ++i) amps[i] *= (i & target_bit) ? m.u11 : m.u00;
    return;
  }
  // Runs of target_bit amplitudes share a factor; target_bit >= 2 is even,
  // so each run is whole vectors.
  const __m256d re00 = _mm256_set1_pd(m.u00.real());
  const __m256d im00 = _mm256_set1_pd(m.u00.imag());
  const __m256d re11 = _mm256_set1_pd(m.u11.real());
  const __m256d im11 = _mm256_set1_pd(m.u11.imag());
  const std::uint64_t group = 2 * target_bit;
  const std::uint64_t full = count - count % group;
  for (std::uint64_t base = 0; base < full; base += group) {
    for (std::uint64_t i = base; i < base + target_bit; i += 2) {
      _mm256_storeu_pd(d + 2 * i,
                       cmul2(_mm256_loadu_pd(d + 2 * i), re00, im00));
    }
    for (std::uint64_t i = base + target_bit; i < base + group; i += 2) {
      _mm256_storeu_pd(d + 2 * i,
                       cmul2(_mm256_loadu_pd(d + 2 * i), re11, im11));
    }
  }
  for (std::uint64_t i = full; i < count; ++i) {
    amps[i] *= (i & target_bit) ? m.u11 : m.u00;
  }
}

__attribute__((target("avx2"))) void mix_avx2(Amplitude* amps,
                                              std::uint64_t count,
                                              const Mat2& m,
                                              std::uint64_t stride) {
  double* d = reinterpret_cast<double*>(amps);
  if (stride == 1) {
    // Pairs are adjacent: one vector holds (a0, a1); split it into
    // broadcast halves and combine with row-interleaved coefficients so
    // lanes 0-1 get u00*a0 + u01*a1 and lanes 2-3 get u10*a0 + u11*a1.
    const __m256d reA = _mm256_set_pd(m.u10.real(), m.u10.real(),
                                      m.u00.real(), m.u00.real());
    const __m256d imA = _mm256_set_pd(m.u10.imag(), m.u10.imag(),
                                      m.u00.imag(), m.u00.imag());
    const __m256d reB = _mm256_set_pd(m.u11.real(), m.u11.real(),
                                      m.u01.real(), m.u01.real());
    const __m256d imB = _mm256_set_pd(m.u11.imag(), m.u11.imag(),
                                      m.u01.imag(), m.u01.imag());
    for (std::uint64_t i = 0; i < count; i += 2) {
      const __m256d v = _mm256_loadu_pd(d + 2 * i);
      const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
      const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
      _mm256_storeu_pd(
          d + 2 * i, _mm256_add_pd(cmul2(a0, reA, imA), cmul2(a1, reB, imB)));
    }
    return;
  }
  const __m256d re00 = _mm256_set1_pd(m.u00.real());
  const __m256d im00 = _mm256_set1_pd(m.u00.imag());
  const __m256d re01 = _mm256_set1_pd(m.u01.real());
  const __m256d im01 = _mm256_set1_pd(m.u01.imag());
  const __m256d re10 = _mm256_set1_pd(m.u10.real());
  const __m256d im10 = _mm256_set1_pd(m.u10.imag());
  const __m256d re11 = _mm256_set1_pd(m.u11.real());
  const __m256d im11 = _mm256_set1_pd(m.u11.imag());
  for (std::uint64_t base = 0; base < count; base += 2 * stride) {
    for (std::uint64_t i = base; i < base + stride; i += 2) {
      const __m256d v0 = _mm256_loadu_pd(d + 2 * i);
      const __m256d v1 = _mm256_loadu_pd(d + 2 * (i + stride));
      _mm256_storeu_pd(d + 2 * i, _mm256_add_pd(cmul2(v0, re00, im00),
                                                cmul2(v1, re01, im01)));
      _mm256_storeu_pd(d + 2 * (i + stride),
                       _mm256_add_pd(cmul2(v0, re10, im10),
                                     cmul2(v1, re11, im11)));
    }
  }
}

__attribute__((target("avx2"))) void pair_avx2(Amplitude* a0, Amplitude* a1,
                                               std::uint64_t count,
                                               const Mat2& m) {
  double* x = reinterpret_cast<double*>(a0);
  double* y = reinterpret_cast<double*>(a1);
  const __m256d re00 = _mm256_set1_pd(m.u00.real());
  const __m256d im00 = _mm256_set1_pd(m.u00.imag());
  const __m256d re01 = _mm256_set1_pd(m.u01.real());
  const __m256d im01 = _mm256_set1_pd(m.u01.imag());
  const __m256d re10 = _mm256_set1_pd(m.u10.real());
  const __m256d im10 = _mm256_set1_pd(m.u10.imag());
  const __m256d re11 = _mm256_set1_pd(m.u11.real());
  const __m256d im11 = _mm256_set1_pd(m.u11.imag());
  std::uint64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d v0 = _mm256_loadu_pd(x + 2 * i);
    const __m256d v1 = _mm256_loadu_pd(y + 2 * i);
    _mm256_storeu_pd(x + 2 * i, _mm256_add_pd(cmul2(v0, re00, im00),
                                              cmul2(v1, re01, im01)));
    _mm256_storeu_pd(y + 2 * i, _mm256_add_pd(cmul2(v0, re10, im10),
                                              cmul2(v1, re11, im11)));
  }
  for (; i < count; ++i) {
    const Amplitude vx = a0[i];
    const Amplitude vy = a1[i];
    a0[i] = m.u00 * vx + m.u01 * vy;
    a1[i] = m.u10 * vx + m.u11 * vy;
  }
}

#endif  // CQS_KERNELS_AVX2

#if defined(CQS_KERNELS_NEON)

// One complex per float64x2_t. `im` holds (-c.im, c.im): a + (-b) is
// bitwise a - b and a product with a negated factor is exactly the negated
// product, so this matches the scalar formula bit-for-bit without FMA
// (gates.cpp builds with -ffp-contract=off so vmulq/vaddq never fuse).
inline float64x2_t cmul1(float64x2_t v, float64x2_t re, float64x2_t im) {
  const float64x2_t swapped = vextq_f64(v, v, 1);
  return vaddq_f64(vmulq_f64(v, re), vmulq_f64(swapped, im));
}

inline float64x2_t coeff_re(Amplitude c) { return vdupq_n_f64(c.real()); }
inline float64x2_t coeff_im(Amplitude c) {
  return (float64x2_t){-c.imag(), c.imag()};
}

void scale_neon(Amplitude* amps, std::uint64_t count, Amplitude factor) {
  double* d = reinterpret_cast<double*>(amps);
  const float64x2_t re = coeff_re(factor);
  const float64x2_t im = coeff_im(factor);
  for (std::uint64_t i = 0; i < count; ++i) {
    vst1q_f64(d + 2 * i, cmul1(vld1q_f64(d + 2 * i), re, im));
  }
}

void diag_neon(Amplitude* amps, std::uint64_t count, const Mat2& m,
               std::uint64_t target_bit) {
  double* d = reinterpret_cast<double*>(amps);
  const float64x2_t re00 = coeff_re(m.u00), im00 = coeff_im(m.u00);
  const float64x2_t re11 = coeff_re(m.u11), im11 = coeff_im(m.u11);
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool hi = (i & target_bit) != 0;
    vst1q_f64(d + 2 * i, cmul1(vld1q_f64(d + 2 * i), hi ? re11 : re00,
                               hi ? im11 : im00));
  }
}

void mix_neon(Amplitude* amps, std::uint64_t count, const Mat2& m,
              std::uint64_t stride) {
  double* d = reinterpret_cast<double*>(amps);
  const float64x2_t re00 = coeff_re(m.u00), im00 = coeff_im(m.u00);
  const float64x2_t re01 = coeff_re(m.u01), im01 = coeff_im(m.u01);
  const float64x2_t re10 = coeff_re(m.u10), im10 = coeff_im(m.u10);
  const float64x2_t re11 = coeff_re(m.u11), im11 = coeff_im(m.u11);
  for (std::uint64_t base = 0; base < count; base += 2 * stride) {
    for (std::uint64_t i = base; i < base + stride; ++i) {
      const float64x2_t v0 = vld1q_f64(d + 2 * i);
      const float64x2_t v1 = vld1q_f64(d + 2 * (i + stride));
      vst1q_f64(d + 2 * i,
                vaddq_f64(cmul1(v0, re00, im00), cmul1(v1, re01, im01)));
      vst1q_f64(d + 2 * (i + stride),
                vaddq_f64(cmul1(v0, re10, im10), cmul1(v1, re11, im11)));
    }
  }
}

void pair_neon(Amplitude* a0, Amplitude* a1, std::uint64_t count,
               const Mat2& m) {
  double* x = reinterpret_cast<double*>(a0);
  double* y = reinterpret_cast<double*>(a1);
  const float64x2_t re00 = coeff_re(m.u00), im00 = coeff_im(m.u00);
  const float64x2_t re01 = coeff_re(m.u01), im01 = coeff_im(m.u01);
  const float64x2_t re10 = coeff_re(m.u10), im10 = coeff_im(m.u10);
  const float64x2_t re11 = coeff_re(m.u11), im11 = coeff_im(m.u11);
  for (std::uint64_t i = 0; i < count; ++i) {
    const float64x2_t v0 = vld1q_f64(x + 2 * i);
    const float64x2_t v1 = vld1q_f64(y + 2 * i);
    vst1q_f64(x + 2 * i,
              vaddq_f64(cmul1(v0, re00, im00), cmul1(v1, re01, im01)));
    vst1q_f64(y + 2 * i,
              vaddq_f64(cmul1(v0, re10, im10), cmul1(v1, re11, im11)));
  }
}

#endif  // CQS_KERNELS_NEON

}  // namespace

const char* kernel_backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kAvx2: return "avx2";
    case KernelBackend::kNeon: return "neon";
  }
  return "?";
}

KernelBackend detect_kernel_backend(bool enable_simd) {
  if (!enable_simd) return KernelBackend::kScalar;
#if defined(CQS_KERNELS_AVX2)
  if (__builtin_cpu_supports("avx2")) return KernelBackend::kAvx2;
#elif defined(CQS_KERNELS_NEON)
  return KernelBackend::kNeon;
#endif
  return KernelBackend::kScalar;
}

void scale_kernel(Amplitude* amps, std::uint64_t count, Amplitude factor,
                  std::uint64_t ctrl, KernelBackend backend) {
  if (ctrl != 0 || count < 2) backend = KernelBackend::kScalar;
  switch (backend) {
#if defined(CQS_KERNELS_AVX2)
    case KernelBackend::kAvx2:
      scale_avx2(amps, count, factor);
      return;
#endif
#if defined(CQS_KERNELS_NEON)
    case KernelBackend::kNeon:
      scale_neon(amps, count, factor);
      return;
#endif
    default:
      break;
  }
  scale_scalar(amps, count, factor, ctrl);
}

void diag_kernel(Amplitude* amps, std::uint64_t count, const Mat2& m,
                 std::uint64_t target_bit, std::uint64_t ctrl,
                 KernelBackend backend) {
  if (ctrl != 0 || count < 2) backend = KernelBackend::kScalar;
  switch (backend) {
#if defined(CQS_KERNELS_AVX2)
    case KernelBackend::kAvx2:
      diag_avx2(amps, count, m, target_bit);
      return;
#endif
#if defined(CQS_KERNELS_NEON)
    case KernelBackend::kNeon:
      diag_neon(amps, count, m, target_bit);
      return;
#endif
    default:
      break;
  }
  diag_scalar(amps, count, m, target_bit, ctrl);
}

void mix_kernel(Amplitude* amps, std::uint64_t count, const Mat2& m,
                std::uint64_t target_bit, std::uint64_t ctrl,
                KernelBackend backend) {
  if (count == 0 || target_bit == 0 || count % (2 * target_bit) != 0) return;
  if (ctrl != 0) backend = KernelBackend::kScalar;
  switch (backend) {
#if defined(CQS_KERNELS_AVX2)
    case KernelBackend::kAvx2:
      mix_avx2(amps, count, m, target_bit);
      return;
#endif
#if defined(CQS_KERNELS_NEON)
    case KernelBackend::kNeon:
      mix_neon(amps, count, m, target_bit);
      return;
#endif
    default:
      break;
  }
  mix_scalar(amps, count, m, target_bit, ctrl);
}

void pair_kernel(Amplitude* a0, Amplitude* a1, std::uint64_t count,
                 const Mat2& m, std::uint64_t ctrl, KernelBackend backend) {
  if (ctrl != 0 || count < 2) backend = KernelBackend::kScalar;
  switch (backend) {
#if defined(CQS_KERNELS_AVX2)
    case KernelBackend::kAvx2:
      pair_avx2(a0, a1, count, m);
      return;
#endif
#if defined(CQS_KERNELS_NEON)
    case KernelBackend::kNeon:
      pair_neon(a0, a1, count, m);
      return;
#endif
    default:
      break;
  }
  pair_scalar(a0, a1, count, m, ctrl);
}

}  // namespace cqs::qsim
