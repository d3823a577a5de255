// ZFP-like domain-transform lossy compressor (the paper's transform-based
// baseline). Operates on 1D blocks of 4 doubles:
//
//   1. Common-exponent alignment: each block is converted to 62-bit fixed
//      point relative to the block's maximum exponent.
//   2. Orthogonal decorrelating block transform: an exactly invertible
//      two-level integer Haar lifting (runtime-dispatched AVX2/NEON with a
//      bit-identical scalar reference).
//   3. Negabinary mapping + embedded bit-plane coding with per-plane group
//      testing; planes below the precision cutoff are dropped — the only
//      lossy step, exactly as in ZFP. Planes are gathered into packed
//      group-test/refinement words and emitted through BitWriter's
//      multi-bit path (never one call per bit).
//
// Modes, mirroring libzfp's zfp_stream_set_accuracy/_precision split:
//   - fixed-accuracy (the default): the per-block plane cutoff is derived
//     from the caller's error bound — absolute bounds directly, pointwise
//     relative bounds via the standard log-preprocessing wrapper the paper
//     applies for fairness;
//   - fixed-precision: a constructor-pinned plane count independent of the
//     bound.
#pragma once

#include <array>
#include <cstdint>

#include "compression/compressor.hpp"

namespace cqs::zfp {

/// Total bit planes carried by the fixed-point representation.
inline constexpr int kTotalPlanes = 62;

/// Planes to keep for an absolute tolerance given the block exponent:
/// dropped-plane error (incl. transform amplification) must stay <= tol.
/// Total on every input: a NaN or non-positive tolerance keeps every plane
/// (exact), an infinite tolerance keeps none, and extreme (tolerance,
/// emax) pairs clamp to [0, kTotalPlanes] without UB. Exposed for the
/// edge-case property test.
int planes_for_tolerance(double tolerance, int emax);

namespace detail {

/// Exactly invertible two-level integer Haar lifting on 4 coefficients —
/// scalar reference and the runtime-dispatched (AVX2/NEON) entry the
/// codec uses. The dispatched path is bit-identical to the scalar one by
/// construction (pure integer arithmetic); pinned by zfp_test.
void forward_transform_scalar(std::array<std::int64_t, 4>& v);
void inverse_transform_scalar(std::array<std::int64_t, 4>& v);
void forward_transform(std::array<std::int64_t, 4>& v);
void inverse_transform(std::array<std::int64_t, 4>& v);

/// Active transform backend: "avx2", "neon", or "scalar".
const char* transform_backend();

}  // namespace detail

class ZfpCodec final : public compression::Compressor {
 public:
  /// `fixed_precision`: if > 0, encode exactly this many bit planes per
  /// block regardless of the bound (ZFP's fixed-precision mode). Throws
  /// std::invalid_argument outside [0, kTotalPlanes].
  explicit ZfpCodec(int fixed_precision = 0);

  std::string name() const override { return "zfp"; }
  bool supports(compression::BoundMode mode) const override {
    return mode == compression::BoundMode::kAbsolute ||
           mode == compression::BoundMode::kPointwiseRelative;
  }
  using Compressor::compress;
  using Compressor::decompress;
  Bytes compress(std::span<const double> data,
                 const compression::ErrorBound& bound,
                 compression::CodecScratch& scratch) const override;
  void decompress(ByteSpan compressed, std::span<double> out,
                  compression::CodecScratch& scratch) const override;
  std::size_t element_count(ByteSpan compressed) const override;

  /// Builds the zfp container into `out` (cleared first) with pooled
  /// scratch and no extra copy — the entry point the rANS entropy stage
  /// re-codes. `out` must not alias the scratch buffers the codec uses
  /// internally (values/codes/payload/masks); scratch.packed is fine.
  void compress_into(std::span<const double> data,
                     const compression::ErrorBound& bound,
                     compression::CodecScratch& scratch, Bytes& out) const;

 private:
  void compress_absolute_into(std::span<const double> data, double tolerance,
                              std::uint8_t flags, Bytes& out) const;
  void decompress_absolute(ByteSpan inner, std::span<double> out) const;

  int fixed_precision_;
};

}  // namespace cqs::zfp
