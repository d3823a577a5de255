// Codec arbiter: per-block, per-pass codec selection (the paper's Figs.
// 9-14 observation that compression effectiveness is dictated by block
// state structure). Spiky or mostly-zero blocks favor the lossless
// zero-suppressing zx path; dense smooth blocks need the lossy
// error-bounded codec to fit memory. Under the "adaptive" policy each
// recompression reads cheap block statistics and picks lossless vs. the
// configured lossy codec per block, with hysteresis so a block near a
// threshold doesn't thrash between codecs. The decision keeps no state: a
// block's only history is the codec its BlockMeta records.
#pragma once

#include <span>
#include <string>

namespace cqs::runtime {

/// Cheap single-pass statistics of one decompressed block (interleaved
/// re/im doubles). All three signals are scale-free, so the same
/// thresholds work at any qubit count.
struct BlockStats {
  /// Fraction of exact-zero doubles. Sparse early-simulation and
  /// ancilla-heavy states sit near 1; dense supremacy states near 0.
  double zero_fraction = 1.0;
  /// max|x| / mean|x| over the nonzero doubles (1 for uniform-magnitude
  /// data, 0 when the block is all zeros). The paper's spikiness proxy.
  double spikiness = 0.0;
  /// log2(max|x| / min nonzero |x|): dynamic range in bits. 0 when fewer
  /// than two nonzeros.
  double dynamic_range = 0.0;
};

/// One pass over `data` (uses common/stats' RunningStats over |x|).
BlockStats compute_block_stats(std::span<const double> data);

enum class CodecPolicy {
  kFixed,     ///< SimConfig::codec for every lossy pass (seed behavior)
  kAdaptive,  ///< per-block lossless-vs-lossy arbitration
};

/// Parses "fixed" / "adaptive"; throws std::invalid_argument otherwise.
CodecPolicy parse_codec_policy(const std::string& name);

/// Thresholds of the adaptive policy. A block goes lossless when it is
/// decisively sparse (zero fraction), has essentially uniform nonzero
/// magnitudes (dynamic range in bits — repeated bit patterns that LZ
/// matching nails and quantization cannot improve), or is spike-dominated.
/// Everything else goes to the lossy codec, whose mantissa truncation
/// collapses the ULP-level noise lossless coding must preserve. The
/// simulator sets only `policy`; these defaults are its thresholds.
struct ArbiterConfig {
  CodecPolicy policy = CodecPolicy::kFixed;
  /// Lossless when at least this fraction of the block's doubles are
  /// exact zeros (zero suppression beats quantization).
  double zero_fraction_threshold = 0.75;
  /// Lossless when the nonzero magnitudes span at most this many bits
  /// (log2 max/min): GHZ, QFT of basis inputs and Grover superpositions.
  double dynamic_range_threshold = 1.0;
  /// Lossless when max/mean of the nonzero magnitudes is at least this.
  double spikiness_threshold = 1e6;
  /// Half-width of the band around each threshold a block's signal must
  /// leave before the block flips codec, so blocks near a threshold don't
  /// thrash across passes. Additive on zero fraction and on dynamic-range
  /// bits, multiplicative (1 +- h) on spikiness.
  double hysteresis = 0.1;
};

/// Decides the codec for one compression of a block at ladder `level`;
/// true means lossless. Level 0 is always lossless and the fixed policy
/// always picks the lossy codec above it. The adaptive policy computes the
/// block's statistics and shifts each threshold against a flip away from
/// the codec the block holds now (`was_lossless`).
bool decide_lossless(const ArbiterConfig& config, int level,
                     std::span<const double> data, bool was_lossless);

}  // namespace cqs::runtime
