#include "runtime/codec_arbiter.hpp"

#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"

namespace cqs::runtime {

BlockStats compute_block_stats(std::span<const double> data) {
  // RunningStats over |x| of the nonzeros gives mean/min/max in one
  // Welford pass; zeros are counted separately so zero_fraction is exact.
  RunningStats magnitudes;
  std::size_t zeros = 0;
  for (double x : data) {
    if (x == 0.0) {
      ++zeros;
    } else {
      magnitudes.add(std::abs(x));
    }
  }
  BlockStats stats;
  stats.zero_fraction =
      data.empty() ? 1.0
                   : static_cast<double>(zeros) /
                         static_cast<double>(data.size());
  if (magnitudes.count() > 0 && magnitudes.mean() > 0.0) {
    stats.spikiness = magnitudes.max() / magnitudes.mean();
  }
  if (magnitudes.count() > 1 && magnitudes.min() > 0.0) {
    stats.dynamic_range = std::log2(magnitudes.max() / magnitudes.min());
  }
  return stats;
}

CodecPolicy parse_codec_policy(const std::string& name) {
  if (name == "fixed") return CodecPolicy::kFixed;
  if (name == "adaptive") return CodecPolicy::kAdaptive;
  throw std::invalid_argument(
      "codec_policy: unknown policy '" + name +
      "' (expected \"fixed\" or \"adaptive\")");
}

bool decide_lossless(const ArbiterConfig& config, int level,
                     std::span<const double> data, bool was_lossless) {
  if (level == 0) return true;
  if (config.policy == CodecPolicy::kFixed) return false;
  const BlockStats stats = compute_block_stats(data);
  // Hysteresis: shift each threshold against a flip, so the signal must
  // leave the band around it before the block changes codec. A lossless
  // block moves only when clearly dense, a lossy one when clearly sparse.
  const double h = was_lossless ? -config.hysteresis : config.hysteresis;
  return stats.zero_fraction >= config.zero_fraction_threshold + h ||
         stats.dynamic_range <= config.dynamic_range_threshold - h ||
         stats.spikiness >= config.spikiness_threshold * (1.0 + h);
}

}  // namespace cqs::runtime
