#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace cqs {

std::vector<CdfPoint> empirical_cdf(std::span<const double> samples,
                                    std::size_t points) {
  std::vector<CdfPoint> cdf;
  if (samples.empty() || points == 0) return cdf;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // Quantile at the upper edge of each of `points` equal-mass slices.
    const std::size_t idx =
        std::min(sorted.size() - 1, ((i + 1) * sorted.size()) / points - 1);
    cdf.push_back({sorted[idx], static_cast<double>(idx + 1) /
                                    static_cast<double>(sorted.size())});
  }
  return cdf;
}

double autocorrelation(std::span<const double> series, std::size_t lag) {
  if (series.size() < lag + 2) return 0.0;
  double mean = 0.0;
  for (double x : series) mean += x;
  mean /= static_cast<double>(series.size());

  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i + lag < series.size(); ++i) {
    num += (series[i] - mean) * (series[i + lag] - mean);
  }
  for (double x : series) den += (x - mean) * (x - mean);
  return den == 0.0 ? 0.0 : num / den;
}

double fraction_below(std::span<const double> samples, double threshold) {
  if (samples.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : samples) {
    if (std::abs(x) < threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(samples.size());
}

std::vector<std::size_t> histogram(std::span<const double> samples, double lo,
                                   double hi, std::size_t bins) {
  std::vector<std::size_t> counts(bins, 0);
  if (bins == 0 || hi <= lo) return counts;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : samples) {
    if (x < lo || x >= hi) continue;
    auto bin = static_cast<std::size_t>((x - lo) / width);
    if (bin >= bins) bin = bins - 1;
    ++counts[bin];
  }
  return counts;
}

}  // namespace cqs
