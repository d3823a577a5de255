// CDF extraction, lag-k autocorrelation and histograms. These back the
// Figure 12/14 error-distribution benches and the paper's non-correlation
// claim for Solution C compression errors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cqs {

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double value;
  double cumulative_fraction;
};

/// Empirical CDF sampled at `points` evenly spaced quantiles.
/// The input is copied and sorted; suitable for up to a few million samples.
std::vector<CdfPoint> empirical_cdf(std::span<const double> samples,
                                    std::size_t points = 100);

/// Lag-k autocorrelation coefficient of a series. Returns 0 for series
/// shorter than k+2 samples or with zero variance.
double autocorrelation(std::span<const double> series, std::size_t lag = 1);

/// Fraction of samples whose absolute value is below `threshold`.
double fraction_below(std::span<const double> samples, double threshold);

/// A fixed-width text histogram row helper used by several benches:
/// returns counts of samples per bin over [lo, hi).
std::vector<std::size_t> histogram(std::span<const double> samples, double lo,
                                   double hi, std::size_t bins);

}  // namespace cqs
