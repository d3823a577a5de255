// Metric catalogue and sample statistics for the benchmark suite. The
// names, units, directions and bounds here are the ones BENCHMARK.json
// declares; compare.py refuses to compare runs whose recorded bounds
// disagree with that file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace cqs::bench::suite {

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  /// Share of the baseline median by which the metric may worsen before a
  /// change counts as a regression; 0 for per-layer metrics (no bound).
  double bound;
};

/// Measured with tracing off: what a user of the simulator sees. The wall
/// times carry the widest bound allowed (25%): on the 4-core shared host
/// the suite was sized on, memory-bound throughput swings by up to +-25%
/// between 5-second windows, and the medians of 20-second runs spread by
/// 3-17% (interquartile range over ten runs).
inline constexpr MetricDef kEndToEnd[] = {
    {"sim_s", "s", false, 0.25},             // apply_circuit wall time
    {"readout_s", "s", false, 0.25},         // the workload's readout set
    {"setup_s", "s", false, 0.25},           // simulator construction
    {"peak_mem_bytes", "B", false, 0.02},    // Eq. 8: peak state + scratch
    {"fidelity", "1", true, 0.0001},         // vs dense StateVector
};

/// Measured by the traced run, one value per workload.
inline constexpr MetricDef kPerLayer[] = {
    {"codec.lossy_compress_cpu_s", "s", false, 0},
    {"codec.lossy_decompress_cpu_s", "s", false, 0},
    {"codec.lossy_compress_mb_s", "MB/s", true, 0},
    {"codec.lossy_decompress_mb_s", "MB/s", true, 0},
    {"codec.zx_compress_cpu_s", "s", false, 0},
    {"codec.zx_decompress_cpu_s", "s", false, 0},
    {"codec.zx_compress_mb_s", "MB/s", true, 0},
    {"codec.zx_decompress_mb_s", "MB/s", true, 0},
    {"codec.lz77_mb_s", "MB/s", true, 0},
    {"codec.entropy_mb_s", "MB/s", true, 0},
    {"codec.ratio", "1", true, 0},
    {"kernel.cpu_s", "s", false, 0},
    {"kernel.gamp_s", "Gamp/s", true, 0},
    {"schedule.plan_ms", "ms", false, 0},
    {"schedule.runs", "count", false, 0},
    {"cache.hit_rate", "1", true, 0},
    {"cache.key_mb_s", "MB/s", true, 0},
    {"exchange.bytes", "B", false, 0},
    {"spill.writes", "count", false, 0},
    {"spill.faults", "count", false, 0},
    {"spill.write_mb_s", "MB/s", true, 0},
    {"checkpoint.autosave_s", "s", false, 0},
    {"checkpoint.save_s", "s", false, 0},
    {"checkpoint.load_s", "s", false, 0},
    {"readout.shot_ms", "ms", false, 0},
    {"readout.expect_ms", "ms", false, 0},
    {"readout.bit_stable_frac", "1", true, 0},
    {"ladder.lossy_passes", "count", false, 0},
    {"mem.state_peak_bytes", "B", false, 0},
    {"mem.scratch_bytes", "B", false, 0},
    {"pool.busy_frac", "1", true, 0},
    {"pool.speedup", "1", true, 0},
};

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q25 = 0.0;
  double q75 = 0.0;
  /// The highest percentile with at least ten samples beyond it, and its
  /// value; tail_pct is 0 when n <= 20 (no such percentile above the
  /// median).
  int tail_pct = 0;
  double tail = 0.0;

  /// Interquartile range as a share of the median.
  double spread() const {
    return median != 0.0 ? (q75 - q25) / std::fabs(median) : 0.0;
  }
};

/// Median and quartiles by the rule of Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the suite, compare.py and anyone re-deriving from the JSON agree.
inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q25 = s.q75 = s.median;
    return s;
  }
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q25 = quartile(1);
  s.q75 = quartile(3);
  if (n > 20) {
    s.tail = values[n - 11];
    s.tail_pct = static_cast<int>(100 * (n - 10) / n);
  }
  return s;
}

/// Samples of every metric one workload produced, by metric name.
using SampleMap = std::map<std::string, std::vector<double>>;

}  // namespace cqs::bench::suite
