// Span recorder for the benchmark suite. Every timed call the suite makes
// into the simulator goes through a Span, which always measures its own
// wall time (the end-to-end numbers come from the same clock reads whether
// tracing is on or off) and, when tracing is on, also records a span —
// name, start, end, parent, rep — in memory. The spans are written once at
// the end as Chrome trace-event JSON, so tracing adds no I/O while timing.
#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cqs::bench::suite {

struct SpanRecord {
  std::string name;
  std::string rep;  ///< "<workload>/<rep>" or "" outside any rep
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at the top level
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Microseconds since the tracer was created.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_)
        .count();
  }

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when tracing is off.
  int open(std::string name, std::string rep, double start_us) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(rep), start_us, start_us, id,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  /// Closes span `id`. Spans nest strictly; a close out of order marks the
  /// trace broken (write_chrome_json then refuses it) instead of throwing,
  /// because Span closes from its destructor.
  void close(int id, double end_us) noexcept {
    if (id < 0) return;
    if (open_.empty() || open_.back() != id) {
      broken_ = true;
      return;
    }
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_us = end_us;
  }

  /// Fraction of span `id` covered by the union of its direct children.
  double child_coverage(int id) const {
    const SpanRecord& parent = spans_.at(static_cast<std::size_t>(id));
    std::vector<std::pair<double, double>> intervals;
    for (const SpanRecord& s : spans_) {
      if (s.parent == id) intervals.emplace_back(s.start_us, s.end_us);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = parent.start_us;
    for (const auto& [start, end] : intervals) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const double length = parent.end_us - parent.start_us;
    return length > 0.0 ? covered / length : 1.0;
  }

  /// Writes every span as a Chrome trace "complete" event (ph "X"): begin
  /// and end are one record, so they always match.
  void write_chrome_json(const std::string& path) const {
    if (broken_ || !open_.empty()) {
      throw std::logic_error("trace: spans did not nest");
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("trace: cannot write " + path);
    // Names and rep labels are the suite's own ASCII identifiers, so they
    // need no JSON escaping.
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << "{\"name\": \"" << s.name
          << "\", \"cat\": \"bench_suite\", \"ph\": \"X\", \"pid\": 1, "
             "\"tid\": 1, \"ts\": "
          << s.start_us << ", \"dur\": " << s.end_us - s.start_us
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"rep\": \"" << s.rep << "\"}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("trace: write failed for " + path);
  }

 private:
  using clock = std::chrono::steady_clock;

  bool enabled_;
  bool broken_ = false;
  clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// One timed call. The constructor starts the clock (and opens a span when
/// tracing is on); stop() ends both and returns the elapsed seconds. The
/// destructor stops a span left open by an exception.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string rep = {})
      : tracer_(tracer), start_us_(tracer.now_us()) {
    id_ = tracer_.open(std::move(name), std::move(rep), start_us_);
  }
  ~Span() {
    if (!stopped_) stop();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop() {
    const double end_us = tracer_.now_us();
    stopped_ = true;
    tracer_.close(id_, end_us);
    return (end_us - start_us_) * 1e-6;
  }

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  double start_us_;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace cqs::bench::suite
