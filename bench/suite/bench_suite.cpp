// bench_suite: the repository's one benchmark. Runs seeded workloads
// through the public CompressedStateSimulator API, prints every metric by
// name and unit with its sample count, median, quartiles and tail
// percentile, checks the results, and exits nonzero on any failed check.
//
//   bench_suite [--seed S] [--rounds R] [--seconds T] [--workload W]...
//               [--json PATH] [--trace PATH] [--tmpdir DIR]
//
// Rounds run round-robin: round r runs rep r of every selected workload in
// turn, so a burst from a neighbouring process costs each workload one rep
// instead of shifting one workload's median. Round 0 is a warm-up: it is
// checked (and is the reference every later rep must reproduce) but not
// timed. Then R timed rounds run (default 20); with --seconds T, timed
// rounds continue until T seconds have passed (at least 3 rounds).
//
// Checks: rep 0 of each workload is compared with a dense StateVector run
// (measured fidelity >= the simulator's fidelity bound - 1e-9); every rep
// must save a checkpoint image with the same SHA-256 as rep 0's, draw the
// same sample() indices, and stay within its memory budget.
//
// --trace PATH is the per-layer run: the same rounds, with every timed call
// recorded as a span and written as Chrome trace-event JSON, followed by
// three single-thread reps and a probe per workload (timed checkpoint loads,
// shots and expectations, then single-threaded replays of each layer's
// public function on the final-state blocks). Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the reported metrics' medians.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "core/simulator.hpp"
#include "metrics.hpp"
#include "qsim/state_vector.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace cqs;
using namespace cqs::bench::suite;
using core::CompressedStateSimulator;

constexpr int kMinTimedRounds = 3;
constexpr int kProbeCalls = 16;     // shots / expectations timed per probe
constexpr int kProbeCheckpoints = 5;
// One 1-thread rep alone read 2.7x against the 2-thread median once, so
// pool.speedup takes the median of three.
constexpr int kSingleThreadReps = 3;

struct Options {
  std::uint64_t seed = 1;
  int rounds = 20;
  double seconds = 0.0;
  std::vector<std::string> workloads;
  std::string json_path;
  std::string trace_path;
  std::string tmpdir = ".";
};

/// Everything one workload accumulates over the run.
struct WorkloadRun {
  Workload w;
  SampleMap samples;  ///< metric name -> one value per timed rep (or one)
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  // Rep 0's outputs, which every later rep must reproduce.
  std::string ref_image_sha;
  std::vector<std::uint64_t> ref_samples;
  std::vector<double> ref_readout;
  int final_level = 0;
  double fidelity_bound = 1.0;
  int timed_reps = 0;
  int bit_stable_reps = 0;  ///< timed reps whose readout doubles equal rep 0's
};

struct Readout {
  std::vector<double> values;
  std::vector<std::uint64_t> samples;
  double seconds = 0.0;
};

std::uint64_t pair_mask(const std::pair<int, int>& p) {
  return (std::uint64_t{1} << p.first) | (std::uint64_t{1} << p.second);
}

/// The Z-Z pairs the probe times: the workload's own, else neighbours.
std::vector<std::pair<int, int>> probe_pairs(const Workload& w) {
  if (!w.zz_pairs.empty()) return w.zz_pairs;
  std::vector<std::pair<int, int>> pairs;
  for (int q = 0; q + 1 < w.circuit.num_qubits() && q < kProbeCalls; ++q) {
    pairs.emplace_back(q, q + 1);
  }
  return pairs;
}

Readout run_readout(CompressedStateSimulator& sim, const Workload& w,
                    Tracer& tracer, const std::string& rep) {
  Readout r;
  Span all(tracer, "readout", rep);
  if (!w.zz_pairs.empty()) {
    Span span(tracer, "readout.expect", rep);
    for (const auto& p : w.zz_pairs) {
      r.values.push_back(sim.expectation_pauli_z(pair_mask(p)));
    }
  }
  if (w.read_norm) {
    Span span(tracer, "readout.norm", rep);
    r.values.push_back(sim.norm());
  }
  if (w.shots > 0) {
    Span span(tracer, "readout.sample", rep);
    Rng rng(w.sample_seed);
    for (int i = 0; i < w.shots; ++i) r.samples.push_back(sim.sample(rng));
  }
  r.seconds = all.stop();
  return r;
}

std::string file_sha256(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Sha256 h;
  h.update(bytes.data(), bytes.size());
  return h.hex_digest();
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

enum class RepKind { kReference, kTimed, kSingleThread };

/// One rep: construct, simulate, read out, checkpoint, check, tear down —
/// each step a child span of the rep, so the children cover the rep.
void run_rep(WorkloadRun& run, RepKind kind, const std::string& label,
             const Options& opt, Tracer& tracer) {
  const Workload& w = run.w;
  const std::string rep = w.name + "/" + label;
  Span rep_span(tracer, "rep", rep);
  ++run.attempted;
  std::string failure;
  try {
    core::SimConfig config = w.config;
    if (kind == RepKind::kSingleThread) config.threads = 1;
    std::unique_ptr<CompressedStateSimulator> sim;
    Span setup(tracer, "setup", rep);
    sim = std::make_unique<CompressedStateSimulator>(config);
    const double setup_s = setup.stop();

    Span simulate(tracer, "simulate", rep);
    sim->apply_circuit(w.circuit);
    const double sim_s = simulate.stop();

    Span report_span(tracer, "report", rep);
    const core::SimulationReport report = sim->report();
    report_span.stop();

    const Readout readout = run_readout(*sim, w, tracer, rep);

    const std::string image = opt.tmpdir + "/" + w.name + ".ckpt";
    Span save(tracer, "checkpoint.save", rep);
    sim->save_checkpoint(image);
    const double save_s = save.stop();

    Span verify(tracer, "verify", rep);
    const std::string sha = file_sha256(image);
    std::filesystem::remove(image);
    if (report.budget_exceeded) failure = "over its memory budget";
    if (kind == RepKind::kReference) {
      run.ref_image_sha = sha;
      run.ref_samples = readout.samples;
      run.ref_readout = readout.values;
      run.final_level = report.final_ladder_level;
      run.fidelity_bound = report.fidelity_bound;
      Span reference(tracer, "verify.reference", rep);
      qsim::StateVector dense(w.circuit.num_qubits());
      dense.apply_circuit(w.circuit);
      const double fidelity = qsim::state_fidelity(dense.raw(), sim->to_raw());
      reference.stop();
      run.samples["fidelity"].push_back(fidelity);
      if (!(fidelity >= report.fidelity_bound - 1e-9)) {
        failure = "measured fidelity " + std::to_string(fidelity) +
                  " below the bound " + std::to_string(report.fidelity_bound);
      }
    } else {
      if (sha != run.ref_image_sha) failure = "checkpoint image differs";
      if (readout.samples != run.ref_samples) failure = "samples differ";
    }
    verify.stop();

    Span teardown(tracer, "teardown", rep);
    sim.reset();
    teardown.stop();

    if (kind == RepKind::kSingleThread) {
      run.samples["sim_s_1t"].push_back(sim_s);
    } else if (kind == RepKind::kTimed) {
      ++run.timed_reps;
      if (bitwise_equal(readout.values, run.ref_readout)) ++run.bit_stable_reps;
      auto& s = run.samples;
      s["setup_s"].push_back(setup_s);
      s["sim_s"].push_back(sim_s);
      s["readout_s"].push_back(readout.seconds);
      s["peak_mem_bytes"].push_back(
          static_cast<double>(report.peak_compressed_bytes +
                              report.scratch_bytes));
      s["codec.lossy_compress_cpu_s"].push_back(report.lossy_compress_seconds);
      s["codec.lossy_decompress_cpu_s"].push_back(
          report.lossy_decompress_seconds);
      s["codec.zx_compress_cpu_s"].push_back(report.lossless_compress_seconds);
      s["codec.zx_decompress_cpu_s"].push_back(
          report.lossless_decompress_seconds);
      s["kernel.cpu_s"].push_back(report.phases.get(Phase::kComputation));
      s["schedule.runs"].push_back(static_cast<double>(report.batched_runs));
      s["cache.hit_rate"].push_back(report.cache.hit_rate());
      s["exchange.bytes"].push_back(static_cast<double>(report.comm_bytes));
      s["spill.writes"].push_back(static_cast<double>(report.spill_events));
      s["spill.faults"].push_back(static_cast<double>(report.fault_events));
      s["checkpoint.autosave_s"].push_back(report.autosave_seconds);
      s["checkpoint.save_s"].push_back(save_s);
      s["ladder.lossy_passes"].push_back(
          static_cast<double>(report.lossy_passes));
      s["mem.state_peak_bytes"].push_back(
          static_cast<double>(report.peak_compressed_bytes));
      s["mem.scratch_bytes"].push_back(
          static_cast<double>(report.scratch_bytes));
      s["pool.busy_frac"].push_back(report.phases.total() /
                                    (sim_s * config.threads));
    }
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  rep_span.stop();
  if (tracer.enabled() && tracer.child_coverage(rep_span.id()) < 0.99) {
    failure = "child spans cover less than 99% of the rep span";
  }
  if (!failure.empty()) {
    ++run.failed;
    run.failures.push_back(label + ": " + failure);
  }
}

/// Traced runs only: timed public calls on one final state, then the
/// single-threaded layer replays on its blocks.
void probe(WorkloadRun& run, const Options& opt, Tracer& tracer) {
  const Workload& w = run.w;
  const std::string rep = w.name + "/probe";
  Span probe_span(tracer, "probe", rep);
  auto& s = run.samples;

  ReplayInput in;
  {
    CompressedStateSimulator sim(w.config);
    {
      Span span(tracer, "simulate", rep);
      sim.apply_circuit(w.circuit);
    }
    s["codec.ratio"].push_back(sim.compression_ratio());

    Rng rng(w.sample_seed);
    for (int i = 0; i < kProbeCalls; ++i) {
      Span span(tracer, "readout.shot", rep);
      sim.sample(rng);
      s["readout.shot_ms"].push_back(span.stop() * 1e3);
    }
    for (const auto& p : probe_pairs(w)) {
      Span span(tracer, "readout.expect", rep);
      sim.expectation_pauli_z(pair_mask(p));
      s["readout.expect_ms"].push_back(span.stop() * 1e3);
    }

    const std::string image = opt.tmpdir + "/" + w.name + ".probe.ckpt";
    sim.save_checkpoint(image);
    for (int i = 0; i < kProbeCheckpoints; ++i) {
      std::unique_ptr<CompressedStateSimulator> loaded;
      Span span(tracer, "checkpoint.load", rep);
      loaded = std::make_unique<CompressedStateSimulator>(
          CompressedStateSimulator::load_checkpoint(image, w.config));
      s["checkpoint.load_s"].push_back(span.stop());
    }
    std::filesystem::remove(image);

    const runtime::Partition& part = sim.partition();
    const std::vector<double> raw = sim.to_raw();
    const std::size_t per_block = part.doubles_per_block();
    for (std::size_t at = 0; at < raw.size(); at += per_block) {
      in.blocks.emplace_back(raw.begin() + static_cast<std::ptrdiff_t>(at),
                             raw.begin() +
                                 static_cast<std::ptrdiff_t>(at + per_block));
    }
    const auto& ladder = w.config.error_ladder;
    in.lossy_bound = ladder[static_cast<std::size_t>(
        std::max(sim.ladder_level(), 1) - 1)];
    in.offset_bits = part.offset_bits;
  }
  in.codec = w.config.codec;
  in.circuit = w.circuit;
  in.schedule.intra_qubits = in.offset_bits;
  // The simulator caps runs at 16 ops whenever a memory budget is set.
  in.schedule.max_run_length = w.config.memory_budget_bytes > 0 ? 16 : 0;
  in.schedule.fuse = w.config.enable_fusion_prepass;
  in.spill_path = opt.tmpdir + "/replay.spill";
  std::map<std::string, double> rates;
  replay_layers(in, tracer, rates);
  for (const auto& [name, value] : rates) s[name].push_back(value);
}

void derive_metrics(WorkloadRun& run) {
  auto& s = run.samples;
  s["readout.bit_stable_frac"] = {
      run.timed_reps > 0 ? static_cast<double>(run.bit_stable_reps) /
                               run.timed_reps
                         : 0.0};
  if (!s["sim_s_1t"].empty() && !s["sim_s"].empty()) {
    s["pool.speedup"] = {summarize(s["sim_s_1t"]).median /
                         summarize(s["sim_s"]).median};
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
std::vector<MetricDef> reported_metrics(bool traced) {
  return traced ? std::vector<MetricDef>(std::begin(kPerLayer),
                                         std::end(kPerLayer))
                : std::vector<MetricDef>(std::begin(kEndToEnd),
                                         std::end(kEndToEnd));
}

bool unresolved(const MetricDef& m, const Summary& s) {
  return m.bound > 0.0 && s.n > 1 && s.spread() > m.bound;
}

void print_table(const std::vector<WorkloadRun>& runs, bool traced) {
  std::printf("\n%-14s %-30s %-7s %3s %14s %14s %14s %18s %8s  %s\n",
              "workload", "metric", "unit", "n", "median", "q25", "q75",
              "tail", "spread", "status");
  for (const WorkloadRun& run : runs) {
    for (const MetricDef& m : reported_metrics(traced)) {
      const auto it = run.samples.find(m.name);
      const Summary s =
          summarize(it == run.samples.end() ? std::vector<double>{}
                                            : it->second);
      char tail[32] = "-";
      if (s.tail_pct > 0) {
        std::snprintf(tail, sizeof(tail), "p%d %.6g", s.tail_pct, s.tail);
      }
      std::printf(
          "%-14s %-30s %-7s %3zu %14.6g %14.6g %14.6g %18s %7.2f%%  %s\n",
          run.w.name.c_str(), m.name, m.unit, s.n, s.median, s.q25, s.q75,
          tail, 100.0 * s.spread(),
          m.bound <= 0.0       ? "-"
          : unresolved(m, s)   ? "unresolved"
                               : "ok");
    }
  }
  for (const WorkloadRun& run : runs) {
    std::printf("%s: %d qubits, %zu gates, final ladder level %d, fidelity "
                "bound %.6g; attempted %d reps, failed %d, error_rate %.4g\n",
                run.w.name.c_str(), run.w.circuit.num_qubits(),
                run.w.circuit.size(), run.final_level, run.fidelity_bound,
                run.attempted, run.failed,
                run.attempted > 0
                    ? static_cast<double>(run.failed) / run.attempted
                    : 0.0);
    for (const std::string& f : run.failures) {
      std::printf("  FAILED %s\n", f.c_str());
    }
  }
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<WorkloadRun>& runs, int timed_rounds,
                double load_start, double load_end, bool traced) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"schema\": \"bench_suite/1\",\n  \"seed\": " << opt.seed
      << ",\n  \"threads\": " << kThreads << ",\n  \"ranks\": " << kRanks
      << ",\n  \"blocks_per_rank\": " << kBlocksPerRank
      << ",\n  \"warmup_rounds\": 1,\n  \"timed_rounds\": " << timed_rounds
      << ",\n  \"traced\": " << (traced ? "true" : "false")
      << ",\n  \"loadavg_1min_start\": " << number(load_start)
      << ",\n  \"loadavg_1min_end\": " << number(load_end)
      << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    out << (i ? "," : "") << "\n    \"" << run.w.name << "\": {\n"
        << "      \"qubits\": " << run.w.circuit.num_qubits()
        << ", \"gates\": " << run.w.circuit.size()
        << ", \"attempted\": " << run.attempted
        << ", \"failed\": " << run.failed << ",\n      \"failures\": [";
    for (std::size_t f = 0; f < run.failures.size(); ++f) {
      out << (f ? ", " : "") << '"' << json_escape(run.failures[f]) << '"';
    }
    out << "],\n      \"metrics\": {";
    // End-to-end numbers are always written (a traced run's sim_s against
    // an untraced run's is the tracing overhead); per-layer when traced.
    std::vector<MetricDef> defs(std::begin(kEndToEnd), std::end(kEndToEnd));
    if (traced) {
      defs.insert(defs.end(), std::begin(kPerLayer), std::end(kPerLayer));
    }
    bool first = true;
    for (const MetricDef& m : defs) {
      const auto it = run.samples.find(m.name);
      if (it == run.samples.end()) continue;
      const Summary s = summarize(it->second);
      out << (first ? "" : ",") << "\n        \"" << m.name
          << "\": {\"unit\": \"" << m.unit << "\", \"better\": \""
          << (m.higher_is_better ? "higher" : "lower")
          << "\", \"bound\": " << number(m.bound) << ", \"n\": " << s.n
          << ", \"median\": " << number(s.median)
          << ", \"q25\": " << number(s.q25) << ", \"q75\": " << number(s.q75);
      if (s.tail_pct > 0) {
        out << ", \"tail_pct\": " << s.tail_pct
            << ", \"tail\": " << number(s.tail);
      }
      out << ", \"unresolved\": " << (unresolved(m, s) ? "true" : "false")
          << ", \"values\": [";
      for (std::size_t v = 0; v < it->second.size(); ++v) {
        out << (v ? ", " : "") << number(it->second[v]);
      }
      out << "]}";
      first = false;
    }
    out << "\n      }\n    }";
  }
  out << "\n  }\n}\n";
  if (!out) throw std::runtime_error("write failed for " + path);
}

/// The closing one-line summary. With one workload the metric names are
/// bare; with several they are prefixed "<workload>.".
void print_result_line(const std::vector<WorkloadRun>& runs, bool traced) {
  int attempted = 0;
  int failed = 0;
  std::string metrics;
  for (const WorkloadRun& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
    for (const MetricDef& m : reported_metrics(traced)) {
      const auto it = run.samples.find(m.name);
      const double value =
          it == run.samples.end() ? 0.0 : summarize(it->second).median;
      const std::string name =
          runs.size() == 1 ? m.name : run.w.name + "." + m.name;
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                 "{\"value\": " + number(value) + ", \"unit\": \"" + m.unit +
                 "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
}

double loadavg_1min() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--seed S] [--rounds R] [--seconds T] "
               "[--workload W]... [--json PATH] [--trace PATH] "
               "[--tmpdir DIR]\nworkloads: qaoa_lossy rcs_sample "
               "grover_sparse qft_ooc (default: all)\n",
               argv0, error.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--rounds") {
      opt.rounds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (opt.rounds < 1) usage(argv[0], "--rounds must be >= 1");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) usage(argv[0], "--seconds must be > 0");
    } else if (arg == "--workload") {
      if (std::find(opt.workloads.begin(), opt.workloads.end(), value) !=
          opt.workloads.end()) {
        usage(argv[0], "workload " + value + " given twice");
      }
      opt.workloads.push_back(value);
    } else if (arg == "--json") {
      opt.json_path = value;
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else if (arg == "--tmpdir") {
      opt.tmpdir = value;
    } else {
      usage(argv[0], "unknown option " + arg);
    }
    if (end != nullptr && (*end != '\0' || errno != 0 || value.empty())) {
      usage(argv[0], "bad number for " + arg + ": " + value);
    }
  }
  if (opt.workloads.empty()) {
    opt.workloads.assign(std::begin(kWorkloadNames), std::end(kWorkloadNames));
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt = parse(argc, argv);
  const bool traced = !opt.trace_path.empty();
  std::filesystem::create_directories(opt.tmpdir);

  std::vector<WorkloadRun> runs;
  for (const std::string& name : opt.workloads) {
    WorkloadRun run;
    try {
      run.w = make_workload(name, opt.seed, opt.tmpdir);
    } catch (const std::invalid_argument& e) {
      usage(argv[0], e.what());
    }
    runs.push_back(std::move(run));
  }

  Tracer tracer(traced);
  const double load_start = loadavg_1min();
  const std::string plan =
      opt.seconds > 0.0
          ? "timed rounds for " + std::to_string(opt.seconds) + " s"
          : std::to_string(opt.rounds) + " timed rounds";
  std::printf("bench_suite: seed %llu, %d ranks x %d blocks, %d threads, "
              "1 warm-up round + %s, trace %s\n",
              static_cast<unsigned long long>(opt.seed), kRanks,
              kBlocksPerRank, kThreads, plan.c_str(),
              traced ? opt.trace_path.c_str() : "off");
  std::fflush(stdout);

  for (WorkloadRun& run : runs) {
    run_rep(run, RepKind::kReference, "0", opt, tracer);
  }
  WallTimer timed;
  int round = 0;
  while (true) {
    ++round;
    for (WorkloadRun& run : runs) {
      run_rep(run, RepKind::kTimed, std::to_string(round), opt, tracer);
    }
    const bool done =
        opt.seconds > 0.0
            ? round >= kMinTimedRounds && timed.seconds() >= opt.seconds
            : round >= opt.rounds;
    if (done) break;
  }
  if (traced) {
    for (WorkloadRun& run : runs) {
      for (int i = 0; i < kSingleThreadReps; ++i) {
        run_rep(run, RepKind::kSingleThread, "1thread." + std::to_string(i),
                opt, tracer);
      }
      probe(run, opt, tracer);
    }
  }
  for (WorkloadRun& run : runs) {
    derive_metrics(run);
    if (!run.w.config.auto_checkpoint_path.empty()) {
      std::error_code ignored;
      std::filesystem::remove(run.w.config.auto_checkpoint_path, ignored);
    }
  }
  const double load_end = loadavg_1min();

  std::printf("load average (1 min): %.2f at start, %.2f at end\n",
              load_start, load_end);
  std::printf("n = timed reps. Quartiles as Python statistics.quantiles(n=4). "
              "'tail': the highest percentile with at least 10 reps beyond "
              "it (none when n <= 20). 'unresolved': (q75 - q25) / median "
              "exceeds the metric's bound.\n");
  print_table(runs, traced);
  if (traced) tracer.write_chrome_json(opt.trace_path);
  if (!opt.json_path.empty()) {
    write_json(opt.json_path, opt, runs, round, load_start, load_end, traced);
  }
  print_result_line(runs, traced);
  for (const WorkloadRun& run : runs) {
    if (run.failed > 0) return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_suite: %s\n", e.what());
  return 1;
}
