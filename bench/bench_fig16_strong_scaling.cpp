// Figure 16 reproduction: strong scaling of a fixed-size simulation, plus
// the communication study the figure exists to motivate. The paper scales
// a 51-qubit Hadamard program from 128 to 512 Theta nodes and attributes
// the sublinear speedup to cross-rank exchanges; the single-server
// analogue (default mode) scales worker parallelism over a fixed 20-qubit
// QAOA workload.
//
// --json mode is the communication study: QFT and Grover run at 4 and 8
// ranks, recording runs, compressions, cross-rank bytes and messages, and
// wall time. QFT's bit-reversal SWAPs touch nothing after them, so the
// simulator relabels them instead of exchanging blocks: QFT runs against
// the same QFT built without its final SWAPs, and the bench exits nonzero
// unless the two make the same runs, compressions, bytes and messages, or
// when any final state's fidelity to the dense StateVector is below
// 1 - 1e-12.
//
//   $ ./bench_fig16_strong_scaling [--qubits N] [--json PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "common/timer.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"

namespace {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;
using cqs::core::SimulationReport;

double run_scaling_once(int threads) {
  using namespace cqs;
  core::SimConfig config;
  config.num_qubits = 20;
  config.num_ranks = 8;
  config.blocks_per_rank = 8;
  config.threads = threads;
  core::CompressedStateSimulator sim(config);
  const auto circuit = circuits::qaoa_maxcut_circuit({.num_qubits = 20});
  cqs::WallTimer timer;
  sim.apply_circuit(circuit);
  return timer.seconds();
}

int run_scaling_table() {
  using namespace cqs;
  bench::print_header(
      "Figure 16: strong scaling of a fixed-size simulation (20-qubit "
      "QAOA, 8 ranks, workers = 'nodes')");

  run_scaling_once(2);  // warmup
  std::vector<std::pair<int, double>> rows;
  for (int threads : {1, 2, 4, 8}) {
    double best = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
      best = std::min(best, run_scaling_once(threads));
    }
    rows.emplace_back(threads, best);
  }
  const double base = rows.front().second;
  std::printf("%10s %14s %12s %12s\n", "workers", "time (s)", "speedup",
              "ideal");
  for (const auto& [threads, secs] : rows) {
    std::printf("%10d %14.3f %12.2f %12d\n", threads, secs, base / secs,
                threads);
  }
  std::printf(
      "\nshape check (paper): sublinear but monotone speedup (theirs: "
      "1.70x at 2x nodes, 2.84x at 4x nodes) — per-block codec work "
      "parallelizes, cross-rank exchange and stragglers eat the rest\n");
  return 0;
}

struct CommRun {
  std::string name;
  int qubits = 0;
  int ranks = 0;
  SimulationReport report;
  double seconds = 0.0;
  double fidelity = 1.0;  ///< to the dense StateVector; 1 above 26 qubits
};

CommRun run_comm_once(const std::string& name,
                      const cqs::qsim::Circuit& circuit, int ranks) {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = ranks;
  config.blocks_per_rank = 8;
  CompressedStateSimulator sim(config);
  cqs::WallTimer timer;
  sim.apply_circuit(circuit);
  CommRun run{.name = name, .qubits = circuit.num_qubits(), .ranks = ranks};
  run.seconds = timer.seconds();
  run.report = sim.report();
  if (circuit.num_qubits() <= 26) {
    cqs::qsim::StateVector reference(circuit.num_qubits());
    reference.apply_circuit(circuit);
    run.fidelity = cqs::qsim::state_fidelity(reference.raw(), sim.to_raw());
  }
  return run;
}

void print_run(const CommRun& run) {
  std::printf(
      "%-12s %2dq @%d ranks | runs %4llu | compressions %6llu | bytes "
      "%10llu | msgs %5llu | relabeled %2llu | %.2fs | fidelity %.12f\n",
      run.name.c_str(), run.qubits, run.ranks,
      static_cast<unsigned long long>(run.report.batched_runs),
      static_cast<unsigned long long>(run.report.compress_invocations),
      static_cast<unsigned long long>(run.report.comm_bytes),
      static_cast<unsigned long long>(run.report.comm_messages),
      static_cast<unsigned long long>(run.report.swaps_relabeled),
      run.seconds, run.fidelity);
}

void write_json(const std::string& path, const std::vector<CommRun>& runs) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"fig16_strong_scaling_comm\",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CommRun& r = runs[i];
    out << "    {\"name\": \"" << r.name << "\", \"qubits\": " << r.qubits
        << ", \"ranks\": " << r.ranks
        << ", \"batched_runs\": " << r.report.batched_runs
        << ", \"compressions\": " << r.report.compress_invocations
        << ", \"comm_bytes\": " << r.report.comm_bytes
        << ", \"comm_messages\": " << r.report.comm_messages
        << ", \"swaps_relabeled\": " << r.report.swaps_relabeled
        << ", \"seconds\": " << r.seconds
        << ", \"fidelity\": " << r.fidelity << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// The counters relabeling must leave equal: a circuit and the same
/// circuit without the SWAPs nothing after them touches.
bool same_counts(const SimulationReport& a, const SimulationReport& b) {
  return a.batched_runs == b.batched_runs &&
         a.compress_invocations == b.compress_invocations &&
         a.comm_bytes == b.comm_bytes && a.comm_messages == b.comm_messages;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cqs;
  int qft_qubits = 20;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--qubits") {
      qft_qubits = std::atoi(next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr, "usage: %s [--qubits N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  if (json_path.empty()) return run_scaling_table();

  bench::print_header(
      "Figure 16 / Table 2 communication: cross-rank traffic, QFT with and "
      "without its final SWAPs");

  std::vector<CommRun> runs;
  const auto qft = circuits::qft_circuit({.num_qubits = qft_qubits});
  const auto qft_no_swaps = circuits::qft_circuit(
      {.num_qubits = qft_qubits, .final_swaps = false});
  const auto grover = circuits::grover_circuit(
      {.data_qubits = 8, .marked_state = 0b10110101, .iterations = 2});
  bool ok = true;
  for (int ranks : {4, 8}) {
    runs.push_back(run_comm_once("qft", qft, ranks));
    runs.push_back(run_comm_once("qft_no_swaps", qft_no_swaps, ranks));
    runs.push_back(run_comm_once("grover", grover, ranks));
    const CommRun& with = runs[runs.size() - 3];
    const CommRun& without = runs[runs.size() - 2];
    if (!same_counts(with.report, without.report)) {
      std::fprintf(stderr,
                   "FAIL: qft@%d final SWAPs changed runs, compressions, "
                   "bytes or messages\n",
                   ranks);
      ok = false;
    }
  }
  for (const CommRun& run : runs) {
    print_run(run);
    if (run.fidelity < 1.0 - 1e-12) {
      std::fprintf(stderr, "FAIL: %s@%d fidelity %.12f to the dense state\n",
                   run.name.c_str(), run.ranks, run.fidelity);
      ok = false;
    }
  }

  write_json(json_path, runs);
  std::printf("wrote %s\n%s\n", json_path.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_fig16_strong_scaling: %s\n", e.what());
  return 1;
}
