// Figure 16 reproduction: strong scaling of a fixed-size simulation, plus
// the communication study the figure exists to motivate. The paper scales
// a 51-qubit Hadamard program from 128 to 512 Theta nodes and attributes
// the sublinear speedup to cross-rank exchanges; the single-server
// analogue (default mode) scales worker parallelism over a fixed 20-qubit
// QAOA workload.
//
// --json mode is the qubit-remap communication comparison: QFT and Grover
// run remap-on vs remap-off at 4 and 8 ranks, recording cross-rank bytes,
// messages, remap ledger entries, and wall time, and verifying the final
// states agree. CI gates on QFT at 4 ranks: remapping must cut exchanged
// bytes by >= 5x (relabeled reversal swaps plus early in-place sweeps on
// the still-sparse state dominate the win), and Grover — whose AND-ladder
// keeps every offset slot hot, so the planner correctly stands pat — must
// never move MORE bytes than the identity layout.
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

struct RemapRun {
  SimulationReport report;
  double seconds = 0.0;
  std::vector<double> state;  // empty above the to_raw limit
};

RemapRun run_remap_once(const cqs::qsim::Circuit& circuit, int ranks,
                        bool remap) {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = ranks;
  config.blocks_per_rank = 8;
  config.enable_qubit_remap = remap;
  CompressedStateSimulator sim(config);
  cqs::WallTimer timer;
  sim.apply_circuit(circuit);
  RemapRun run;
  run.seconds = timer.seconds();
  run.report = sim.report();
  if (circuit.num_qubits() <= 26) run.state = sim.to_raw();
  return run;
}

struct RemapComparison {
  std::string name;
  int qubits = 0;
  int ranks = 0;
  RemapRun on;
  RemapRun off;
  double byte_ratio = 0.0;  // off / on (1.0 when both moved nothing)
  double fidelity = 0.0;
};

RemapComparison compare_remap(const std::string& name,
                              const cqs::qsim::Circuit& circuit,
                              int ranks) {
  RemapComparison cmp;
  cmp.name = name;
  cmp.qubits = circuit.num_qubits();
  cmp.ranks = ranks;
  cmp.off = run_remap_once(circuit, ranks, false);
  cmp.on = run_remap_once(circuit, ranks, true);
  cmp.byte_ratio =
      cmp.on.report.comm_bytes == 0
          ? (cmp.off.report.comm_bytes == 0 ? 1.0 : 1e9)
          : static_cast<double>(cmp.off.report.comm_bytes) /
                static_cast<double>(cmp.on.report.comm_bytes);
  cmp.fidelity = cqs::qsim::state_fidelity(cmp.on.state, cmp.off.state);
  return cmp;
}

void print_remap(const RemapComparison& cmp) {
  std::printf(
      "%-8s %2dq @%d ranks | bytes %12llu -> %10llu (%.1fx)  | msgs %6llu "
      "-> %5llu | remaps %llu, relabels %llu, in-place %llu | %.2fs -> "
      "%.2fs | fidelity %.12f\n",
      cmp.name.c_str(), cmp.qubits, cmp.ranks,
      static_cast<unsigned long long>(cmp.off.report.comm_bytes),
      static_cast<unsigned long long>(cmp.on.report.comm_bytes),
      cmp.byte_ratio,
      static_cast<unsigned long long>(cmp.off.report.comm_messages),
      static_cast<unsigned long long>(cmp.on.report.comm_messages),
      static_cast<unsigned long long>(cmp.on.report.remap_sweeps),
      static_cast<unsigned long long>(cmp.on.report.swaps_relabeled),
      static_cast<unsigned long long>(cmp.on.report.rank_gates_in_place),
      cmp.off.seconds, cmp.on.seconds, cmp.fidelity);
}

void write_json(const std::string& path,
                const std::vector<RemapComparison>& results) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"fig16_strong_scaling_remap\",\n"
      << "  \"comparisons\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RemapComparison& c = results[i];
    const auto side = [&](const RemapRun& r) {
      return "{\"comm_bytes\": " + std::to_string(r.report.comm_bytes) +
             ", \"comm_messages\": " +
             std::to_string(r.report.comm_messages) +
             ", \"remap_sweeps\": " +
             std::to_string(r.report.remap_sweeps) +
             ", \"swaps_relabeled\": " +
             std::to_string(r.report.swaps_relabeled) +
             ", \"rank_gates_in_place\": " +
             std::to_string(r.report.rank_gates_in_place) +
             ", \"seconds\": " + std::to_string(r.seconds) + "}";
    };
    out << "    {\"name\": \"" << c.name << "\", \"qubits\": " << c.qubits
        << ", \"ranks\": " << c.ranks
        << ",\n     \"remap_on\": " << side(c.on)
        << ",\n     \"remap_off\": " << side(c.off)
        << ",\n     \"cross_rank_byte_ratio\": " << c.byte_ratio
        << ", \"cross_fidelity\": " << c.fidelity << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
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
      "Figure 16 / Table 2 communication: cross-rank bytes, qubit remap "
      "on vs off");

  std::vector<RemapComparison> results;
  const auto qft = circuits::qft_circuit({.num_qubits = qft_qubits});
  const auto grover = circuits::grover_circuit(
      {.data_qubits = 8, .marked_state = 0b10110101, .iterations = 2});
  for (int ranks : {4, 8}) {
    results.push_back(compare_remap("qft", qft, ranks));
    print_remap(results.back());
    results.push_back(compare_remap("grover", grover, ranks));
    print_remap(results.back());
  }

  write_json(json_path, results);
  std::printf("wrote %s\n", json_path.c_str());

  // Acceptance gates. The QFT instance at 4 ranks is the headline number
  // (the ISSUE's >= 5x floor); every configuration must (a) keep the
  // final states identical up to codec tolerance (lossless here: 1.0 to
  // rounding) and (b) never move more bytes than the identity layout.
  bool ok = true;
  for (const RemapComparison& c : results) {
    if (!c.on.state.empty() && c.fidelity < 1.0 - 1e-12) {
      std::fprintf(stderr, "FAIL: %s@%d remap changed the state (%.12f)\n",
                   c.name.c_str(), c.ranks, c.fidelity);
      ok = false;
    }
    if (c.on.report.comm_bytes > c.off.report.comm_bytes) {
      std::fprintf(stderr, "FAIL: %s@%d remap moved MORE bytes\n",
                   c.name.c_str(), c.ranks);
      ok = false;
    }
  }
  const RemapComparison& headline = results.front();
  if (headline.byte_ratio < 5.0) {
    std::fprintf(stderr,
                 "FAIL: qft@4 cross-rank byte ratio %.2f < 5.0\n",
                 headline.byte_ratio);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_fig16_strong_scaling: %s\n", e.what());
  return 1;
}
