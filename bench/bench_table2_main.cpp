// Table 2 reproduction: the paper's main results table — Grover, random
// circuit sampling, QAOA, and QFT simulations under tight memory budgets,
// reporting memory, time breakdown, time per gate, fidelity, and the
// minimum compression ratio. Qubit counts are reduced to one server; the
// budget-to-requirement percentages mirror the paper's "Sys Mem / Req"
// row (tiny for Grover, 37.5% / 18.75% for the dense workloads).
//
//   $ ./bench_table2_main [--small] [--json PATH]
//
// After the table, every row reruns as a SIMD ablation at two worker
// threads: scalar versus vector apply kernels. States must stay
// bit-identical (the SIMD kernels issue the same IEEE ops) — any drift
// exits nonzero. Wall time is reported both ways and never gated.
// --small shrinks the instances for the CI bench-smoke job; --json writes
// the measurements for the BENCH_table2_main.json artifact.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/timer.hpp"
#include "core/memory_model.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"

namespace {

using namespace cqs;

struct Row {
  std::string name;
  qsim::Circuit circuit;
  double budget_fraction;  // of the raw 2^{n+4} requirement
};

struct AblationResult {
  std::string name;
  int qubits = 0;
  std::size_t gates = 0;
  double seconds_on = 0.0;   // SIMD kernels
  double seconds_off = 0.0;  // scalar kernels
  bool state_identical = false;
  std::string simd_kernel;

  double speedup() const {
    return seconds_on > 0.0 ? seconds_off / seconds_on : 0.0;
  }
};

core::SimConfig row_config(const Row& row) {
  const int n = row.circuit.num_qubits();
  core::SimConfig config;
  config.num_qubits = n;
  config.num_ranks = 4;
  config.blocks_per_rank = n >= 18 ? 16 : 8;
  config.memory_budget_bytes = static_cast<std::size_t>(
      row.budget_fraction *
      static_cast<double>(core::memory_required_bytes(n)));
  return config;
}

void run_row(const Row& row) {
  const int n = row.circuit.num_qubits();
  const auto requirement = core::memory_required_bytes(n);
  const core::SimConfig config = row_config(row);
  core::CompressedStateSimulator sim(config);
  WallTimer timer;
  sim.apply_circuit(row.circuit);
  const double seconds = timer.seconds();
  const auto report = sim.report();

  // Measured fidelity against an uncompressed dense run (possible at the
  // reduced scale; the paper reports the analytic bound).
  qsim::StateVector reference(n);
  reference.apply_circuit(row.circuit);
  const double measured_fidelity =
      qsim::state_fidelity(reference.raw(), sim.to_raw());

  std::printf("%-14s %6d %10s %7zu %9s %8.1f%% %7.2f %8.3f ", row.name.c_str(),
              n, core::format_bytes(requirement).c_str(),
              row.circuit.size(),
              core::format_bytes(config.memory_budget_bytes).c_str(),
              100.0 * row.budget_fraction, seconds,
              report.seconds_per_gate());
  std::printf("%7.1f%% %7.1f%% %7.1f%% %7.1f%% ",
              100.0 * report.phase_fraction(Phase::kCompression),
              100.0 * report.phase_fraction(Phase::kDecompression),
              100.0 * report.phase_fraction(Phase::kCommunication),
              100.0 * report.phase_fraction(Phase::kComputation));
  std::printf("%8.4f %8.4f %10.2f%s\n", measured_fidelity,
              report.fidelity_bound, report.min_compression_ratio,
              report.budget_exceeded ? " [over budget]" : "");
}

AblationResult run_ablation(const Row& row) {
  AblationResult result;
  result.name = row.name;
  result.qubits = row.circuit.num_qubits();
  result.gates = row.circuit.size();

  auto run_once = [&](bool simd) {
    core::SimConfig config = row_config(row);
    config.threads = 2;
    config.enable_simd_kernels = simd;
    core::CompressedStateSimulator sim(config);
    WallTimer timer;
    sim.apply_circuit(row.circuit);
    const double seconds = timer.seconds();
    return std::make_tuple(seconds, sim.report(), sim.to_raw());
  };

  const auto [seconds_on, report_on, state_on] = run_once(true);
  const auto [seconds_off, report_off, state_off] = run_once(false);
  result.seconds_on = seconds_on;
  result.seconds_off = seconds_off;
  result.state_identical = state_on == state_off;
  result.simd_kernel = report_on.simd_kernel;
  return result;
}

void print_ablation(const AblationResult& r) {
  std::printf("%-14s %6d  %7.2fs -> %7.2fs (%4.2fx)  kernels %-6s  state %s\n",
              r.name.c_str(), r.qubits, r.seconds_off, r.seconds_on,
              r.speedup(), r.simd_kernel.c_str(),
              r.state_identical ? "bit-identical" : "DRIFTED");
}

void write_json(const std::string& path,
                const std::vector<AblationResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"table2_main\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AblationResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"qubits\": " << r.qubits
        << ", \"gates\": " << r.gates
        << ",\n     \"seconds_off\": " << r.seconds_off
        << ", \"seconds_on\": " << r.seconds_on
        << ", \"speedup\": " << r.speedup()
        << ",\n     \"simd_kernel\": \"" << r.simd_kernel
        << "\", \"state_identical\": "
        << (r.state_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  bool small = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--small] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("Table 2: main simulation results (reduced scale)");
  std::printf(
      "%-14s %6s %10s %7s %9s %9s %7s %8s %8s %8s %8s %8s %8s %8s %10s\n",
      "benchmark", "qubits", "mem req", "gates", "budget", "bud/req",
      "time_s", "s/gate", "cmpr%", "dcmp%", "comm%", "comp%", "fid",
      "fid_bnd", "min_ratio");

  std::vector<Row> rows;
  if (small) {
    // CI bench-smoke sizes: same four workload families, minutes -> seconds.
    rows.push_back({"grover_14",
                    circuits::grover_circuit({.data_qubits = 8,
                                              .marked_state = 0xa3}),
                    0.01});
    rows.push_back({"sup_3x4",
                    circuits::supremacy_circuit(
                        {.rows = 3, .cols = 4, .depth = 8}),
                    0.375});
    rows.push_back({"qaoa_13",
                    circuits::qaoa_maxcut_circuit({.num_qubits = 13}),
                    0.375});
    rows.push_back({"qft_13", circuits::qft_circuit({.num_qubits = 13}),
                    0.1875});
  } else {
    // Grover: the paper's flagship (61 qubits on 0.002% of the raw
    // requirement). Structured states compress enormously, so the budget
    // is set to 1% here.
    rows.push_back({"grover_18",
                    circuits::grover_circuit({.data_qubits = 10,
                                              .marked_state = 0x25b}),
                    0.01});
    rows.push_back({"grover_16",
                    circuits::grover_circuit({.data_qubits = 9,
                                              .marked_state = 0x1a3}),
                    0.01});
    // Random circuit sampling at depth 11 (paper: 5x9..7x5 grids, 37.5%).
    rows.push_back({"sup_4x4",
                    circuits::supremacy_circuit(
                        {.rows = 4, .cols = 4, .depth = 11}),
                    0.375});
    rows.push_back({"sup_3x5",
                    circuits::supremacy_circuit(
                        {.rows = 3, .cols = 5, .depth = 11}),
                    0.1875});
    // QAOA MAXCUT on random 4-regular graphs (paper: 42-45 qubits, 37.5%).
    rows.push_back({"qaoa_18",
                    circuits::qaoa_maxcut_circuit({.num_qubits = 18}),
                    0.375});
    rows.push_back({"qaoa_16",
                    circuits::qaoa_maxcut_circuit({.num_qubits = 16}),
                    0.375});
    // QFT, the deep circuit (paper: 36 qubits, 18.75%, 3258 gates).
    rows.push_back({"qft_16", circuits::qft_circuit({.num_qubits = 16}),
                    0.1875});
  }

  for (const Row& row : rows) run_row(row);

  if (!small) {
    std::printf(
        "\nshape check (paper): Grover fits in a vanishing fraction of the "
        "requirement at ratios >> 100x with fidelity ~1; supremacy circuits "
        "are the hardest (ratios 5-10x, fidelity dips under tight budgets); "
        "QAOA and QFT sit in between with high fidelity; compression + "
        "decompression dominate the dense workloads' time while Grover is "
        "computation/communication bound\n");
  }

  bench::print_header(
      "SIMD ablation (2 workers, scalar vs SIMD, bit-identity gated)");
  std::vector<AblationResult> ablation;
  for (const Row& row : rows) {
    ablation.push_back(run_ablation(row));
    print_ablation(ablation.back());
  }

  if (!json_path.empty()) {
    write_json(json_path, ablation);
    std::printf("wrote %s\n", json_path.c_str());
  }

  bool failed = false;
  for (const AblationResult& r : ablation) {
    if (!r.state_identical) {
      std::fprintf(stderr,
                   "FAIL: %s state drifted between scalar and SIMD "
                   "kernels (must be bit-identical)\n",
                   r.name.c_str());
      failed = true;
    }
  }
  return failed ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_table2_main: %s\n", e.what());
  return 1;
}
