// Table 1 reproduction: supercomputer memory capacities and the maximum
// number of qubits they can simulate for arbitrary circuits, plus the
// Section 5.5 projections with measured compression ratios — and the
// out-of-core demonstration of the same headline: under one fixed
// in-memory budget, the qubit count that exceeds RAM in a memory-only
// run completes once cold blocks spill to the NVMe tier, bit-identically.
//
//   $ ./bench_table1_max_qubits [--base-qubits N] [--extra M] [--json PATH]
//
// The harness self-calibrates: a probe run at N qubits (default 10)
// measures the peak compressed footprint, and the "machine RAM" budget is
// set a little above it. Memory-only runs at N+1..N+M then exceed the
// budget (the OOM proxy: budget_exceeded even at the last ladder level —
// the codec is pinned lossless so there is no ladder to escalate), while
// the spilled runs keep the resident tier under the same budget and
// complete. Exits nonzero if spilling fails to raise the ceiling, if a
// spilled run ends with its resident tier over the budget, or if the
// spilled state drifts from the in-memory state at the common size.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/qft.hpp"
#include "common/timer.hpp"
#include "core/memory_model.hpp"
#include "core/simulator.hpp"

namespace {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;

struct ModeResult {
  bool completes = false;  ///< finished within the in-memory budget
  std::size_t resident_bytes = 0;
  std::size_t spilled_bytes = 0;
  std::size_t total_bytes = 0;
  std::uint64_t spill_events = 0;
  double seconds = 0.0;
};

struct Row {
  int qubits = 0;
  ModeResult in_ram;
  ModeResult spilled;
};

SimConfig budget_config(int qubits, std::size_t budget,
                        const std::string& spill_path) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 8;
  // Lossless-only: over budget there is no error ladder to escalate, so
  // budget_exceeded is a hard "does not fit", the OOM proxy.
  config.codec = "zstd";
  config.memory_budget_bytes = budget;
  if (!spill_path.empty()) {
    config.spill_path = spill_path;
    config.resident_budget_bytes = budget;
  }
  return config;
}

ModeResult run_mode(int qubits, std::size_t budget,
                    const std::string& spill_path,
                    std::vector<double>* state_out = nullptr) {
  CompressedStateSimulator sim(budget_config(qubits, budget, spill_path));
  cqs::WallTimer timer;
  sim.apply_circuit(cqs::circuits::qft_circuit({.num_qubits = qubits}));
  ModeResult result;
  result.seconds = timer.seconds();
  const auto report = sim.report();
  result.completes = !report.budget_exceeded;
  result.resident_bytes = report.resident_bytes;
  result.spilled_bytes = report.spilled_bytes;
  result.total_bytes = sim.compressed_bytes();
  result.spill_events = report.spill_events;
  if (state_out != nullptr) *state_out = sim.to_raw();
  return result;
}

std::string spill_scratch(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

void write_json(const std::string& path, std::size_t budget,
                const std::vector<Row>& rows, int in_ram_max,
                int spilled_max, bool bit_identical) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"table1_max_qubits\",\n"
      << "  \"budget_bytes\": " << budget << ",\n"
      << "  \"in_ram_max_qubits\": " << in_ram_max << ",\n"
      << "  \"spilled_max_qubits\": " << spilled_max << ",\n"
      << "  \"qubit_gain\": " << (spilled_max - in_ram_max) << ",\n"
      << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const auto mode = [&](const ModeResult& m) {
      return std::string("{\"completes\": ") +
             (m.completes ? "true" : "false") +
             ", \"resident\": " + std::to_string(m.resident_bytes) +
             ", \"spilled\": " + std::to_string(m.spilled_bytes) +
             ", \"spill_events\": " + std::to_string(m.spill_events) +
             ", \"seconds\": " + std::to_string(m.seconds) + "}";
    };
    out << "    {\"qubits\": " << row.qubits
        << ",\n     \"in_ram\": " << mode(row.in_ram)
        << ",\n     \"spilled\": " << mode(row.spilled) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cqs;
  int base_qubits = 10;
  int extra = 3;
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
    if (arg == "--base-qubits") {
      base_qubits = std::atoi(next());
    } else if (arg == "--extra") {
      extra = std::atoi(next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--base-qubits N] [--extra M] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "Table 1: memory capacity vs. maximum simulable qubits");
  std::printf("%-20s %10s %10s\n", "System", "Mem (PB)", "Max Qubits");
  for (const auto& row : core::table1_machines()) {
    std::printf("%-20s %10.2f %10d\n", row.name.c_str(),
                row.memory_petabytes, row.max_qubits);
  }
  std::printf("\npaper: Summit 47, Sierra 46, Sunway TaihuLight 46, "
              "Theta 45\n\n");

  bench::print_header(
      "Section 5.5 projection: max qubits at measured compression ratios");
  std::printf("%-20s %12s %12s %12s %12s\n", "System", "ratio 1x",
              "ratio 4.85x", "ratio 21.3x", "Grover 7e4x");
  for (double pb : {2.8, 0.8}) {
    const auto bytes = static_cast<std::uint64_t>(pb * 1e15);
    std::printf("%-20s %12d %12d %12d %12d\n",
                pb == 2.8 ? "Summit" : "Theta",
                core::max_qubits_for_memory(bytes),
                core::max_qubits_with_compression(bytes, 4.85),
                core::max_qubits_with_compression(bytes, 21.34),
                core::max_qubits_with_compression(bytes, 7.39e4));
  }
  std::printf("\npaper: Theta 45 -> 61 qubits for Grover (768 TB instead of "
              "32 EB); Summit general-circuit projection 63 qubits\n\n");

  bench::print_header(
      "Out-of-core: the in-RAM qubit ceiling vs the NVMe-spill ceiling");

  // Calibrate the "machine RAM" to sit just above the base instance's
  // peak compressed footprint: base fits, every extra qubit doubles the
  // state and exceeds it.
  CompressedStateSimulator probe(budget_config(base_qubits, 0, ""));
  probe.apply_circuit(circuits::qft_circuit({.num_qubits = base_qubits}));
  const std::size_t peak = probe.report().peak_compressed_bytes;
  const std::size_t budget = peak + peak / 4;
  std::printf("budget %zu bytes (1.25x the %d-qubit peak footprint)\n\n",
              budget, base_qubits);

  std::printf("%7s | %-30s | %-40s\n", "qubits", "memory-only",
              "with NVMe spill tier");
  std::vector<Row> rows;
  int in_ram_max = 0;
  int spilled_max = 0;
  bool accounting_ok = true;
  bool resident_within_budget = true;
  for (int qubits = base_qubits; qubits <= base_qubits + extra; ++qubits) {
    Row row;
    row.qubits = qubits;
    row.in_ram = run_mode(qubits, budget, "");
    row.spilled = run_mode(
        qubits, budget,
        spill_scratch("cqs_table1_" + std::to_string(qubits) + ".spill"));
    if (row.in_ram.completes) in_ram_max = qubits;
    if (row.spilled.completes) spilled_max = qubits;
    if (row.spilled.resident_bytes + row.spilled.spilled_bytes !=
        row.spilled.total_bytes) {
      accounting_ok = false;
    }
    if (row.spilled.resident_bytes > budget) resident_within_budget = false;
    std::printf(
        "%7d | %-11s %8zu KiB res | %-9s %7zu KiB res + %7zu KiB nvme\n",
        qubits, row.in_ram.completes ? "fits" : "OVER BUDGET",
        row.in_ram.resident_bytes / 1024,
        row.spilled.completes ? "completes" : "over",
        row.spilled.resident_bytes / 1024, row.spilled.spilled_bytes / 1024);
    rows.push_back(row);
  }

  // Bit-identity at the common size: the tier moves are byte-preserving,
  // so the spilled run's state equals the in-memory run's exactly.
  std::vector<double> in_ram_state;
  std::vector<double> spilled_state;
  run_mode(base_qubits, budget, "", &in_ram_state);
  run_mode(base_qubits, budget,
           spill_scratch("cqs_table1_identity.spill"), &spilled_state);
  const bool bit_identical = in_ram_state == spilled_state;

  std::printf("\nmemory-only ceiling: %d qubits; spilled ceiling: %d qubits "
              "(+%d); common-size states %s\n",
              in_ram_max, spilled_max, spilled_max - in_ram_max,
              bit_identical ? "bit-identical" : "DIFFER");

  if (!json_path.empty()) {
    write_json(json_path, budget, rows, in_ram_max, spilled_max,
               bit_identical);
    std::printf("wrote %s\n", json_path.c_str());
  }

  bool ok = true;
  if (spilled_max <= in_ram_max) {
    std::fprintf(stderr,
                 "FAIL: spill tier did not raise the qubit ceiling "
                 "(in-RAM %d, spilled %d)\n",
                 in_ram_max, spilled_max);
    ok = false;
  }
  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: spilled state drifted from in-memory\n");
    ok = false;
  }
  if (!accounting_ok) {
    std::fprintf(stderr,
                 "FAIL: resident + spilled != total compressed bytes\n");
    ok = false;
  }
  if (!resident_within_budget) {
    std::fprintf(stderr,
                 "FAIL: a spilled run ended with its resident tier over "
                 "the %zu-byte budget\n",
                 budget);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_table1_max_qubits: %s\n", e.what());
  return 1;
}
