// Entropy-stage A/B: each circuit runs under plain zfp and under zfp-rans
// (the identical zfp plane stream, re-coded by an order-0 rANS stage),
// plus a fully lossless reference run that supplies the exact state for
// fidelity measurement. The rANS stage is lossless over the zfp
// bitstream, so fidelity must match; the question is only whether the
// re-coding wins net bytes.
//
//   $ ./bench_entropy_stage [--qubits N] [--level L] [--json PATH]
//
// Grover is the sparse workload (ancilla subspace: most blocks are exact
// zeros), supremacy the dense one (Porter-Thomas amplitudes everywhere),
// QFT sits between; --qubits sets QFT's width. --level pins the starting
// ladder level (default 1 = 1e-5 relative), so every block goes through
// the lossy codec. --json writes the measurements for CI's bench smoke.
//
// Exits nonzero if zfp-rans costs fidelity on any circuit, or wins net
// bytes on none.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"

namespace {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;

struct RunResult {
  std::size_t final_bytes = 0;
  std::vector<double> state;
};

RunResult run_once(const cqs::qsim::Circuit& circuit, int level,
                   const std::string& codec) {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.initial_level = level;
  config.codec = codec;
  // The cache would absorb codec passes on structured circuits; disable it
  // so every block of every sweep goes through the codec under test.
  config.enable_cache = false;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  RunResult result;
  result.final_bytes = sim.compressed_bytes();
  result.state = sim.to_raw();
  return result;
}

std::vector<double> lossless_reference(const cqs::qsim::Circuit& circuit) {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.codec = "zstd";  // lossless-only: the exact state
  config.enable_cache = false;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  return sim.to_raw();
}

struct EntropyComparison {
  std::string name;
  int qubits = 0;
  RunResult zfp;
  RunResult rans;
  double zfp_fidelity = 0.0;   // vs lossless reference
  double rans_fidelity = 0.0;  // vs lossless reference
};

EntropyComparison entropy_compare(const std::string& name,
                                  const cqs::qsim::Circuit& circuit,
                                  int level) {
  EntropyComparison cmp;
  cmp.name = name;
  cmp.qubits = circuit.num_qubits();
  cmp.zfp = run_once(circuit, level, "zfp");
  cmp.rans = run_once(circuit, level, "zfp-rans");
  const auto reference = lossless_reference(circuit);
  cmp.zfp_fidelity = cqs::qsim::state_fidelity(cmp.zfp.state, reference);
  cmp.rans_fidelity = cqs::qsim::state_fidelity(cmp.rans.state, reference);
  return cmp;
}

void print_entropy_comparison(const EntropyComparison& cmp) {
  std::printf("%-10s %2dq  |", cmp.name.c_str(), cmp.qubits);
  std::printf(
      " bytes zfp %8zu -> zfp-rans %8zu (%+.1f%%)  | fidelity %.8f -> "
      "%.8f\n",
      cmp.zfp.final_bytes, cmp.rans.final_bytes,
      100.0 * (static_cast<double>(cmp.rans.final_bytes) /
                   static_cast<double>(cmp.zfp.final_bytes) -
               1.0),
      cmp.zfp_fidelity, cmp.rans_fidelity);
}

void write_json(const std::string& path,
                const std::vector<EntropyComparison>& entropy) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"entropy_stage\",\n  \"entropy_stage\": [\n";
  for (std::size_t i = 0; i < entropy.size(); ++i) {
    const EntropyComparison& c = entropy[i];
    out << "    {\"name\": \"" << c.name << "\", \"qubits\": " << c.qubits
        << ", \"zfp_bytes\": " << c.zfp.final_bytes
        << ", \"zfp_rans_bytes\": " << c.rans.final_bytes
        << ", \"zfp_fidelity\": " << c.zfp_fidelity
        << ", \"zfp_rans_fidelity\": " << c.rans_fidelity << "}"
        << (i + 1 < entropy.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cqs;
  int qft_qubits = 16;
  int level = 1;
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
    } else if (arg == "--level") {
      level = std::atoi(next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--qubits N] [--level L] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("Entropy stage: zfp vs zfp-rans");
  std::vector<EntropyComparison> entropy;
  entropy.push_back(entropy_compare(
      "grover",
      circuits::grover_circuit({.data_qubits = 6,
                                .marked_state = 0b101101,
                                .iterations = 2}),
      level));
  print_entropy_comparison(entropy.back());
  entropy.push_back(entropy_compare(
      "qft",
      circuits::qft_circuit({.num_qubits = qft_qubits,
                             .random_input = false}),
      level));
  print_entropy_comparison(entropy.back());
  entropy.push_back(entropy_compare(
      "supremacy",
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 11}),
      level));
  print_entropy_comparison(entropy.back());

  if (!json_path.empty()) {
    write_json(json_path, entropy);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Acceptance gates: re-coding the plane stream must win net bytes on at
  // least one bundled circuit, and — being lossless over the zfp
  // bitstream — must never cost fidelity anywhere.
  bool ok = true;
  bool rans_wins_somewhere = false;
  for (const EntropyComparison& c : entropy) {
    if (c.rans.final_bytes < c.zfp.final_bytes) rans_wins_somewhere = true;
    if (c.rans_fidelity < c.zfp_fidelity - 1e-12) {
      std::fprintf(stderr,
                   "FAIL: zfp-rans fidelity %.12f < zfp %.12f on %s\n",
                   c.rans_fidelity, c.zfp_fidelity, c.name.c_str());
      ok = false;
    }
  }
  if (!rans_wins_somewhere) {
    std::fprintf(stderr,
                 "FAIL: zfp-rans won net bytes on no bundled circuit\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_entropy_stage: %s\n", e.what());
  return 1;
}
