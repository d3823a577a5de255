// Codec-arbiter ablation: the paper's Figs. 9-14 observation — per-block
// state structure dictates which codec wins — measured head-to-head. Each
// circuit runs once with codec_policy=fixed (every lossy pass uses the
// configured codec, the seed behavior) and once with codec_policy=adaptive
// (the arbiter keeps sparse/spiky blocks on the lossless zx path), plus a
// fully lossless reference run that supplies the exact state for fidelity
// measurement.
//
//   $ ./bench_codec_arbiter [--qubits N] [--level L] [--json PATH]
//
// Grover is the sparse workload (ancilla subspace: most blocks are exact
// zeros), supremacy the dense one (Porter-Thomas amplitudes everywhere),
// QFT sits between. --level pins the starting ladder level (default 1 =
// 1e-5 relative) so the lossy-vs-lossless arbitration is actually
// exercised. --json writes the measurements for CI's bench-smoke gate.
//
// Exits nonzero if the adaptive policy compresses WORSE than fixed on the
// sparse workload (final state bytes), or if its fidelity on the dense
// workload falls below fixed's (the arbiter must not trade accuracy away).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/timer.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"

namespace {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;
using cqs::core::SimulationReport;

struct RunResult {
  SimulationReport report;
  double seconds = 0.0;
  std::size_t final_bytes = 0;
  std::vector<double> state;
};

RunResult run_once(const cqs::qsim::Circuit& circuit,
                   const std::string& policy, int level,
                   const std::string& codec = "") {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.initial_level = level;
  config.codec_policy = policy;
  if (!codec.empty()) config.codec = codec;
  // The cache would absorb codec passes on structured circuits; disable it
  // so the comparison isolates what the arbiter changes.
  config.enable_cache = false;
  CompressedStateSimulator sim(config);
  cqs::WallTimer timer;
  sim.apply_circuit(circuit);
  RunResult result;
  result.seconds = timer.seconds();
  result.final_bytes = sim.compressed_bytes();
  result.report = sim.report();  // snapshot before state queries decompress
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

struct Comparison {
  std::string name;
  int qubits = 0;
  RunResult fixed;
  RunResult adaptive;
  double fixed_fidelity = 0.0;     // vs lossless reference
  double adaptive_fidelity = 0.0;  // vs lossless reference
};

Comparison compare(const std::string& name,
                   const cqs::qsim::Circuit& circuit, int level) {
  Comparison cmp;
  cmp.name = name;
  cmp.qubits = circuit.num_qubits();
  cmp.fixed = run_once(circuit, "fixed", level);
  cmp.adaptive = run_once(circuit, "adaptive", level);
  const auto reference = lossless_reference(circuit);
  cmp.fixed_fidelity = cqs::qsim::state_fidelity(cmp.fixed.state, reference);
  cmp.adaptive_fidelity =
      cqs::qsim::state_fidelity(cmp.adaptive.state, reference);
  return cmp;
}

// Entropy-stage A/B: the same circuit under codec_policy=fixed with plain
// zfp and with zfp-rans (identical plane stream, rANS re-coded). The rANS
// stage is lossless over the zfp bitstream, so fidelity must match exactly;
// the question is only whether the re-coding wins net bytes.
struct EntropyComparison {
  std::string name;
  int qubits = 0;
  RunResult zfp;
  RunResult rans;
  double zfp_fidelity = 0.0;
  double rans_fidelity = 0.0;
};

EntropyComparison entropy_compare(const std::string& name,
                                  const cqs::qsim::Circuit& circuit,
                                  int level) {
  EntropyComparison cmp;
  cmp.name = name;
  cmp.qubits = circuit.num_qubits();
  cmp.zfp = run_once(circuit, "fixed", level, "zfp");
  cmp.rans = run_once(circuit, "fixed", level, "zfp-rans");
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

void print_comparison(const Comparison& cmp) {
  const auto& a = cmp.adaptive.report;
  std::printf("%-10s %2dq  |", cmp.name.c_str(), cmp.qubits);
  std::printf(
      " bytes %8zu -> %8zu (peak %8zu -> %8zu)  | fidelity %.8f -> %.8f"
      "  | adaptive mix %llu lossless / %llu lossy (%llu switches)\n",
      cmp.fixed.final_bytes, cmp.adaptive.final_bytes,
      cmp.fixed.report.peak_compressed_bytes, a.peak_compressed_bytes,
      cmp.fixed_fidelity, cmp.adaptive_fidelity,
      static_cast<unsigned long long>(a.lossless_compress_invocations),
      static_cast<unsigned long long>(a.lossy_compress_invocations),
      static_cast<unsigned long long>(a.codec_switches));
}

void write_json(const std::string& path,
                const std::vector<Comparison>& results,
                const std::vector<EntropyComparison>& entropy) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"codec_arbiter\",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Comparison& c = results[i];
    // Each compression decides its codec once, so the choice counts are
    // the compress calls of each class.
    const auto side = [](const RunResult& r) {
      return "{\"final_bytes\": " + std::to_string(r.final_bytes) +
             ", \"peak_bytes\": " +
             std::to_string(r.report.peak_compressed_bytes) +
             ", \"lossy_passes\": " + std::to_string(r.report.lossy_passes) +
             ", \"lossless_choices\": " +
             std::to_string(r.report.lossless_compress_invocations) +
             ", \"lossy_choices\": " +
             std::to_string(r.report.lossy_compress_invocations) +
             ", \"switches\": " + std::to_string(r.report.codec_switches) +
             ", \"fidelity_bound\": " +
             std::to_string(r.report.fidelity_bound) +
             ", \"seconds\": " + std::to_string(r.seconds) + "}";
    };
    out << "    {\"name\": \"" << c.name << "\", \"qubits\": " << c.qubits
        << ",\n     \"fixed\": " << side(c.fixed)
        << ",\n     \"adaptive\": " << side(c.adaptive)
        << ",\n     \"fixed_fidelity\": " << c.fixed_fidelity
        << ", \"adaptive_fidelity\": " << c.adaptive_fidelity << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"entropy_stage\": [\n";
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

  bench::print_header(
      "Codec arbiter: fixed codec vs per-block adaptive selection");

  std::vector<Comparison> results;
  results.push_back(compare(
      "grover",
      circuits::grover_circuit({.data_qubits = 6,
                                .marked_state = 0b101101,
                                .iterations = 2}),
      level));
  print_comparison(results.back());
  results.push_back(compare(
      "qft",
      circuits::qft_circuit({.num_qubits = qft_qubits,
                             .random_input = false}),
      level));
  print_comparison(results.back());
  results.push_back(compare(
      "supremacy",
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 11}),
      level));
  print_comparison(results.back());

  bench::print_header("Entropy stage: fixed zfp vs fixed zfp-rans");
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
    write_json(json_path, results, entropy);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Acceptance gates. Sparse (Grover): the arbiter must pay off in bytes —
  // zero-suppressing lossless must beat quantizing the ancilla subspace.
  // Dense (supremacy): the arbiter must do no harm — fidelity no worse
  // than the fixed policy's.
  const Comparison& grover = results[0];
  const Comparison& sup = results[2];
  bool ok = true;
  if (grover.adaptive.final_bytes > grover.fixed.final_bytes) {
    std::fprintf(stderr,
                 "FAIL: adaptive final bytes %zu > fixed %zu on grover\n",
                 grover.adaptive.final_bytes, grover.fixed.final_bytes);
    ok = false;
  }
  if (grover.adaptive_fidelity < grover.fixed_fidelity - 1e-12) {
    std::fprintf(stderr, "FAIL: adaptive grover fidelity %.12f < fixed %.12f\n",
                 grover.adaptive_fidelity, grover.fixed_fidelity);
    ok = false;
  }
  if (sup.adaptive_fidelity < sup.fixed_fidelity - 1e-9) {
    std::fprintf(stderr,
                 "FAIL: adaptive supremacy fidelity %.12f < fixed %.12f\n",
                 sup.adaptive_fidelity, sup.fixed_fidelity);
    ok = false;
  }
  // Entropy stage: re-coding the plane stream must win net bytes on at
  // least one bundled circuit, and — being lossless over the zfp
  // bitstream — must never cost fidelity anywhere.
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
  std::fprintf(stderr, "bench_codec_arbiter: %s\n", e.what());
  return 1;
}
