// cqs_run — command-line driver: run a serialized circuit file through
// the compressed-state simulator.
//
//   $ ./cqs_run circuit.cqs [options]
//     --ranks N          logical ranks (power of two, default 4)
//     --blocks N         blocks per rank (power of two, default 8)
//     --codec NAME       lossy codec (default qzc)
//     --budget-frac F    memory budget as a fraction of 2^{n+4} (default 0:
//                        unlimited, stays lossless)
//     --no-batching      disable the gate-run scheduler and its fusion
//                        pre-pass (every gate is a sweep of its own)
//     --checkpoint PATH  save a checkpoint at the end
//     --samples N        print N sampled basis states
//     --spill PATH       out-of-core: spill cold compressed blocks to an
//                        unlinked scratch file at PATH (needs
//                        --resident-frac)
//     --resident-frac F  resident-tier budget as a fraction of 2^{n+4};
//                        the rest of the compressed state parks on disk
//     --checkpoint-interval N  autosave every N source gates (needs
//                        --autosave)
//     --autosave PATH    atomic autosave target (needs
//                        --checkpoint-interval)
//     --resilient        resume from the --autosave image when one exists
//                        (the last autosave of a run that crashed; exit 3
//                        when it holds another circuit's state), and
//                        ride out a full spill disk by staying resident
//     --fault-plan SPEC  arm the deterministic fault injector, e.g.
//                        "seed=7;spill.write@2:enospc" (see
//                        src/runtime/fault_injection.hpp for the grammar)
//
// Exit codes:
//   0  success
//   1  generic failure (I/O, internal error)
//   2  usage error (unknown flag, missing operand, or a numeric operand
//      that is not wholly a number; fractions must be finite and >= 0)
//   3  invalid configuration (bad flag combination or value, a
//      --fault-plan naming an unknown site or action or a number above
//      2^64 - 1, or a --resilient resume of another circuit's autosave)
//   5  spill/disk fault (ENOSPC, I/O error on the spill tier)
//
// Circuit file format (see src/qsim/serialize.hpp):
//   qubits 4
//   h 0
//   cx 0 1
//   rz 2 0.785398
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>

#include "common/rng.hpp"
#include "core/memory_model.hpp"
#include "core/simulator.hpp"
#include "qsim/serialize.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/spill_file.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  std::fprintf(stderr,
               "usage: %s <circuit-file> [--ranks N] [--blocks N] "
               "[--codec NAME] [--budget-frac F] "
               "[--no-batching] [--checkpoint PATH] "
               "[--samples N] [--spill PATH] [--resident-frac F] "
               "[--checkpoint-interval N] [--autosave PATH] "
               "[--resilient] [--fault-plan SPEC]\n"
               "exit codes: 0 ok, 1 failure, 2 usage, 3 bad config, "
               "5 spill fault\n",
               argv0);
  std::exit(2);
}

/// The operand of `flag` as a T. The whole token must be a number in T's
/// range; anything else is a usage error.
template <typename T>
T parse_number(const char* argv0, const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc() || stop != end) {
    usage(argv0, "bad number for " + flag + ": " + text);
  }
  return value;
}

/// A fraction of the memory requirement: a finite number >= 0.
double parse_fraction(const char* argv0, const std::string& flag,
                      const char* text) {
  const double value = parse_number<double>(argv0, flag, text);
  if (!std::isfinite(value) || value < 0.0) {
    usage(argv0, "bad number for " + flag + ": " + text);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cqs;
  if (argc < 2) usage(argv[0]);

  std::string circuit_path = argv[1];
  core::SimConfig config;
  config.num_ranks = 4;
  config.blocks_per_rank = 8;
  double budget_fraction = 0.0;
  double resident_fraction = 0.0;
  std::string checkpoint_path;
  int samples = 0;
  bool resilient = false;
  std::string fault_plan;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto next_int = [&] { return parse_number<int>(argv[0], arg, next()); };
    auto next_fraction = [&] { return parse_fraction(argv[0], arg, next()); };
    if (arg == "--ranks") {
      config.num_ranks = next_int();
    } else if (arg == "--blocks") {
      config.blocks_per_rank = next_int();
    } else if (arg == "--codec") {
      config.codec = next();
    } else if (arg == "--budget-frac") {
      budget_fraction = next_fraction();
    } else if (arg == "--no-batching") {
      config.enable_run_batching = false;
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--samples") {
      samples = next_int();
    } else if (arg == "--spill") {
      config.spill_path = next();
    } else if (arg == "--resident-frac") {
      resident_fraction = next_fraction();
    } else if (arg == "--checkpoint-interval") {
      config.checkpoint_interval_gates =
          parse_number<std::uint64_t>(argv[0], arg, next());
    } else if (arg == "--autosave") {
      config.auto_checkpoint_path = next();
    } else if (arg == "--resilient") {
      resilient = true;
    } else if (arg == "--fault-plan") {
      fault_plan = next();
    } else {
      usage(argv[0]);
    }
  }

  std::ifstream in(circuit_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", circuit_path.c_str());
    return 1;
  }
  const qsim::Circuit circuit = qsim::parse_circuit(in);
  config.num_qubits = circuit.num_qubits();
  // Shrink the default partition for small circuits: every block must hold
  // at least two amplitudes.
  while (config.num_ranks * config.blocks_per_rank * 2 >
             (1 << circuit.num_qubits()) &&
         (config.num_ranks > 1 || config.blocks_per_rank > 1)) {
    if (config.blocks_per_rank > 1) {
      config.blocks_per_rank /= 2;
    } else {
      config.num_ranks /= 2;
    }
  }
  if (budget_fraction > 0.0) {
    config.memory_budget_bytes = static_cast<std::size_t>(
        budget_fraction *
        static_cast<double>(
            core::memory_required_bytes(circuit.num_qubits())));
  }
  if (resident_fraction > 0.0) {
    config.resident_budget_bytes = static_cast<std::size_t>(
        resident_fraction *
        static_cast<double>(
            core::memory_required_bytes(circuit.num_qubits())));
  }

  if (!fault_plan.empty()) {
    runtime::FaultInjector::instance().arm(
        runtime::FaultPlan::parse(fault_plan));
  }

  core::CompressedStateSimulator sim = [&] {
    if (resilient) {
      return core::CompressedStateSimulator::run_resilient(config, circuit);
    }
    core::CompressedStateSimulator plain(config);
    plain.apply_circuit(circuit);
    return plain;
  }();

  std::cout << sim.report();
  if (samples > 0) {
    Rng rng(20190517);
    std::printf("samples:\n");
    for (int s = 0; s < samples; ++s) {
      std::printf("  %0*llx\n", (circuit.num_qubits() + 3) / 4,
                  static_cast<unsigned long long>(sim.sample(rng)));
    }
  }
  if (!checkpoint_path.empty()) {
    sim.save_checkpoint(checkpoint_path);
    std::printf("checkpoint written to %s\n", checkpoint_path.c_str());
  }
  return 0;
} catch (const cqs::runtime::SpillError& e) {
  std::fprintf(stderr, "cqs_run: %s\n", e.what());
  return 5;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "cqs_run: %s\n", e.what());
  return 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cqs_run: %s\n", e.what());
  return 1;
}
