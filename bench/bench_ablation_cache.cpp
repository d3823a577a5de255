// Ablation (Section 3.4): the compressed block cache, kept inside one sweep,
// on structured (Grover) vs unstructured (supremacy) workloads. Each circuit
// runs once with sharing off and at 1, 2 and 4 threads with it on. Exits
// nonzero when a sharing-on state differs from the sharing-off state by a
// bit, when hits, misses or codec calls differ between thread counts, or
// when Grover needs fewer than 3x fewer compressions with sharing on.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/supremacy.hpp"
#include "common/timer.hpp"
#include "core/simulator.hpp"

namespace {

using namespace cqs;

struct Run {
  std::vector<double> state;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compressions = 0;
  std::uint64_t decompressions = 0;

  bool same_counts(const Run& other) const {
    return hits == other.hits && misses == other.misses &&
           compressions == other.compressions &&
           decompressions == other.decompressions;
  }
};

Run run(const char* name, const qsim::Circuit& circuit, bool cache,
        int threads) {
  core::SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = 4;
  config.blocks_per_rank = 16;
  config.threads = threads;
  config.enable_cache = cache;
  core::CompressedStateSimulator sim(config);
  WallTimer timer;
  sim.apply_circuit(circuit);
  const double seconds = timer.seconds();
  const auto report = sim.report();
  std::printf("%-12s %6s %8d %10.2f %10lu %10lu %9.1f%% %12lu\n", name,
              cache ? "on" : "off", threads, seconds,
              static_cast<unsigned long>(report.cache.hits),
              static_cast<unsigned long>(report.cache.misses),
              100.0 * report.cache.hit_rate(),
              static_cast<unsigned long>(report.compress_invocations));
  return {sim.to_raw(), report.cache.hits, report.cache.misses,
          report.compress_invocations, report.decompress_invocations};
}

/// Runs `circuit` with sharing off, then on at 1, 2 and 4 threads; returns
/// false on any gate failure. `min_saving` is the least factor by which
/// sharing must cut compressions (0 = not gated).
bool ablate(const char* name, const qsim::Circuit& circuit,
            double min_saving) {
  const Run off = run(name, circuit, false, 4);
  bool ok = true;
  std::vector<Run> on;
  for (int threads : {1, 2, 4}) {
    on.push_back(run(name, circuit, true, threads));
    if (on.back().state != off.state) {
      std::fprintf(stderr, "FAIL: %s state with sharing on at %d threads "
                   "differs from sharing off\n", name, threads);
      ok = false;
    }
    if (!on.back().same_counts(on.front())) {
      std::fprintf(stderr, "FAIL: %s hits, misses or codec calls at %d "
                   "threads differ from 1 thread\n", name, threads);
      ok = false;
    }
  }
  const double saving = static_cast<double>(off.compressions) /
                        static_cast<double>(on.front().compressions);
  std::printf("%-12s compressions off/on: %.2fx\n", name, saving);
  if (saving < min_saving) {
    std::fprintf(stderr, "FAIL: %s sharing cuts compressions %.2fx < %.1fx\n",
                 name, saving, min_saving);
    ok = false;
  }
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: compressed block cache (Section 3.4), shared inside one "
      "sweep, on structured vs unstructured workloads");
  std::printf("%-12s %6s %8s %10s %10s %10s %10s %12s\n", "workload",
              "cache", "threads", "time (s)", "hits", "misses", "hit rate",
              "compressions");

  const auto grover = circuits::grover_circuit(
      {.data_qubits = 10, .marked_state = 0x2aa});
  const auto sup =
      circuits::supremacy_circuit({.rows = 4, .cols = 4, .depth = 11});

  bool ok = ablate("grover_18", grover, 3.0);
  ok = ablate("sup_4x4", sup, 0.0) && ok;

  std::printf(
      "\nexpectation: Grover states repeat blocks, so many units of a sweep "
      "read equal bytes and share one output; random circuits repeat few "
      "blocks, so most units compute their own. Sharing never changes a "
      "bit, and the counts do not depend on the thread count\n");
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
