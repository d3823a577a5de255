// The suite's four workloads. Each is a seeded circuit plus a simulator
// configuration and a readout set; the simulator only ever receives the
// generated circuit. The seed draws the sampling RNG, the QAOA and QFT
// qubit labelings and the Grover marked state. Each draw is
// chosen so that different seeds cost the same, because ten seeds'
// medians must agree within the metric bounds.
//
// Every workload runs on the same fixed settings: 4 ranks x 16 blocks,
// 2 worker threads, every other knob at its SimConfig default. Each
// workload stresses a different layer so a change to one layer has one
// workload that exercises it and one that bypasses it:
//   qaoa_lossy    the lossy codec and the error ladder (budget-forced)
//   rcs_sample    lossless zx on dense data, written then only read
//   grover_sparse a sparse state: long zero runs, kernels, cache hits
//   qft_ooc       an incompressible state through spill, autosave and
//                 cross-rank exchange
#pragma once

#include <algorithm>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/memory_model.hpp"
#include "qsim/circuit.hpp"
#include "runtime/partition.hpp"

namespace cqs::bench::suite {

inline constexpr int kRanks = 4;
inline constexpr int kBlocksPerRank = 16;
inline constexpr int kThreads = 2;

inline const char* const kWorkloadNames[] = {"qaoa_lossy", "rcs_sample",
                                             "grover_sparse", "qft_ooc"};

struct Workload {
  std::string name;
  qsim::Circuit circuit{1};
  core::SimConfig config;
  /// Readout after the circuit, in this order: one <Z_u Z_v> per pair,
  /// norm() when set, then `shots` calls of sample() from `sample_seed`.
  std::vector<std::pair<int, int>> zz_pairs;
  bool read_norm = false;
  int shots = 0;
  std::uint64_t sample_seed = 0;
};

namespace detail {

inline std::size_t budget_share(int qubits, double share) {
  return static_cast<std::size_t>(
      share * static_cast<double>(core::memory_required_bytes(qubits)));
}

/// A random qubit permutation that shuffles the block-segment qubits among
/// themselves and the rank-segment qubits among themselves, leaving the
/// offset segment alone. Relabeling a circuit this way only changes which
/// block and rank hold which amplitudes: every block's contents, and so
/// every codec call's input, stays the same.
inline std::vector<int> block_rank_shuffle(int qubits, Rng& rng) {
  const runtime::Partition part =
      runtime::make_partition(qubits, kRanks, kBlocksPerRank);
  std::vector<int> perm(static_cast<std::size_t>(qubits));
  std::iota(perm.begin(), perm.end(), 0);
  const auto begin = perm.begin() + part.offset_bits;
  const auto rank_begin = begin + part.block_bits;
  for (auto [first, last] : {std::pair{begin, rank_begin},
                             std::pair{rank_begin, perm.end()}}) {
    for (auto n = last - first; n > 1; --n) {
      std::iter_swap(first + (n - 1),
                     first + static_cast<std::ptrdiff_t>(rng.next_below(
                                 static_cast<std::uint64_t>(n))));
    }
  }
  return perm;
}

/// `circuit` with qubit q renamed perm[q] in every op.
inline qsim::Circuit relabeled(const qsim::Circuit& circuit,
                               const std::vector<int>& perm) {
  qsim::Circuit out(circuit.num_qubits());
  for (qsim::GateOp op : circuit.ops()) {
    op.target = perm[static_cast<std::size_t>(op.target)];
    for (int& c : op.controls) {
      if (c >= 0) c = perm[static_cast<std::size_t>(c)];
    }
    out.append(op);
  }
  return out;
}

inline core::SimConfig base_config(int qubits) {
  core::SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = kRanks;
  config.blocks_per_rank = kBlocksPerRank;
  config.threads = kThreads;
  return config;
}

}  // namespace detail

/// Builds workload `name` from `seed`. Files the simulator writes (spill
/// tier, autosaves) go under `tmpdir`.
inline Workload make_workload(const std::string& name, std::uint64_t seed,
                              const std::string& tmpdir) {
  // One independent stream per workload, so selecting a subset of
  // workloads never changes any workload's inputs.
  std::uint64_t state = seed;
  for (const char c : name) state = state * 131 + static_cast<unsigned char>(c);
  Rng rng(splitmix64(state));

  Workload w;
  w.name = name;
  if (name == "qaoa_lossy") {
    constexpr int kQubits = 16;
    // The generator's random 4-regular graph (its default graph seed),
    // relabeled by the seed within the block and rank segments. Distinct
    // random graphs differ widely in cost (over eight graphs, zx compress
    // time 0.48-0.83 s: how many edges cross block and rank boundaries,
    // how soon the state stops compressing), so a fresh graph per seed
    // would measure the seed rather than the code.
    circuits::QaoaSpec spec;
    spec.num_qubits = kQubits;
    const std::vector<int> perm = detail::block_rank_shuffle(kQubits, rng);
    w.circuit = detail::relabeled(circuits::qaoa_maxcut_circuit(spec), perm);
    for (const auto& [u, v] :
         circuits::random_regular_graph(kQubits, 4, spec.seed)) {
      w.zz_pairs.emplace_back(perm[u], perm[v]);
    }
    w.config = detail::base_config(kQubits);
    w.config.memory_budget_bytes = detail::budget_share(kQubits, 0.375);
  } else if (name == "rcs_sample") {
    // Fixed gate draw (the generator's default seed); the seed draws only
    // the shots. At this depth the state's compressibility still depends
    // on which gates were drawn, and even the qaoa_lossy relabeling moved
    // the cache hit rate of a 4x4 grid from 0.29 to 0.25 between seeds.
    circuits::SupremacySpec spec;
    spec.rows = 3;
    spec.cols = 6;
    spec.depth = 11;
    w.circuit = circuits::supremacy_circuit(spec);
    w.config = detail::base_config(w.circuit.num_qubits());
    w.shots = 32;
  } else if (name == "grover_sparse") {
    constexpr int kDataQubits = 10;
    circuits::GroverSpec spec;
    spec.data_qubits = kDataQubits;
    spec.iterations = 2;
    spec.marked_state = rng.next_below(std::uint64_t{1} << kDataQubits);
    w.circuit = circuits::grover_circuit(spec);
    w.config = detail::base_config(w.circuit.num_qubits());
    w.config.memory_budget_bytes =
        detail::budget_share(w.circuit.num_qubits(), 0.01);
    w.shots = 16;
  } else if (name == "qft_ooc") {
    constexpr int kQubits = 16;
    // A product-state input (one RY per qubit) rather than a basis state:
    // QFT outputs of basis states compress anywhere from 1x to 13x
    // depending on the input bits, while a generic product state is
    // incompressible from the first gate. The angles are fixed (drawn from
    // the generator's default seed) and the seed relabels the qubits as
    // for qaoa_lossy: with fresh angles per seed, readout_s still moved by
    // +-10% between seeds, because a few blocks compress slightly (and
    // must be decoded rather than copied) for some angles and not others.
    circuits::QftSpec spec;
    spec.num_qubits = kQubits;
    spec.random_input = false;
    Rng angles(spec.seed);
    qsim::Circuit circuit(kQubits);
    for (int q = 0; q < kQubits; ++q) {
      circuit.ry(q, std::numbers::pi * (0.25 + 0.5 * angles.next_double()));
    }
    const qsim::Circuit qft = circuits::qft_circuit(spec);
    for (const qsim::GateOp& op : qft.ops()) circuit.append(op);
    w.circuit = detail::relabeled(circuit,
                                  detail::block_rank_shuffle(kQubits, rng));
    w.config = detail::base_config(kQubits);
    w.config.spill_path = tmpdir + "/" + name + ".spill";
    w.config.resident_budget_bytes = detail::budget_share(kQubits, 0.02);
    w.config.checkpoint_interval_gates = 40;
    w.config.auto_checkpoint_path = tmpdir + "/" + name + ".autosave";
    w.read_norm = true;
    w.shots = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.sample_seed = rng.next_u64();
  return w;
}

}  // namespace cqs::bench::suite
