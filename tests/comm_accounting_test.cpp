// Pins the Comm counters (Table 2's communication row) for QFT across
// rank configurations so scheduler changes cannot silently regress
// cross-rank traffic. The expected exchange count is derived from an
// independent walk of the circuit against the Section 3.3 routing rules
// (one paired block exchange per pair unit of every run that pairs blocks
// across a rank qubit, relabeled SWAPs aside); the simulator's counters
// must match it exactly, stay reproducible across runs and thread counts,
// and stay below what the SWAPs cost as their CX legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuits/qft.hpp"
#include "core/simulator.hpp"
#include "qsim/gates.hpp"
#include "runtime/partition.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;
using qsim::GateKind;
using qsim::GateOp;
using runtime::Partition;

SimConfig comm_config(int qubits, int ranks) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = 4;
  config.threads = 2;
  // Fusion would fold prelude X gates into the H ladder and change how
  // many rank-target sweeps run; the reference walk below models the
  // unfused circuit, so pin it off.
  config.enable_fusion_prepass = false;
  // Sharing never skips an exchange: a member pair that spans ranks still
  // exchanges. Keep the cache off anyway, so every unit computes its own
  // output.
  config.enable_cache = false;
  return config;
}

/// Paired block exchanges one run costs when all its pairing ops target
/// rank-segment qubit `qubit`: the pair units of run_sweep — ranks with the
/// qubit's bit clear, times blocks — where the rank and block control bits
/// of some pairing op hold. The exchange carries both payloads once for
/// the whole run.
std::uint64_t exchanges_for(const Partition& partition, int qubit,
                            const std::vector<GateOp>& pairing) {
  const int target_bit = partition.local_bit(qubit);
  std::uint64_t units = 0;
  for (int r = 0; r < partition.num_ranks(); ++r) {
    if ((r >> target_bit) & 1) continue;
    for (int b = 0; b < partition.blocks_per_rank(); ++b) {
      const bool acts = std::ranges::any_of(pairing, [&](const GateOp& op) {
        for (int c : op.controls) {
          if (c < 0) continue;
          const int bit = 1 << partition.local_bit(c);
          switch (partition.segment_of(c)) {
            case Partition::Segment::kRank:
              if ((r & bit) == 0) return false;
              break;
            case Partition::Segment::kBlock:
              if ((b & bit) == 0) return false;
              break;
            case Partition::Segment::kOffset:
              break;  // offset controls filter amplitudes, not units
          }
        }
        return true;
      });
      if (acts) ++units;
    }
  }
  return units;
}

/// Reference model of the batched path without a memory budget. A SWAP
/// that no later op names (a later such SWAP aside) is relabeled: it
/// costs nothing and cuts no run. An op pairs blocks when it is not
/// diagonal and its target lies outside the offset segment; any other
/// SWAP is its three CX legs. Runs are maximal stretches whose pairing ops
/// all pair across one qubit, except that a SWAP with both qubits outside
/// the offset segment runs each leg as a run of its own. (QFT holds no
/// CX . D . CX triple, which the scheduler would fold.)
std::uint64_t expected_exchanges(const Partition& partition,
                                 const qsim::Circuit& circuit) {
  const auto& ops = circuit.ops();
  std::vector<bool> relabeled(ops.size(), false);
  std::vector<bool> named(circuit.num_qubits(), false);
  for (std::size_t i = ops.size(); i-- > 0;) {
    const GateOp& op = ops[i];
    if (op.kind == GateKind::kSwap && !named[op.target] &&
        !named[op.controls[0]]) {
      relabeled[i] = true;
    } else {
      named[op.target] = true;
      for (int c : op.controls) {
        if (c >= 0) named[c] = true;
      }
    }
  }

  const int offset_bits = partition.offset_bits;
  std::uint64_t total = 0;
  int run_qubit = -1;
  std::vector<GateOp> pairing;  // the open run's pairing ops
  auto close = [&] {
    if (run_qubit >= 0 &&
        partition.segment_of(run_qubit) == Partition::Segment::kRank) {
      total += exchanges_for(partition, run_qubit, pairing);
    }
    run_qubit = -1;
    pairing.clear();
  };
  auto add = [&](const GateOp& op) {
    if (qsim::is_diagonal(op.kind) || op.target < offset_bits) return;
    if (run_qubit >= 0 && op.target != run_qubit) close();
    run_qubit = op.target;
    pairing.push_back(op);
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const GateOp& op = ops[i];
    if (relabeled[i]) continue;
    if (op.kind != GateKind::kSwap) {
      add(op);
      continue;
    }
    const int a = op.target;
    const int b = op.controls[0];
    const bool split = a >= offset_bits && b >= offset_bits;
    if (split) close();
    for (const GateOp& leg :
         {GateOp{GateKind::kCX, b, {a, -1}}, GateOp{GateKind::kCX, a, {b, -1}},
          GateOp{GateKind::kCX, b, {a, -1}}}) {
      add(leg);
      if (split) close();
    }
  }
  close();
  return total;
}

TEST(CommAccountingTest, QftExchangesMatchTheRoutingModelAcrossRanks) {
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  for (int ranks : {1, 2, 4}) {
    CompressedStateSimulator sim(comm_config(10, ranks));
    sim.apply_circuit(circuit);
    const auto report = sim.report();
    EXPECT_EQ(report.swaps_relabeled, 5u) << ranks << " ranks";
    const std::uint64_t exchanges =
        expected_exchanges(sim.partition(), circuit);
    // One paired exchange = two messages (Comm::exchange counts both
    // directions of the buffered sendrecv).
    EXPECT_EQ(report.comm_messages, 2 * exchanges) << ranks << " ranks";
    if (ranks == 1) {
      EXPECT_EQ(report.comm_bytes, 0u);
    } else {
      EXPECT_GT(report.comm_bytes, 0u) << ranks << " ranks";
    }
  }
}

TEST(CommAccountingTest, QftCountersReproducibleAcrossRunsAndThreads) {
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  std::uint64_t reference_bytes = 0;
  std::uint64_t reference_messages = 0;
  bool have_reference = false;
  for (int threads : {1, 2, 4}) {
    for (int rep = 0; rep < 2; ++rep) {
      auto config = comm_config(10, 4);
      config.threads = threads;
      CompressedStateSimulator sim(config);
      sim.apply_circuit(circuit);
      const auto report = sim.report();
      if (!have_reference) {
        reference_bytes = report.comm_bytes;
        reference_messages = report.comm_messages;
        have_reference = true;
      } else {
        EXPECT_EQ(report.comm_bytes, reference_bytes)
            << "threads=" << threads;
        EXPECT_EQ(report.comm_messages, reference_messages)
            << "threads=" << threads;
      }
    }
  }
}

TEST(CommAccountingTest, ReportSecondsDerivedOnceFromWireNanos) {
  // CommStats.seconds() is a pure read-time function of the atomic
  // nanosecond counter, so the report's comm_seconds is exactly
  // nanos * 1e-9 — never a separately accumulated float that could drift
  // from the counter it mirrors.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  CompressedStateSimulator sim(comm_config(10, 4));
  sim.apply_circuit(circuit);
  const auto comm_stats = sim.comm().stats();
  EXPECT_GT(comm_stats.nanos, 0u);
  EXPECT_DOUBLE_EQ(comm_stats.seconds(),
                   static_cast<double>(comm_stats.nanos) * 1e-9);
  const auto report = sim.report();
  EXPECT_DOUBLE_EQ(report.comm_seconds, comm_stats.seconds());
}

TEST(CommAccountingTest, RemapNeverExceedsTheSeedPathOnQft) {
  // QFT's reversal SWAPs relabel; as CX legs they pay rank exchanges.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  for (int ranks : {2, 4}) {
    CompressedStateSimulator legs(comm_config(10, ranks));
    CompressedStateSimulator sim(comm_config(10, ranks));
    legs.apply_circuit(test::with_swaps_expanded(circuit));
    sim.apply_circuit(circuit);
    EXPECT_LT(sim.report().comm_bytes, legs.report().comm_bytes)
        << ranks << " ranks";
    EXPECT_LT(sim.report().comm_messages, legs.report().comm_messages)
        << ranks << " ranks";
    // Same logical result on both layouts.
    CQS_EXPECT_STATES_CLOSE(sim.to_raw(), legs.to_raw(), 0.0);
  }
}

}  // namespace
}  // namespace cqs
