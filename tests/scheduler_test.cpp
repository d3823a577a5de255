// Coverage for the gate-run scheduler: the pair-qubit classification, run
// formation rules (unit runs, pair runs across one qubit, split SWAPs),
// fusion composition, source-gate accounting, dense-vs-compressed
// equivalence of the batched execution path across all target segments,
// the one-lossy-pass-per-run fidelity accounting, the circuit-cursor
// regressions (second circuit skipped / ad-hoc apply drift), and which
// SWAPs relabel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/qaoa.hpp"
#include "core/simulator.hpp"
#include "qsim/scheduler.hpp"
#include "qsim/state_vector.hpp"
#include "runtime/partition.hpp"
#include "runtime/qubit_map.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;
using qsim::build_schedule;
using qsim::Circuit;
using qsim::GateKind;
using qsim::GateRun;
using qsim::GateOp;
using qsim::kPairsNoBlocks;
using qsim::kSplitSwap;
using qsim::pair_qubit;
using qsim::plan_remaps;
using qsim::SchedulerOptions;
using qsim::starts_parity_phase;

// ---------------------------------------------------------------- scheduler

TEST(SchedulerTest, BlockLocalClassification) {
  const int intra = 5;
  EXPECT_EQ(pair_qubit({GateKind::kH, 0}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kCX, 4, {3, -1}}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kCCX, 2, {0, 1}}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kH, 5}, intra), 5);
  EXPECT_EQ(pair_qubit({GateKind::kH, 6}, intra), 6);
  EXPECT_EQ(pair_qubit({GateKind::kCX, 7, {0, -1}}, intra), 7);
  // Controls never pair blocks, wherever they lie, and neither does a
  // diagonal, wherever its target lies.
  EXPECT_EQ(pair_qubit({GateKind::kCX, 0, {7, -1}}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kCCX, 0, {1, 9}}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kRz, 6, {-1, -1}, {0.3}}, intra),
            kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kRz, 7, {-1, -1}, {0.3}}, intra),
            kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kCPhase, 9, {6, -1}, {0.3}}, intra),
            kPairsNoBlocks);
  // SWAP keeps its qubits in target/controls[0]. With one qubit outside the
  // offset segment it pairs across that one, whichever slot holds it; with
  // both outside, it splits into its legs.
  EXPECT_EQ(pair_qubit({GateKind::kSwap, 1, {2, -1}}, intra), kPairsNoBlocks);
  EXPECT_EQ(pair_qubit({GateKind::kSwap, 1, {9, -1}}, intra), 9);
  EXPECT_EQ(pair_qubit({GateKind::kSwap, 9, {1, -1}}, intra), 9);
  EXPECT_EQ(pair_qubit({GateKind::kSwap, 7, {9, -1}}, intra), kSplitSwap);
}

TEST(SchedulerTest, RunsAreMaximalAndPreserveOrder) {
  Circuit c(10);
  c.h(0).cx(0, 1).t(2);   // unit ops open the run
  c.h(6);                 // pairs across 6: joins, the run pairs across 6
  c.h(3).swap(1, 2);      // unit ops join (a SWAP in the offset segment too)
  c.cx(2, 6).rz(6, 0.3);  // pairs across 6 again, then a diagonal on 6
  c.swap(0, 9);           // pairs across 9 alone: closes the run
  c.x(4);                 // joins the run across 9
  c.swap(6, 9);           // both qubits outside: an item of its own
  c.h(9);                 // a trailing run across 9

  const auto schedule =
      build_schedule(c, {.intra_qubits = 5, .max_run_length = 0,
                         .fuse = false});
  const auto& runs = schedule.runs();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].first, 0u);
  EXPECT_EQ(runs[0].count, 8u);
  EXPECT_EQ(runs[0].pair_qubit, 6);
  EXPECT_EQ(runs[1].first, 8u);
  EXPECT_EQ(runs[1].count, 2u);
  EXPECT_EQ(runs[1].pair_qubit, 9);
  EXPECT_EQ(runs[2].first, 10u);
  EXPECT_EQ(runs[2].count, 1u);
  EXPECT_EQ(runs[2].pair_qubit, kSplitSwap);
  EXPECT_EQ(runs[3].first, 11u);
  EXPECT_EQ(runs[3].count, 1u);
  EXPECT_EQ(runs[3].pair_qubit, 9);
}

TEST(SchedulerTest, MaxRunLengthSplitsRuns) {
  Circuit c(8);
  for (int i = 0; i < 7; ++i) c.x(i % 4);
  const auto schedule =
      build_schedule(c, {.intra_qubits = 6, .max_run_length = 2,
                         .fuse = false});
  ASSERT_EQ(schedule.runs().size(), 4u);
  EXPECT_EQ(schedule.runs()[0].count, 2u);
  EXPECT_EQ(schedule.runs()[1].count, 2u);
  EXPECT_EQ(schedule.runs()[2].count, 2u);
  EXPECT_EQ(schedule.runs()[3].count, 1u);
}

TEST(SchedulerTest, FusionPrepassFoldsSourceGates) {
  Circuit c(10);
  c.h(0).t(0).h(0);  // fuses into one kU3G standing for 3 source gates
  c.cx(0, 9);        // pairs across 9: joins the run
  c.h(7);            // pairs across 7: opens the next run
  const auto schedule =
      build_schedule(c, {.intra_qubits = 5, .max_run_length = 0,
                         .fuse = true});
  ASSERT_EQ(schedule.circuit().size(), 3u);
  EXPECT_EQ(schedule.circuit().ops()[0].kind, GateKind::kU3G);
  ASSERT_EQ(schedule.runs().size(), 2u);
  EXPECT_EQ(schedule.runs()[0].count, 2u);
  EXPECT_EQ(schedule.runs()[0].source_gates, 4u);
  EXPECT_EQ(schedule.runs()[0].pair_qubit, 9);
  EXPECT_EQ(schedule.runs()[1].source_gates, 1u);
  EXPECT_EQ(schedule.runs()[1].pair_qubit, 7);
}

TEST(SchedulerTest, SourceGatesAlwaysSumToCircuitSize) {
  // QAOA (parity triples) and random circuits over all three segments
  // (SWAPs of every kind): every run pairs across one qubit at most, a
  // split SWAP stands alone, and the source-gate weights add up.
  const int intra = 5;
  std::vector<Circuit> circuits = {
      circuits::qaoa_maxcut_circuit({.num_qubits = 10})};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    circuits.push_back(test::random_circuit(10, 120, seed));
  }
  for (const Circuit& c : circuits) {
    for (const bool fuse : {false, true}) {
      for (const std::size_t cap : {0, 1, 2, 3, 16}) {
        const auto schedule = build_schedule(
            c, {.intra_qubits = intra, .max_run_length = cap, .fuse = fuse});
        const auto ops = std::span(schedule.circuit().ops());
        std::size_t total = 0;
        std::size_t covered_ops = 0;
        for (const GateRun& run : schedule.runs()) {
          total += run.source_gates;
          covered_ops += run.count;
          if (cap > 0) EXPECT_LE(run.count, std::max<std::size_t>(cap, 3));
          if (run.pair_qubit == kSplitSwap) {
            EXPECT_EQ(run.count, 1u);
            continue;
          }
          for (std::size_t i = run.first; i < run.first + run.count; ++i) {
            if (starts_parity_phase(ops.subspan(i), intra)) {
              i += 2;
              continue;
            }
            const int k = pair_qubit(ops[i], intra);
            if (k != kPairsNoBlocks) EXPECT_EQ(k, run.pair_qubit);
          }
        }
        EXPECT_EQ(total, c.size()) << "fuse=" << fuse << " cap=" << cap;
        EXPECT_EQ(covered_ops, schedule.circuit().size());
      }
    }
  }
}

// Fold fixtures: 10 qubits as 4 ranks x 8 blocks, so offset [0,5), block
// [5,8), rank [8,10).
constexpr int kFoldIntra = 5;

/// A schedule's items as (count, pair_qubit) pairs.
using Shape = std::vector<std::pair<std::size_t, int>>;

/// The shape of the unfused schedule of `c` under run cap `cap`.
Shape run_shape(const Circuit& c, std::size_t cap = 0) {
  const auto schedule = build_schedule(
      c, {.intra_qubits = kFoldIntra, .max_run_length = cap, .fuse = false});
  Shape shape;
  for (const GateRun& run : schedule.runs()) {
    shape.emplace_back(run.count, run.pair_qubit);
  }
  return shape;
}

TEST(SchedulerTest, ParityPhaseFoldsEverySegmentPair) {
  for (const int u : {1, 6, 9}) {      // offset, block, rank
    for (const int v : {7, 8}) {       // block, rank
      if (u == v) continue;
      // D on v: rz, z, s, t, phase, and a cphase controlled by a third
      // qubit in each segment (none in the rank segment when u and v
      // fill it).
      const GateOp diagonals[] = {
          {GateKind::kRz, v, {-1, -1}, {0.3}},
          {GateKind::kZ, v},
          {GateKind::kS, v},
          {GateKind::kT, v},
          {GateKind::kPhase, v, {-1, -1}, {0.4}},
          {GateKind::kCPhase, v, {3, -1}, {0.5}},
          {GateKind::kCPhase, v, {5, -1}, {0.5}},
          {GateKind::kCPhase, v, {u == 9 ? 8 : 9, -1}, {0.5}},
      };
      for (const GateOp& d : diagonals) {
        if (d.controls[0] == v) continue;
        Circuit c(10);
        c.cx(u, v).append(d).cx(u, v);
        EXPECT_TRUE(starts_parity_phase(c.ops(), kFoldIntra))
            << "u=" << u << " v=" << v << " d=" << qsim::gate_name(d.kind);
        EXPECT_EQ(run_shape(c), (Shape{{3, kPairsNoBlocks}}))
            << "u=" << u << " v=" << v;
      }
    }
  }
  // Inside a stretch of unit ops the triple joins the open run.
  Circuit c(10);
  c.h(0).cx(1, 8).rz(8, 0.2).cx(1, 8).t(2);
  EXPECT_EQ(run_shape(c), (Shape{{5, kPairsNoBlocks}}));
}

TEST(SchedulerTest, ParityPhaseOnTheRunsQubitStaysAUnitItem) {
  // A triple whose v is the run's pair qubit folds to a unit item inside
  // the pair run; so does one on another qubit, which would otherwise
  // close the run.
  Circuit same(10);
  same.h(7).cx(1, 7).rz(7, 0.2).cx(1, 7).h(7);
  EXPECT_TRUE(starts_parity_phase(std::span(same.ops()).subspan(1),
                                  kFoldIntra));
  EXPECT_EQ(run_shape(same), (Shape{{5, 7}}));
  Circuit other(10);
  other.h(8).cx(1, 7).rz(7, 0.2).cx(1, 7).h(8);
  EXPECT_EQ(run_shape(other), (Shape{{5, 8}}));
  // Under cap 3 the triple forms a run of its own, which pairs no blocks.
  EXPECT_EQ(run_shape(same, 3),
            (Shape{{1, 7}, {3, kPairsNoBlocks}, {1, 7}}));
}

TEST(SchedulerTest, ParityPhaseRejectsEveryOtherShape) {
  // v in the offset segment: the three ops already pair no blocks and stay
  // plain unit items of one run.
  Circuit offset_v(10);
  offset_v.cx(6, 2).rz(2, 0.3).cx(6, 2);
  EXPECT_FALSE(starts_parity_phase(offset_v.ops(), kFoldIntra));
  EXPECT_EQ(run_shape(offset_v), (Shape{{3, kPairsNoBlocks}}));

  // Otherwise each CX pairs blocks across v, and the diagonal on v joins
  // their pair run.
  const Shape unfolded = {{3, 7}};
  Circuit other_control(10);
  other_control.cx(1, 7).rz(7, 0.3).cx(2, 7);
  Circuit targets_u(10);
  targets_u.cx(1, 7).rz(1, 0.3).cx(1, 7);
  Circuit controlled_by_u(10);
  controlled_by_u.cx(1, 7).cphase(1, 7, 0.3).cx(1, 7);
  Circuit toffoli(10);
  toffoli.ccx(1, 2, 7).rz(7, 0.3).ccx(1, 2, 7);
  // A non-diagonal middle op pairs blocks across v itself.
  Circuit not_diagonal(10);
  not_diagonal.cx(1, 7).rx(7, 0.3).cx(1, 7);
  for (const Circuit* c : {&other_control, &targets_u, &controlled_by_u,
                           &toffoli, &not_diagonal}) {
    EXPECT_FALSE(starts_parity_phase(c->ops(), kFoldIntra));
    EXPECT_EQ(run_shape(*c), unfolded);
  }

  // Fewer than three ops never fold.
  EXPECT_FALSE(starts_parity_phase(
      std::span(not_diagonal.ops()).first(2), kFoldIntra));
}

TEST(SchedulerTest, RunCapNeverSplitsAParityPhase) {
  Circuit c(10);
  c.h(0).h(1).h(2);
  c.cx(1, 8).rz(8, 0.2).cx(1, 8);
  c.h(3);
  constexpr int kNone = kPairsNoBlocks;
  // Cap 4: the triple does not fit after three ops, so the run closes at
  // three and the triple opens the next one.
  EXPECT_EQ(run_shape(c, 4), (Shape{{3, kNone}, {4, kNone}}));
  // Cap 6: it fits exactly, and the run closes behind it.
  EXPECT_EQ(run_shape(c, 6), (Shape{{6, kNone}, {1, kNone}}));
  // Under a cap below 3 the triple forms a run alone.
  for (const std::size_t cap : {1, 2}) {
    const Shape alone = cap == 1 ? Shape{{1, kNone}, {1, kNone}, {1, kNone},
                                         {3, kNone}, {1, kNone}}
                                 : Shape{{2, kNone}, {1, kNone}, {3, kNone},
                                         {1, kNone}};
    EXPECT_EQ(run_shape(c, cap), alone) << "cap " << cap;
  }
}

TEST(SchedulerTest, MergedRunsPairAcrossTwoQubits) {
  // 10 qubits: offset 0-4, block 5-7, rank 8-9.
  Circuit c(10);
  c.h(5).h(6).h(5);  // three one-qubit runs across 5, 6 and 5: one run
  c.h(8);            // a third qubit: the next run
  c.h(9);            // a second rank qubit: the next run again
  c.h(7);            // a block qubit joins the rank qubit
  c.cx(7, 6);        // controlled by a block qubit: a run alone
  c.h(5);            // follows a run that cannot take it
  c.swap(6, 9);      // splits into its legs: an item alone
  c.h(7);

  SchedulerOptions options{.intra_qubits = 5, .fuse = false};
  const auto one_qubit = build_schedule(c, options).runs();
  ASSERT_EQ(one_qubit.size(), 10u);
  for (const GateRun& run : one_qubit) {
    EXPECT_EQ(run.second_pair_qubit, kPairsNoBlocks);
  }

  options.merge_runs = true;
  options.first_rank_qubit = 8;
  const auto runs = build_schedule(c, options).runs();
  struct Shape {
    std::size_t first, count;
    int pair_qubit, second_pair_qubit;
  };
  const std::vector<Shape> want = {
      {0, 3, 5, 6},  {3, 1, 8, kPairsNoBlocks}, {4, 2, 9, 7},
      {6, 1, 6, kPairsNoBlocks}, {7, 1, 5, kPairsNoBlocks},
      {8, 1, kSplitSwap, kPairsNoBlocks}, {9, 1, 7, kPairsNoBlocks}};
  ASSERT_EQ(runs.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(runs[r].first, want[r].first) << "run " << r;
    EXPECT_EQ(runs[r].count, want[r].count) << "run " << r;
    EXPECT_EQ(runs[r].source_gates, want[r].count) << "run " << r;
    EXPECT_EQ(runs[r].pair_qubit, want[r].pair_qubit) << "run " << r;
    EXPECT_EQ(runs[r].second_pair_qubit, want[r].second_pair_qubit)
        << "run " << r;
  }
  options.first_rank_qubit = 4;  // below the block segment
  EXPECT_THROW(build_schedule(c, options), std::invalid_argument);
}

/// How many sweeps the simulator counts for `runs`: a split SWAP is three.
std::uint64_t counted_runs(const std::vector<GateRun>& runs) {
  std::uint64_t total = 0;
  for (const GateRun& run : runs) total += run.pair_qubit == kSplitSwap ? 3 : 1;
  return total;
}

TEST(SchedulerTest, MergedRunsAreUnionsOfOneQubitRuns) {
  // The five circuit families and random circuits over every segment, at
  // 4 ranks x 4 and x 16 blocks: every merged run is whole consecutive
  // one-qubit runs, pairs across at most two qubits and one rank qubit,
  // and holds no block- or rank-controlled pairing op and no split SWAP
  // once it holds two runs. The simulator merges exactly without a
  // budget; with one, it plans the one-qubit runs under its 16-op cap.
  auto cases = test::remap_cases();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({"random seed " + std::to_string(seed),
                     test::random_circuit(12, 120, seed)});
  }
  std::size_t folded = 0;  // one-qubit runs merged into an earlier one
  for (const int blocks : {4, 16}) {
    for (const auto& test_case : cases) {
      const std::string label =
          test_case.name + " at 4x" + std::to_string(blocks);
      const int qubits = test_case.circuit.num_qubits();
      const runtime::Partition part =
          runtime::make_partition(qubits, 4, blocks);
      const int intra = part.offset_bits;
      const int first_rank = part.offset_bits + part.block_bits;
      // The ops the simulator schedules: the circuit less the SWAPs it
      // relabels, with fusion off.
      const qsim::RemapProgram program = plan_remaps(
          test_case.circuit, runtime::QubitMap::identity(qubits),
          qsim::trailing_swaps(test_case.circuit));
      ASSERT_EQ(program.items.front().kind, qsim::RemapItem::Kind::kGates);
      const Circuit& c = program.items.front().ops;
      const auto& ops = c.ops();

      SchedulerOptions options{.intra_qubits = intra, .fuse = false};
      const auto runs = build_schedule(c, options).runs();
      options.merge_runs = true;
      options.first_rank_qubit = first_rank;
      const auto merged = build_schedule(c, options).runs();

      std::size_t next = 0;  // the next one-qubit run
      for (const GateRun& run : merged) {
        ASSERT_LT(next, runs.size()) << label;
        EXPECT_EQ(run.first, runs[next].first) << label;
        std::size_t count = 0;
        std::size_t source_gates = 0;
        std::size_t parts = 0;
        while (count < run.count && next < runs.size()) {
          count += runs[next].count;
          source_gates += runs[next].source_gates;
          ++parts;
          ++next;
        }
        EXPECT_EQ(count, run.count) << label;
        EXPECT_EQ(source_gates, run.source_gates) << label;

        std::vector<int> qubits;
        bool controlled = false;
        bool split = false;
        for (std::size_t i = run.first; i < run.first + run.count; ++i) {
          if (starts_parity_phase(std::span(ops).subspan(i), intra)) {
            i += 2;
            continue;
          }
          const int k = pair_qubit(ops[i], intra);
          split = split || k == kSplitSwap;
          if (k < 0) continue;
          if (std::ranges::find(qubits, k) == qubits.end()) {
            qubits.push_back(k);
          }
          controlled =
              controlled ||
              (ops[i].kind != GateKind::kSwap &&
               std::ranges::any_of(ops[i].controls,
                                   [&](int q) { return q >= intra; }));
        }
        EXPECT_LE(qubits.size(), 2u) << label;
        EXPECT_LE(std::ranges::count_if(
                      qubits, [&](int q) { return q >= first_rank; }),
                  1)
            << label;
        if (!split) {
          std::vector<int> named;
          for (const int q : {run.pair_qubit, run.second_pair_qubit}) {
            if (q >= 0) named.push_back(q);
          }
          std::ranges::sort(named);
          std::ranges::sort(qubits);
          EXPECT_EQ(named, qubits) << label;
        }
        if (parts > 1) {
          EXPECT_FALSE(controlled) << label;
          EXPECT_FALSE(split) << label;
          folded += parts - 1;
        }
      }
      EXPECT_EQ(next, runs.size()) << label;

      SimConfig config;
      config.num_qubits = qubits;
      config.num_ranks = 4;
      config.blocks_per_rank = blocks;
      config.threads = 2;
      config.enable_fusion_prepass = false;
      CompressedStateSimulator merging(config);
      merging.apply_circuit(test_case.circuit);
      EXPECT_EQ(merging.report().batched_runs, counted_runs(merged)) << label;
      config.memory_budget_bytes = std::numeric_limits<std::size_t>::max();
      CompressedStateSimulator budgeted(config);
      budgeted.apply_circuit(test_case.circuit);
      options = {.intra_qubits = intra, .max_run_length = 16, .fuse = false};
      EXPECT_EQ(budgeted.report().batched_runs,
                counted_runs(build_schedule(c, options).runs()))
          << label;
    }
  }
  EXPECT_GT(folded, 0u) << "no case merges a run";
}

// ------------------------------------------------- batched execution path

double cross_fidelity(CompressedStateSimulator& sim, const Circuit& circuit) {
  qsim::StateVector reference(circuit.num_qubits());
  reference.apply_circuit(circuit);
  return qsim::state_fidelity(reference.raw(), sim.to_raw());
}

SimConfig batched_config(int qubits, int ranks = 4, int blocks = 4) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.threads = 4;
  config.enable_run_batching = true;
  return config;
}

/// A circuit that exercises every target segment, offset SWAPs inside
/// runs, and pair runs across a block qubit and a rank qubit.
Circuit all_segment_circuit() {
  Circuit c(10);  // 4 ranks x 8 blocks -> offset 5, block 3, rank 2
  c.h(0).t(1).cx(0, 2).swap(1, 3);  // unit ops (SWAP included)
  c.h(7).cx(6, 0);                  // the run now pairs across 7
  c.swap(0, 9);                     // pairs across 9: the next run
  c.rz(2, 0.31).x(4).ccx(0, 1, 3);  // unit ops join it
  c.h(9).cphase(8, 1, 0.77);        // rank-segment ops join it
  c.x(0).cx(3, 1);                  // and so do the trailing unit ops
  return c;
}

TEST(BatchedSimulatorTest, MatchesDenseAcrossSegmentsWithAndWithoutCache) {
  const Circuit c = all_segment_circuit();
  for (const bool cache : {true, false}) {
    auto config = batched_config(10, 4, 8);
    config.enable_cache = cache;
    CompressedStateSimulator sim(config);
    sim.apply_circuit(c);
    EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10) << "cache=" << cache;
    const auto report = sim.report();
    EXPECT_GT(report.batched_runs, 0u);
    EXPECT_GT(report.batched_gates, report.batched_runs)
        << "at least one run must hold multiple gates";
  }
}

TEST(BatchedSimulatorTest, BatchedAndPerGatePathsAgree) {
  const Circuit c = all_segment_circuit();
  auto on = batched_config(10, 4, 8);
  auto off = on;
  off.enable_run_batching = false;
  CompressedStateSimulator batched(on);
  CompressedStateSimulator per_gate(off);
  batched.apply_circuit(c);
  per_gate.apply_circuit(c);
  CQS_EXPECT_STATES_CLOSE(batched.to_raw(), per_gate.to_raw(), 1e-12);
  EXPECT_EQ(per_gate.report().batched_runs, 0u);
  EXPECT_LT(batched.report().compress_invocations,
            per_gate.report().compress_invocations)
      << "batching must amortize codec passes";
}

TEST(BatchedSimulatorTest, KGateRunRecordsExactlyOneLossyPass) {
  // Eight block-local gates form one run; at a pinned lossy level the
  // fidelity ledger must record one pass for the whole run (Eq. 11
  // tightens from (1-d)^K to (1-d)^1), not one per gate.
  auto config = batched_config(11, 2, 4);  // offset segment: 8 qubits
  config.initial_level = 2;                // ladder[1] = 1e-4
  CompressedStateSimulator sim(config);
  Circuit c(11);
  c.h(0).h(1).h(2).h(3).cx(0, 1).cx(2, 3).h(0).h(1);
  sim.apply_circuit(c);

  const auto report = sim.report();
  EXPECT_EQ(report.batched_runs, 1u);
  EXPECT_EQ(report.lossy_passes, 1u);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(), 1.0 - 1e-4);

  // The per-gate path on the same circuit pays one pass per gate.
  auto per_gate_config = config;
  per_gate_config.enable_run_batching = false;
  CompressedStateSimulator per_gate(per_gate_config);
  per_gate.apply_circuit(c);
  EXPECT_EQ(per_gate.report().lossy_passes, c.size());
  EXPECT_LT(per_gate.fidelity_bound(), sim.fidelity_bound());
}

/// H on every qubit, then two rounds of CX(u,v) . D . CX(u,v) triples over
/// every segment pair (u and v each in the offset, block or rank segment of
/// 4 ranks x 4 blocks: offset [0,6), block {6,7}, rank {8,9}), each triple
/// followed by an RX on a random qubit. D is diagonal on v.
Circuit parity_phase_circuit(std::uint64_t seed) {
  constexpr int kQubits = 10;
  constexpr int kSegmentStart[] = {0, 6, 8};
  constexpr int kSegmentSize[] = {6, 2, 2};
  Rng rng(seed);
  Circuit c(kQubits);
  auto in_segment = [&](int s) {
    return kSegmentStart[s] + static_cast<int>(rng.next_below(kSegmentSize[s]));
  };
  for (int q = 0; q < kQubits; ++q) c.h(q);
  for (int round = 0; round < 2; ++round) {
    for (int su = 0; su < 3; ++su) {
      for (int sv = 0; sv < 3; ++sv) {
        const int u = in_segment(su);
        int v = in_segment(sv);
        while (v == u) v = in_segment(sv);
        int w = static_cast<int>(rng.next_below(kQubits));
        while (w == u || w == v) w = static_cast<int>(rng.next_below(kQubits));
        const double theta = rng.next_double() * 3.0;
        c.cx(u, v);
        switch (rng.next_below(6)) {
          case 0: c.rz(v, theta); break;
          case 1: c.z(v); break;
          case 2: c.s(v); break;
          case 3: c.t(v); break;
          case 4: c.phase(v, theta); break;
          default: c.cphase(w, v, theta); break;
        }
        c.cx(u, v);
        c.rx(static_cast<int>(rng.next_below(kQubits)),
             rng.next_double() * 3.0);
      }
    }
  }
  return c;
}

TEST(BatchedSimulatorTest, ParityPhaseFoldIsBitIdenticalAndSavesCodecCalls) {
  // Codec calls (compress + decompress) the same 40 batched runs made
  // when every CX . D . CX whose v sits outside the offset segment paid two
  // pair sweeps of its own: 70,272, against 26,720 folded.
  constexpr std::uint64_t kUnfoldedCodecCalls = 70272;
  std::uint64_t batched_calls = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Circuit c = parity_phase_circuit(seed);
    auto config = batched_config(10, 4, 4);
    config.enable_cache = false;
    config.enable_fusion_prepass = false;
    CompressedStateSimulator batched(config);
    batched.apply_circuit(c);
    config.enable_run_batching = false;
    CompressedStateSimulator per_gate(config);
    per_gate.apply_circuit(c);
    qsim::StateVector dense(10);
    dense.apply_circuit(c);

    const std::vector<double> state = batched.to_raw();
    EXPECT_EQ(state, per_gate.to_raw()) << "seed " << seed;
    EXPECT_TRUE(std::ranges::equal(state, dense.raw())) << "seed " << seed;
    const auto report = batched.report();
    batched_calls += report.compress_invocations + report.decompress_invocations;
  }
  // Folding turns each such triple's two pair sweeps into none.
  EXPECT_LT(2 * batched_calls, kUnfoldedCodecCalls);
}

TEST(BatchedSimulatorTest, SwapThatPairsNoBlocksCostsOneSweep) {
  // An ad-hoc swap(1, 4), both qubits in the offset segment of 4 ranks x 4
  // blocks, rewrites each of the 16 blocks once, not once per CX leg, and
  // leaves the state its three legs leave.
  Circuit prep(10);
  prep.h(1).rx(4, 0.7).h(8).cx(8, 6);
  for (const int level : {0, 1}) {
    SimConfig config = batched_config(10, 4, 4);
    config.enable_cache = false;
    config.initial_level = level;
    CompressedStateSimulator whole(config);
    CompressedStateSimulator legs(config);
    whole.apply_circuit(prep);
    legs.apply_circuit(prep);
    const auto before = whole.report();
    whole.apply({GateKind::kSwap, 1, {4, -1}});
    const auto after = whole.report();
    EXPECT_EQ(after.compress_invocations - before.compress_invocations, 16u);
    EXPECT_EQ(after.decompress_invocations - before.decompress_invocations,
              16u);
    EXPECT_EQ(after.lossy_passes - before.lossy_passes, level > 0 ? 1u : 0u);

    legs.apply({GateKind::kCX, 4, {1, -1}});
    legs.apply({GateKind::kCX, 1, {4, -1}});
    legs.apply({GateKind::kCX, 4, {1, -1}});
    if (level == 0) {
      EXPECT_EQ(whole.to_raw(), legs.to_raw());
    } else {
      CQS_EXPECT_STATES_CLOSE(whole.to_raw(), legs.to_raw(), 1e-4);
    }
  }
}

TEST(BatchedSimulatorTest, SwapWithOneQubitOutsideTheOffsetCostsOneSweep) {
  // 4 ranks x 4 blocks: offset [0,6), block {6,7}, rank {8,9}. A SWAP with
  // one qubit k outside the offset segment pairs blocks across k only: two
  // legs target k and the third is an offset kernel controlled by k, so the
  // whole SWAP is one sweep over the 8 pairs across k. A SWAP with both
  // qubits outside still runs its three legs one after another.
  struct Case {
    int a, b;
    std::uint64_t compressions;
    std::uint64_t lossy_passes;
    std::uint64_t comm_bytes;
  };
  const Case cases[] = {{1, 7, 16, 1, 0}, {1, 9, 16, 1, 544},
                        {7, 9, 24, 3, 544}};
  Circuit prep(10);
  for (int q = 0; q < 10; ++q) prep.h(q);
  prep.rz(7, 0.4).rx(1, 0.9);
  for (const Case& swap : cases) {
    for (const int level : {0, 1}) {
      SimConfig config = batched_config(10, 4, 4);
      config.enable_cache = false;
      config.initial_level = level;
      CompressedStateSimulator whole(config);
      CompressedStateSimulator legs(config);
      whole.apply_circuit(prep);
      legs.apply_circuit(prep);
      const auto before = whole.report();
      whole.apply({GateKind::kSwap, swap.a, {swap.b, -1}});
      const auto after = whole.report();
      const std::string label =
          "swap(" + std::to_string(swap.a) + "," + std::to_string(swap.b) +
          ") level " + std::to_string(level);
      EXPECT_EQ(after.compress_invocations - before.compress_invocations,
                swap.compressions)
          << label;
      EXPECT_EQ(after.lossy_passes - before.lossy_passes,
                level > 0 ? swap.lossy_passes : 0u)
          << label;
      if (level == 0) {
        EXPECT_EQ(after.comm_bytes - before.comm_bytes, swap.comm_bytes)
            << label;
      }

      legs.apply({GateKind::kCX, swap.b, {swap.a, -1}});
      legs.apply({GateKind::kCX, swap.a, {swap.b, -1}});
      legs.apply({GateKind::kCX, swap.b, {swap.a, -1}});
      if (level == 0) {
        EXPECT_EQ(whole.to_raw(), legs.to_raw()) << label;
      } else {
        CQS_EXPECT_STATES_CLOSE(whole.to_raw(), legs.to_raw(), 1e-4);
      }
    }
  }
}

/// H on every qubit, then `gates` seeded ops over all three segments of 4
/// ranks x 4 blocks (offset [0,6), block {6,7}, rank {8,9}): rotations, CX
/// and CCX, diagonals, and SWAPs. Angles are random, so no amplitude cancels
/// to an exact zero and the dense reference's arithmetic matches bit for
/// bit.
Circuit pair_run_circuit(std::uint64_t seed, std::size_t gates) {
  constexpr int kQubits = 10;
  Rng rng(seed);
  Circuit c(kQubits);
  auto qubit = [&] { return static_cast<int>(rng.next_below(kQubits)); };
  auto distinct_from = [&](int a, int b = -1) {
    int q = qubit();
    while (q == a || q == b) q = qubit();
    return q;
  };
  for (int q = 0; q < kQubits; ++q) c.h(q);
  for (std::size_t i = 0; i < gates; ++i) {
    const int t = qubit();
    const double theta = rng.next_double() * 3.0;
    switch (rng.next_below(8)) {
      case 0: c.rx(t, theta); break;
      case 1: c.ry(t, theta); break;
      case 2: c.rz(t, theta); break;
      case 3: c.cphase(distinct_from(t), t, theta); break;
      case 4: c.cx(distinct_from(t), t); break;
      case 5: {
        const int c0 = distinct_from(t);
        c.ccx(c0, distinct_from(t, c0), t);
        break;
      }
      case 6: c.swap(distinct_from(t), t); break;
      default: c.t(t); break;
    }
  }
  return c;
}

TEST(BatchedSimulatorTest, PairRunsAreBitIdenticalAndSaveCodecCalls) {
  // Codec calls (compress + decompress) the same 40 batched runs made when
  // every op that pairs blocks was a sweep of its own and cut the runs
  // around it: 42,084, against 20,608 with pair runs.
  constexpr std::uint64_t kUnpairedCodecCalls = 42084;
  std::uint64_t batched_calls = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Circuit c = pair_run_circuit(seed, 48);
    auto config = batched_config(10, 4, 4);
    config.enable_cache = false;
    config.enable_fusion_prepass = false;
    CompressedStateSimulator batched(config);
    batched.apply_circuit(c);
    config.enable_run_batching = false;
    CompressedStateSimulator per_gate(config);
    per_gate.apply_circuit(c);
    qsim::StateVector dense(10);
    dense.apply_circuit(c);

    const std::vector<double> state = batched.to_raw();
    EXPECT_EQ(state, per_gate.to_raw()) << "seed " << seed;
    EXPECT_TRUE(std::ranges::equal(state, dense.raw())) << "seed " << seed;
    const auto report = batched.report();
    batched_calls += report.compress_invocations + report.decompress_invocations;
  }
  // Pair runs must save at least a third of the calls.
  EXPECT_LT(3 * batched_calls, 2 * kUnpairedCodecCalls) << batched_calls;
}

TEST(BatchedSimulatorTest, MemoryBudgetCapsRunLengthForEscalation) {
  // Budget enforcement runs between runs; with a budget set and no user
  // cap, a long block-local stretch must be split (16-op cap) so the
  // error-ladder escalation cannot be deferred across the whole stretch.
  auto config = batched_config(10, 1, 2);  // offset segment: 9 qubits
  config.memory_budget_bytes = 2 << 10;    // pressure on a 16 KB raw state
  CompressedStateSimulator sim(config);
  Circuit c(10);
  // Controlled gates so the fusion pre-pass cannot shrink the stretch,
  // and varied rotations so the state stays incompressible losslessly.
  for (int i = 0; i < 48; ++i) {
    c.h(i % 8).cx(i % 7, (i % 7) + 1).rz(i % 8, 0.37 * i + 0.21);
  }
  sim.apply_circuit(c);
  const auto report = sim.report();
  EXPECT_GE(report.batched_runs, 3u)
      << "a 48-gate local stretch must split into capped runs";
  EXPECT_GT(sim.ladder_level(), 0) << "budget must still force escalation";
}

// ------------------------------------------------- cursor / resume fixes

TEST(CircuitCursorTest, SecondCircuitAppliesAllOfItsGates) {
  // Regression: the cursor used to persist after a completed circuit, so
  // a second apply_circuit silently skipped its first N gates.
  Circuit c1(10);
  c1.h(0).h(1).h(2);
  Circuit c2(10);
  c2.x(0).cx(0, 9).t(5).h(3);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c1);
  sim.apply_circuit(c2);

  qsim::StateVector reference(10);
  reference.apply_circuit(c1);
  reference.apply_circuit(c2);
  EXPECT_NEAR(qsim::state_fidelity(reference.raw(), sim.to_raw()), 1.0,
              1e-10);
  EXPECT_EQ(sim.gate_cursor(), c2.size());
  EXPECT_EQ(sim.report().gates, c1.size() + c2.size());
}

TEST(CircuitCursorTest, AdHocApplyInvalidatesResumePoint) {
  Circuit c1(10);
  c1.h(0).h(1);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c1);
  EXPECT_EQ(sim.gate_cursor(), c1.size());
  sim.apply({GateKind::kX, 3});
  EXPECT_EQ(sim.gate_cursor(), 0u)
      << "an ad-hoc gate diverges the state from the recorded circuit "
         "position, so the cursor must not claim a resume point";

  Circuit c2(10);
  c2.cx(0, 9).t(1);
  sim.apply_circuit(c2);
  qsim::StateVector reference(10);
  reference.apply_circuit(c1);
  reference.apply({GateKind::kX, 3});
  reference.apply_circuit(c2);
  EXPECT_NEAR(qsim::state_fidelity(reference.raw(), sim.to_raw()), 1.0,
              1e-10);
}

TEST(CircuitCursorTest, MeasurementInvalidatesResumePoint) {
  Circuit c(10);
  c.h(0).cx(0, 9);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c);
  ASSERT_EQ(sim.gate_cursor(), c.size());
  Rng rng(7);
  sim.measure(0, rng);
  EXPECT_EQ(sim.gate_cursor(), 0u)
      << "collapse diverges the state from the recorded circuit position";
}

TEST(CircuitCursorTest, ResumeCircuitContinuesFromCursor) {
  const auto full = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  Circuit prefix(10);
  for (std::size_t i = 0; i < full.size() / 3; ++i) {
    prefix.append(full.ops()[i]);
  }
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(prefix);
  ASSERT_EQ(sim.gate_cursor(), prefix.size());
  sim.resume_circuit(full);  // applies only the remaining two thirds
  EXPECT_EQ(sim.gate_cursor(), full.size());
  EXPECT_NEAR(cross_fidelity(sim, full), 1.0, 1e-10);
  EXPECT_EQ(sim.report().gates, full.size());
}

TEST(CircuitCursorTest, ResumeCircuitRejectsCursorBeyondCircuit) {
  Circuit big(10);
  big.h(0).h(1).h(2);
  Circuit small(10);
  small.x(0);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(big);
  EXPECT_THROW(sim.resume_circuit(small), std::invalid_argument);
}

// ------------------------------------------------------- SWAP relabeling
//
// Planner fixtures use 8 qubits; the plan does not depend on the
// partition.

/// All physical ops of the program's kGates items, in order.
std::vector<qsim::GateOp> program_ops(const qsim::RemapProgram& program) {
  std::vector<qsim::GateOp> ops;
  for (const auto& item : program.items) {
    if (item.kind != qsim::RemapItem::Kind::kGates) continue;
    ops.insert(ops.end(), item.ops.ops().begin(), item.ops.ops().end());
  }
  return ops;
}

/// Indices of the flagged ops.
std::vector<std::size_t> flagged(const std::vector<bool>& flags) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) out.push_back(i);
  }
  return out;
}

TEST(RemapPlanTest, DisabledPassOnlyTranslates) {
  // H(7) after the SWAP touches qubit 7, so the SWAP stays a gate and the
  // pass only rewrites ops through the map.
  Circuit c(8);
  c.h(7).cx(6, 0).swap(0, 7).h(7);
  auto map = runtime::QubitMap::identity(8);
  map.relabel(0, 3);  // as if a previous run had relabeled
  const auto program = plan_remaps(c, map, qsim::trailing_swaps(c));
  EXPECT_EQ(program.items.size(), 1u);
  EXPECT_EQ(program.stats.swaps_relabeled, 0u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].target, 7);
  EXPECT_EQ(ops[1].controls[0], 6);
  EXPECT_EQ(ops[1].target, 3);  // logical 0 lives at physical 3
  EXPECT_EQ(ops[2].kind, GateKind::kSwap);
  EXPECT_EQ(ops[2].target, 3);
  EXPECT_EQ(ops[2].controls[0], 7);
  EXPECT_EQ(ops[3].target, 7);
}

TEST(RemapPlanTest, SwapBecomesRelabelItem) {
  // swap(1, 7) . h(7) keeps its SWAP: H(7) reads qubit 7 afterwards.
  Circuit kept(8);
  kept.swap(1, 7).h(7);
  EXPECT_TRUE(flagged(qsim::trailing_swaps(kept)).empty());

  // H(2) touches neither qubit, so the SWAP relabels, and its relabel
  // moves behind H(2): every op stays in the one kGates item.
  Circuit c(8);
  c.h(7).swap(1, 7).h(2);
  const auto program = plan_remaps(c, runtime::QubitMap::identity(8),
                                   qsim::trailing_swaps(c));
  ASSERT_EQ(program.items.size(), 2u);
  EXPECT_EQ(program.items[0].kind, qsim::RemapItem::Kind::kGates);
  EXPECT_EQ(program.items[1].kind, qsim::RemapItem::Kind::kRelabel);
  EXPECT_EQ(program.items[1].relabel_a, 1);
  EXPECT_EQ(program.items[1].relabel_b, 7);
  EXPECT_EQ(program.items[1].relabel_source_gates, 1u);
  EXPECT_EQ(program.stats.swaps_relabeled, 1u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].target, 7);
  EXPECT_EQ(ops[1].target, 2);
  EXPECT_EQ(program.items[0].source_gates,
            (std::vector<std::size_t>{1, 1}));
}

TEST(RemapPlanTest, TrailingSwapRelabels) {
  Circuit c(8);
  c.h(0).cx(0, 5).swap(0, 5);
  EXPECT_EQ(flagged(qsim::trailing_swaps(c)), (std::vector<std::size_t>{2}));
  // Only SWAPs at or after `begin` are decided.
  EXPECT_EQ(flagged(qsim::trailing_swaps(c, 2)),
            (std::vector<std::size_t>{2}));
  EXPECT_EQ(flagged(qsim::trailing_swaps(c, 3)).size(), 0u);
}

TEST(RemapPlanTest, LaterTargetControlOrDiagonalKeepsTheGate) {
  // Any later op naming either qubit, in any role, keeps the SWAP a gate.
  const GateOp later_ops[] = {
      {GateKind::kH, 1},                         // target
      {GateKind::kX, 6},                         // target, second qubit
      {GateKind::kCX, 3, {1, -1}},               // control
      {GateKind::kCCX, 3, {0, 6}},               // second control
      {GateKind::kRz, 6, {-1, -1}, {0.3}},       // diagonal target
      {GateKind::kCPhase, 2, {1, -1}, {0.3}},    // diagonal control
      {GateKind::kSwap, 6, {7, -1}, {}},         // a SWAP that then stays
  };
  for (const GateOp& later : later_ops) {
    Circuit c(8);
    c.swap(1, 6).append(later).h(7);
    EXPECT_TRUE(flagged(qsim::trailing_swaps(c)).empty())
        << "kind " << static_cast<int>(later.kind);
  }
  // An op on other qubits does not.
  Circuit c(8);
  c.swap(1, 6).cx(0, 2).rz(3, 0.5);
  EXPECT_EQ(flagged(qsim::trailing_swaps(c)), (std::vector<std::size_t>{0}));
}

TEST(RemapPlanTest, ChainOfTrailingSwapsAllRelabel) {
  // Each SWAP's qubits are named later only by SWAPs that relabel
  // themselves, so the whole chain relabels, in program order.
  Circuit c(8);
  c.h(0).h(3).swap(0, 3).swap(3, 5).swap(5, 0).swap(1, 2);
  EXPECT_EQ(flagged(qsim::trailing_swaps(c)),
            (std::vector<std::size_t>{2, 3, 4, 5}));
  auto program = plan_remaps(c, runtime::QubitMap::identity(8),
                             qsim::trailing_swaps(c));
  EXPECT_EQ(program.stats.swaps_relabeled, 4u);
  auto map = runtime::QubitMap::identity(8);
  for (const auto& item : program.items) {
    if (item.kind == qsim::RemapItem::Kind::kRelabel) {
      map.relabel(item.relabel_a, item.relabel_b);
    }
  }
  auto expected = runtime::QubitMap::identity(8);
  expected.relabel(0, 3);
  expected.relabel(3, 5);
  expected.relabel(5, 0);
  expected.relabel(1, 2);
  EXPECT_EQ(map, expected);
}

TEST(RemapPlanTest, RejectsInvalidInputs) {
  Circuit c(8);
  c.h(0);
  EXPECT_THROW(plan_remaps(c, runtime::QubitMap::identity(7),
                           qsim::trailing_swaps(c)),
               std::invalid_argument);
  EXPECT_THROW(
      plan_remaps(c, runtime::QubitMap::identity(8), std::vector<bool>(2)),
      std::invalid_argument);
}

class RelabelResumeTest : public test::TempDirFixture {};

TEST_F(RelabelResumeTest, AutosaveCutBeforeALaterGateKeepsTheSwap) {
  // 4 ranks x 4 blocks: offset [0,6), block {6,7}, rank {8,9}. The
  // autosave interval cuts after op 12, between swap(1, 8) (op 11) and
  // h(8) (op 13), so the SWAP's chunk alone would show nothing touching
  // qubit 8 afterwards. It stays a gate all the same; swap(2, 9), which
  // nothing follows, relabels.
  Circuit c(10);
  for (int q = 0; q < 10; ++q) c.h(q);
  c.cx(1, 8).swap(1, 8).rz(3, 0.4);
  c.h(8).cx(8, 4).swap(2, 9);
  ASSERT_EQ(flagged(qsim::trailing_swaps(c)), (std::vector<std::size_t>{15}));

  SimConfig config = batched_config(10);
  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");
  CompressedStateSimulator full(config);
  full.apply_circuit(c);
  EXPECT_EQ(full.report().swaps_relabeled, 1u);
  auto expected_map = runtime::QubitMap::identity(10);
  expected_map.relabel(2, 9);
  EXPECT_EQ(full.qubit_map(), expected_map);
  qsim::StateVector dense(10);
  dense.apply_circuit(c);
  EXPECT_NEAR(qsim::state_fidelity(dense.raw(), full.to_raw()), 1.0, 1e-12);

  // The one autosave holds the state at the cut (the 3 gates after it are
  // short of another interval). Resumed from it, the run decides alike
  // and ends bit-identical.
  auto resumed =
      CompressedStateSimulator::load_checkpoint(path("auto.ckpt"), config);
  ASSERT_EQ(resumed.gate_cursor(), 13u);
  EXPECT_TRUE(resumed.qubit_map().is_identity());
  resumed.resume_circuit(c);
  EXPECT_EQ(resumed.report().swaps_relabeled, 1u);
  EXPECT_EQ(resumed.qubit_map(), full.qubit_map());
  EXPECT_EQ(resumed.to_raw(), full.to_raw());
}

}  // namespace
}  // namespace cqs
