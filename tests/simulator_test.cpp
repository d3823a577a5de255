// Integration tests for CompressedStateSimulator: cross-validation against
// the dense reference simulator across gate placements (offset / block /
// rank segments), codecs, the adaptive ladder, measurement, and
// checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/phase_estimation.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"
#include "test_util.hpp"

namespace cqs::core {
namespace {

using qsim::GateKind;

/// Fidelity between the compressed simulator's state and a dense reference
/// run of the same circuit.
double cross_fidelity(CompressedStateSimulator& sim,
                      const qsim::Circuit& circuit) {
  qsim::StateVector reference(circuit.num_qubits());
  reference.apply_circuit(circuit);
  const auto raw = sim.to_raw();
  return qsim::state_fidelity(reference.raw(), raw);
}

SimConfig small_config(int qubits, int ranks = 4, int blocks = 4) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.threads = 4;
  return config;
}

TEST(SimulatorTest, InitialStateIsZeroKet) {
  CompressedStateSimulator sim(small_config(10));
  const auto amps = sim.to_amplitudes();
  EXPECT_NEAR(std::abs(amps[0]), 1.0, 1e-12);
  EXPECT_NEAR(sim.norm(), 1.0, 1e-12);
}

TEST(SimulatorTest, MatchesDenseOnEverySingleQubitPlacement) {
  // One Hadamard per qubit position: exercises the offset, block, and rank
  // target segments (10 qubits = 5 offset + 3 block + 2 rank bits).
  for (int q = 0; q < 10; ++q) {
    auto config = small_config(10, 4, 8);
    CompressedStateSimulator sim(config);
    qsim::Circuit c(10);
    c.h(q).t(q).h(q);
    sim.apply_circuit(c);
    EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10) << "qubit " << q;
  }
}

TEST(SimulatorTest, MatchesDenseOnControlledGateAllPlacements) {
  // CX over (control, target) pairs spanning all segment combinations.
  const int pairs[][2] = {{0, 1}, {1, 6}, {6, 1}, {6, 8}, {8, 6},
                          {0, 9}, {9, 0}, {5, 7}, {8, 9}, {9, 4}};
  for (const auto& [ctrl, tgt] : pairs) {
    CompressedStateSimulator sim(small_config(10, 4, 8));
    qsim::Circuit c(10);
    c.h(ctrl).cx(ctrl, tgt).rz(tgt, 0.7).cx(ctrl, tgt);
    sim.apply_circuit(c);
    EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10)
        << "cx " << ctrl << "->" << tgt;
  }
}

TEST(SimulatorTest, MatchesDenseOnToffoliAcrossSegments) {
  const int triples[][3] = {{0, 1, 2}, {0, 6, 9}, {6, 8, 0}, {8, 9, 5}};
  for (const auto& [c0, c1, t] : triples) {
    CompressedStateSimulator sim(small_config(10, 4, 8));
    qsim::Circuit c(10);
    c.h(c0).h(c1).ccx(c0, c1, t);
    sim.apply_circuit(c);
    EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10)
        << c0 << "," << c1 << "->" << t;
  }
}

TEST(SimulatorTest, SwapDecompositionMatchesDense) {
  CompressedStateSimulator sim(small_config(10, 4, 8));
  qsim::Circuit c(10);
  c.h(0).t(0).swap(0, 9).swap(3, 6);
  sim.apply_circuit(c);
  EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10);
}

TEST(SimulatorTest, LosslessRunHasExactFidelity) {
  CompressedStateSimulator sim(small_config(12));
  const auto c = circuits::qft_circuit({.num_qubits = 12});
  sim.apply_circuit(c);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(), 1.0);
  EXPECT_EQ(sim.ladder_level(), 0);
  EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-9);
}

TEST(SimulatorTest, GroverMatchesDense) {
  const auto c = circuits::grover_circuit(
      {.data_qubits = 7, .marked_state = 0b1011001});
  CompressedStateSimulator sim(small_config(c.num_qubits(), 2, 4));
  sim.apply_circuit(c);
  EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-9);
  EXPECT_GT(sim.report().cache.hits, 0u)
      << "Grover states repeat blocks; the cache should hit";
}

TEST(SimulatorTest, KernelSelectionsSplitSharingGroups) {
  // After H on every qubit all 16 blocks of 4 ranks x 4 blocks hold the
  // same bytes (offset 0-5, block 6-7, rank 8-9). One run then applies RZ
  // on block qubit 6, whose factor each block's bit picks, and RX(0)
  // controlled by rank qubit 9. Equal payloads share only within a rank
  // and a selection: 4 ranks x 2 factors = 8 groups, so 8 units compute
  // and 8 take a copy.
  qsim::Circuit prep(10);
  for (int q = 0; q < 10; ++q) prep.h(q);
  qsim::Circuit run(10);
  run.rz(6, 0.9).append({GateKind::kRx, 0, {9, -1}, {0.4}});
  qsim::Circuit whole = prep;
  for (const auto& op : run.ops()) whole.append(op);
  qsim::StateVector dense(10);
  dense.apply_circuit(whole);

  std::vector<double> unshared;
  for (const bool cache : {false, true}) {
    for (const int threads : {1, 4}) {
      SimConfig config = small_config(10, 4, 4);
      config.threads = threads;
      config.enable_cache = cache;
      config.enable_fusion_prepass = false;
      CompressedStateSimulator sim(config);
      sim.apply_circuit(prep);
      const auto before = sim.report();
      sim.apply_circuit(run);
      const auto after = sim.report();
      EXPECT_EQ(after.batched_runs - before.batched_runs, 1u);
      EXPECT_EQ(after.cache.misses - before.cache.misses, cache ? 8u : 0u)
          << "threads " << threads;
      EXPECT_EQ(after.cache.hits - before.cache.hits, cache ? 8u : 0u)
          << "threads " << threads;
      const std::vector<double> state = sim.to_raw();
      EXPECT_TRUE(std::ranges::equal(state, dense.raw()))
          << "cache " << cache << " threads " << threads;
      if (unshared.empty()) unshared = state;
      EXPECT_EQ(state, unshared) << "cache " << cache << " threads " << threads;
    }
  }
}

TEST(SimulatorTest, SupremacyCircuitMatchesDense) {
  const auto c =
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 11});
  CompressedStateSimulator sim(small_config(12, 4, 4));
  sim.apply_circuit(c);
  EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-9);
}

class CodecSimulationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecSimulationTest, LossyRunStaysAboveFidelityBound) {
  // Force the ladder to a lossy level from the start and check the
  // measured fidelity respects the tracked lower bound (Eq. 11).
  SimConfig config = small_config(11, 2, 4);
  config.codec = GetParam();
  config.initial_level = 2;  // ladder[1] = 1e-4
  CompressedStateSimulator sim(config);
  const auto c = circuits::qaoa_maxcut_circuit({.num_qubits = 11});
  sim.apply_circuit(c);

  const double bound = sim.fidelity_bound();
  EXPECT_LT(bound, 1.0);
  EXPECT_GT(bound, 0.9) << "1e-4 over a few hundred gates stays high";
  const double measured = cross_fidelity(sim, c);
  EXPECT_GE(measured + 1e-12, bound);
  EXPECT_GT(measured, 0.99);
}

INSTANTIATE_TEST_SUITE_P(AllLossyCodecs, CodecSimulationTest,
                         ::testing::Values("qzc", "qzc-shuffle", "sz",
                                           "sz-complex", "zfp", "fpzip"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(SimulatorTest, AdaptiveLadderEscalatesUnderBudget) {
  // A dense random state under a tight budget must leave lossless mode.
  SimConfig config = small_config(12, 2, 4);
  config.memory_budget_bytes = 20 << 10;  // 20 KB for a 64 KB raw state
  CompressedStateSimulator sim(config);
  const auto c =
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 8});
  sim.apply_circuit(c);
  EXPECT_GT(sim.ladder_level(), 0) << "budget must force lossy compression";
  EXPECT_LT(sim.fidelity_bound(), 1.0);
  EXPECT_GT(sim.fidelity_bound(), 0.5);
  // The state must actually fit (or the run must say it could not).
  const auto report = sim.report();
  if (!report.budget_exceeded) {
    EXPECT_LE(sim.compressed_bytes(), config.memory_budget_bytes);
  }
}

TEST(SimulatorTest, LadderNeverEscalatesWithoutBudgetPressure) {
  SimConfig config = small_config(12, 2, 4);
  config.memory_budget_bytes = 0;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 8}));
  EXPECT_EQ(sim.ladder_level(), 0);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(), 1.0);
}

// The ladder level alone picks the codec: zx at level 0, the configured
// lossy codec above it, whatever the blocks hold.
SimulationReport run_from_level(const qsim::Circuit& circuit, int level) {
  SimConfig config = small_config(8, 2, 4);
  config.initial_level = level;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  return sim.report();
}

TEST(SimulatorTest, LevelZeroIsAlwaysLossless) {
  // However dense the state, level 0 compresses every block losslessly.
  const auto report = run_from_level(
      circuits::supremacy_circuit({.rows = 2, .cols = 4, .depth = 6}), 0);
  EXPECT_GT(report.lossless_compress_invocations, 0u);
  EXPECT_EQ(report.lossy_compress_invocations, 0u);
  EXPECT_EQ(report.final_lossy_blocks, 0u);
}

TEST(SimulatorTest, LossyLevelCompressesEvenSparseBlocksLossily) {
  // A GHZ state is exact zeros outside two amplitudes; a lossy level still
  // sends every block through the lossy codec.
  qsim::Circuit ghz(8);
  ghz.h(0);
  for (int q = 1; q < 8; ++q) ghz.cx(q - 1, q);
  const auto report = run_from_level(ghz, 1);
  EXPECT_EQ(report.lossless_compress_invocations, 0u);
  EXPECT_GT(report.lossy_compress_invocations, 0u);
  EXPECT_EQ(report.final_lossless_blocks, 0u);
  EXPECT_EQ(report.final_lossy_blocks, 8u);
}

TEST(SimulatorTest, RunStartedAtLevelOneEndsWithNoLosslessBlock) {
  // Init happens at level 1 too, so every block a dense run started there
  // compressed went through the lossy codec.
  const auto report = run_from_level(
      circuits::supremacy_circuit({.rows = 2, .cols = 4, .depth = 6}), 1);
  EXPECT_EQ(report.lossless_compress_invocations, 0u);
  EXPECT_GT(report.lossy_compress_invocations, 0u);
  EXPECT_EQ(report.final_lossless_blocks, 0u);
  EXPECT_EQ(report.final_lossy_blocks, 8u);
}

TEST(SimulatorTest, AdHocApplyRejectsWhatCircuitAppendRejects) {
  // apply() checks an ad-hoc op by the rules Circuit::append applies, and
  // throws the same exception before the op reaches the qubit map.
  const qsim::GateOp out_of_range[] = {
      {GateKind::kH, 40},           // target past the register
      {GateKind::kCX, 3, {8, -1}},  // control past the register
      {GateKind::kH, -1},           // negative target
  };
  const qsim::GateOp invalid[] = {
      {GateKind::kCX, 3, {3, -1}},  // control equals the target
      {GateKind::kCCX, 3, {1, 1}},  // duplicate controls
  };
  qsim::Circuit prefix(8);
  prefix.h(0).cx(0, 5).t(7);
  CompressedStateSimulator sim(small_config(8, 2, 4));
  sim.apply_circuit(prefix);
  const auto state = sim.to_raw();
  const auto gates = sim.report().gates;
  ASSERT_EQ(sim.gate_cursor(), prefix.size());
  for (const qsim::GateOp& op : out_of_range) {
    qsim::Circuit circuit(8);
    EXPECT_THROW(circuit.append(op), std::out_of_range);
    EXPECT_THROW(sim.apply(op), std::out_of_range);
  }
  for (const qsim::GateOp& op : invalid) {
    qsim::Circuit circuit(8);
    EXPECT_THROW(circuit.append(op), std::invalid_argument);
    EXPECT_THROW(sim.apply(op), std::invalid_argument);
  }
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), state, 0.0);
  EXPECT_EQ(sim.report().gates, gates);
  EXPECT_EQ(sim.gate_cursor(), prefix.size());
}

TEST(SimulatorTest, ProbabilityMatchesDenseAcrossSegments) {
  const auto c = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  CompressedStateSimulator sim(small_config(10, 4, 8));
  sim.apply_circuit(c);
  qsim::StateVector reference(10);
  reference.apply_circuit(c);
  for (int q = 0; q < 10; ++q) {
    EXPECT_NEAR(sim.probability_one(q), reference.probability_one(q), 1e-9)
        << "qubit " << q;
  }
}

TEST(SimulatorTest, IntermediateMeasurementCollapses) {
  // Bell pair over a rank-segment qubit: measurement of qubit 0 must fix
  // qubit 9 to the same value.
  CompressedStateSimulator sim(small_config(10, 4, 8));
  qsim::Circuit c(10);
  c.h(0).cx(0, 9);
  sim.apply_circuit(c);
  Rng rng(5);
  const int outcome = sim.measure(0, rng);
  EXPECT_NEAR(sim.probability_one(9), static_cast<double>(outcome), 1e-9);
  EXPECT_NEAR(sim.norm(), 1.0, 1e-9);
}

TEST(SimulatorTest, AssertProbabilityForDebugging) {
  CompressedStateSimulator sim(small_config(10));
  qsim::Circuit c(10);
  c.h(3);
  sim.apply_circuit(c);
  EXPECT_TRUE(sim.assert_probability(3, 0.5, 1e-9));
  EXPECT_TRUE(sim.assert_probability(0, 0.0, 1e-9));
  EXPECT_FALSE(sim.assert_probability(3, 0.9, 0.1));
}

using SimulatorCheckpointTest = test::TempDirFixture;

TEST_F(SimulatorCheckpointTest, CheckpointResumeProducesSameState) {
  const auto c = circuits::qft_circuit({.num_qubits = 10});
  const std::string path = this->path("sim_checkpoint.bin");

  // Full run.
  CompressedStateSimulator full(small_config(10, 2, 4));
  full.apply_circuit(c);

  // Split run: first half, checkpoint, restore, second half.
  CompressedStateSimulator first(small_config(10, 2, 4));
  qsim::Circuit half(10);
  const auto& ops = c.ops();
  for (std::size_t i = 0; i < ops.size() / 2; ++i) half.append(ops[i]);
  first.apply_circuit(half);
  first.save_checkpoint(path);

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, small_config(10, 2, 4));
  EXPECT_EQ(resumed.gate_cursor(), ops.size() / 2);
  resumed.resume_circuit(c);  // resumes from the cursor

  const auto a = full.to_raw();
  const auto b = resumed.to_raw();
  EXPECT_NEAR(qsim::state_fidelity(a, b), 1.0, 1e-10);
  CQS_EXPECT_STATES_CLOSE(a, b, 1e-12);
}

TEST(SimulatorTest, RankConfigurationsAgree) {
  // The same circuit over different rank/block shapes must give the same
  // state — the partition is an implementation detail.
  const auto c = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  std::vector<double> reference;
  for (const auto& [ranks, blocks] : {std::pair{1, 1}, {1, 8}, {4, 4},
                                      {8, 2}, {16, 2}}) {
    CompressedStateSimulator sim(small_config(10, ranks, blocks));
    sim.apply_circuit(c);
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
    } else {
      EXPECT_NEAR(qsim::state_fidelity(reference, raw), 1.0, 1e-10)
          << ranks << "x" << blocks;
    }
  }
}

TEST(SimulatorTest, CrossRankGatesGenerateTraffic) {
  CompressedStateSimulator sim(small_config(10, 4, 4));
  qsim::Circuit c(10);
  c.h(9);  // rank-segment target
  sim.apply_circuit(c);
  const auto report = sim.report();
  EXPECT_GT(report.comm_bytes, 0u);
  EXPECT_GT(report.comm_messages, 0u);

  CompressedStateSimulator local(small_config(10, 4, 4));
  qsim::Circuit c2(10);
  c2.h(0);  // offset-segment target: no traffic
  local.apply_circuit(c2);
  EXPECT_EQ(local.report().comm_bytes, 0u);
}

TEST(SimulatorTest, CrossRankTrafficIsOneExchangeOfBothInputsPerPair) {
  // 8 qubits over 2 ranks x 1 block: a rank-segment gate touches exactly
  // one block pair, and the wire must carry exactly one buffered sendrecv
  // — both compressed *input* blocks, 2 messages — with no push-back leg.
  SimConfig config = small_config(8, 2, 1);
  config.codec = "zstd";  // lossless: payload sizes are reproducible
  CompressedStateSimulator sim(config);
  qsim::Circuit c(8);
  c.h(7);
  sim.apply_circuit(c);

  const auto codec = compression::make_compressor("zstd");
  std::vector<double> zeros(1 << 8, 0.0);  // 2^7 amplitudes, re/im pairs
  const auto zero_block =
      codec->compress(zeros, compression::ErrorBound::lossless());
  zeros[0] = 1.0;
  const auto one_block =
      codec->compress(zeros, compression::ErrorBound::lossless());

  const auto report = sim.report();
  EXPECT_EQ(report.comm_messages, 2u);
  EXPECT_EQ(report.comm_bytes, zero_block.size() + one_block.size());
}

TEST(SimulatorTest, ReportAccounting) {
  CompressedStateSimulator sim(small_config(10, 2, 4));
  const auto c = circuits::qft_circuit({.num_qubits = 10});
  sim.apply_circuit(c);
  const auto report = sim.report();
  EXPECT_EQ(report.gates, c.size());
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.phases.total(), 0.0);
  EXPECT_GT(report.min_compression_ratio, 0.0);
  EXPECT_GT(report.peak_compressed_bytes, 0u);
  EXPECT_EQ(report.memory_requirement_bytes, 1u << 14);  // 2^{10+4}
  EXPECT_EQ(report.num_qubits, 10);
}

TEST(SimulatorTest, RejectsBadConfigs) {
  SimConfig config;
  config.num_qubits = 8;
  config.num_ranks = 3;  // not a power of two
  EXPECT_THROW(CompressedStateSimulator{config}, std::invalid_argument);

  config = SimConfig{};
  config.num_qubits = 8;
  config.codec = "zstd";
  config.initial_level = 1;  // lossless codec cannot be lossy
  EXPECT_THROW(CompressedStateSimulator{config}, std::invalid_argument);

  config = SimConfig{};
  config.num_qubits = 8;
  config.error_ladder = {1e-2, 1e-4};  // not ascending
  EXPECT_THROW(CompressedStateSimulator{config}, std::invalid_argument);
}

TEST(SimulatorTest, ZstdOnlySimulationStaysLossless) {
  SimConfig config = small_config(10, 2, 4);
  config.codec = "zstd";
  config.memory_budget_bytes = 1;  // impossible budget
  CompressedStateSimulator sim(config);
  qsim::Circuit c(10);
  for (int q = 0; q < 10; ++q) c.h(q);
  sim.apply_circuit(c);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(), 1.0);
  EXPECT_TRUE(sim.report().budget_exceeded);
}

// ------------------------------------------------ SWAP-relabel differential
//
// The simulator relabels each SWAP nothing later touches instead of
// executing it. Every bundled circuit family runs against the same
// circuit with each SWAP written as its three CX legs, which executes
// every SWAP: at the lossless level the final logical states must be
// bit-identical (up to the sign of zeros) — relabeling only moves where
// amplitudes live, never what they are.

using test::remap_cases;

TEST(QubitRemapTest, RemapOnMatchesRemapOffBitwiseOnAllCircuits) {
  for (auto& test_case : remap_cases()) {
    const SimConfig config = small_config(test_case.circuit.num_qubits());
    const auto expanded = test::with_swaps_expanded(test_case.circuit);
    CompressedStateSimulator legs(config);
    CompressedStateSimulator sim(config);
    legs.apply_circuit(expanded);
    sim.apply_circuit(test_case.circuit);
    CQS_EXPECT_STATES_CLOSE(sim.to_raw(), legs.to_raw(), 0.0)
        << test_case.name;

    // Every source gate counts, relabeled or not (lossless run).
    const auto rep_legs = legs.report();
    const auto rep = sim.report();
    EXPECT_EQ(rep.gates, test_case.circuit.size()) << test_case.name;
    EXPECT_EQ(rep_legs.gates, expanded.size()) << test_case.name;
    EXPECT_DOUBLE_EQ(rep.fidelity_bound, 1.0) << test_case.name;
    EXPECT_LE(rep.comm_bytes, rep_legs.comm_bytes) << test_case.name;
  }
}

TEST(QubitRemapTest, RemapMatchesSeedPerGatePathAndLruPolicy) {
  // Bitwise equality holds against the reference with the same fusion
  // setting: fusion itself reorders single-qubit arithmetic (a property
  // independent of relabeling), so the per-gate path is the reference for
  // unbatched runs and the batched path for batched ones.
  for (auto& test_case : remap_cases()) {
    const auto expanded = test::with_swaps_expanded(test_case.circuit);
    SimConfig seed = small_config(test_case.circuit.num_qubits());
    seed.enable_run_batching = false;  // the per-gate path
    seed.enable_fusion_prepass = false;
    CompressedStateSimulator per_gate_reference(seed);
    per_gate_reference.apply_circuit(expanded);
    const auto per_gate_expected = per_gate_reference.to_raw();

    CompressedStateSimulator batched_reference(
        small_config(test_case.circuit.num_qubits()));
    batched_reference.apply_circuit(expanded);
    const auto batched_expected = batched_reference.to_raw();

    for (const bool batching : {true, false}) {
      SimConfig config = small_config(test_case.circuit.num_qubits());
      config.enable_run_batching = batching;
      if (!batching) config.enable_fusion_prepass = false;
      CompressedStateSimulator sim(config);
      sim.apply_circuit(test_case.circuit);
      CQS_EXPECT_STATES_CLOSE(
          sim.to_raw(), batching ? batched_expected : per_gate_expected, 0.0)
          << test_case.name << " batching=" << batching;
    }
  }
}

TEST(QubitRemapTest, RemapBitIdenticalAcrossRankConfigs) {
  // Degenerate partitions included: at 1 rank there is no rank segment at
  // all, at 8 ranks the rank segment is a third of the qubits.
  const auto circuit = circuits::qft_circuit({.num_qubits = 9});
  const auto expanded = test::with_swaps_expanded(circuit);
  for (int ranks : {1, 2, 4, 8}) {
    const SimConfig config = small_config(9, ranks, 2);
    CompressedStateSimulator legs(config);
    CompressedStateSimulator sim(config);
    legs.apply_circuit(expanded);
    sim.apply_circuit(circuit);
    CQS_EXPECT_STATES_CLOSE(sim.to_raw(), legs.to_raw(), 0.0)
        << ranks << " ranks";
    EXPECT_LE(sim.report().comm_bytes, legs.report().comm_bytes)
        << ranks << " ranks";
  }
}

TEST(QubitRemapTest, RankHeavyCircuitMovesStrictlyFewerBytes) {
  // QFT's reversal swaps hit the rank segment at 4 ranks and nothing
  // follows them: relabeled, they move strictly fewer bytes and messages
  // than their CX legs do.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  const SimConfig config = small_config(10);
  CompressedStateSimulator legs(config);
  CompressedStateSimulator sim(config);
  legs.apply_circuit(test::with_swaps_expanded(circuit));
  sim.apply_circuit(circuit);
  const auto rep_legs = legs.report();
  const auto rep = sim.report();
  ASSERT_GT(rep_legs.comm_bytes, 0u);
  EXPECT_LT(rep.comm_bytes, rep_legs.comm_bytes);
  EXPECT_LT(rep.comm_messages, rep_legs.comm_messages);
  EXPECT_EQ(rep.swaps_relabeled, 5u);
  EXPECT_FALSE(sim.qubit_map().is_identity());
}

TEST(QubitRemapTest, LossyRemapStaysWithinTheFidelityBound) {
  // At a lossy level the relabeled and the executed layouts compress
  // different block partitions of the same state, so bitwise equality no
  // longer holds; the Eq. 11 product of both runs' bounds still floors
  // their overlap.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  SimConfig config = small_config(10);
  config.initial_level = 1;  // 1e-5 relative
  CompressedStateSimulator legs(config);
  CompressedStateSimulator sim(config);
  legs.apply_circuit(test::with_swaps_expanded(circuit));
  sim.apply_circuit(circuit);
  ASSERT_GT(sim.report().swaps_relabeled, 0u);
  const double fidelity = qsim::state_fidelity(sim.to_raw(), legs.to_raw());
  const double floor =
      sim.report().fidelity_bound * legs.report().fidelity_bound;
  EXPECT_GE(fidelity, floor - 1e-9);
}

TEST(QubitRemapTest, QueriesSpeakLogicalIndicesUnderRemap) {
  // X gates + reversal swaps give a known basis state; the swaps are the
  // last ops, so they become relabels and the map goes non-identity:
  // probability_one / measure / sample / expectation answers must all be
  // translated back to logical indices.
  CompressedStateSimulator sim(small_config(8));
  qsim::Circuit c(8);
  c.x(7).x(5).x(0);
  sim.apply_circuit(test::with_reversal_swaps(c));
  ASSERT_FALSE(sim.qubit_map().is_identity());

  // |10100001> reversed: bits 7,5,0 set, then reversal maps q -> 7-q.
  const std::uint64_t expected = (1u << 0) | (1u << 2) | (1u << 7);
  for (int q = 0; q < 8; ++q) {
    const double expected_p = (expected >> q) & 1 ? 1.0 : 0.0;
    EXPECT_NEAR(sim.probability_one(q), expected_p, 1e-12) << "qubit " << q;
  }
  Rng rng(11);
  EXPECT_EQ(sim.sample(rng), expected);
  EXPECT_NEAR(sim.expectation_pauli_z((1u << 0) | (1u << 1)), -1.0, 1e-12);
  EXPECT_EQ(sim.measure(0, rng), 1);
  EXPECT_EQ(sim.measure(1, rng), 0);
}

TEST(QubitRemapTest, AdHocApplyAndResumeTranslateThroughTheMap) {
  // After a circuit whose swaps were relabeled, ad-hoc gates and a second
  // circuit still arrive in logical coordinates.
  qsim::Circuit prelude(8);
  prelude.h(0).cx(0, 4).swap(0, 7).swap(1, 6);
  CompressedStateSimulator relabeled(small_config(8));
  CompressedStateSimulator plain(small_config(8));
  relabeled.apply_circuit(prelude);
  plain.apply_circuit(test::with_swaps_expanded(prelude));
  ASSERT_FALSE(relabeled.qubit_map().is_identity());
  ASSERT_TRUE(plain.qubit_map().is_identity());

  relabeled.apply({GateKind::kH, 7});
  plain.apply({GateKind::kH, 7});
  relabeled.apply({GateKind::kCX, 6, {7, -1}});
  plain.apply({GateKind::kCX, 6, {7, -1}});
  qsim::Circuit next(8);
  next.ry(6, 0.4).cx(7, 1).h(0);
  relabeled.apply_circuit(next);
  plain.apply_circuit(next);
  CQS_EXPECT_STATES_CLOSE(relabeled.to_raw(), plain.to_raw(), 0.0);
}

/// Runs `circuit` with every SWAP executed. The simulator relabels only
/// the SWAPs nothing later touches, so the run appends a tail that names
/// every qubit: a controlled phase by 0 from each qubit onto the top one,
/// a rank qubit here. Its factor is 1 on every block, so it changes no
/// amplitude and sweeps no block. An autosave interval of circuit.size()
/// gates makes the tail a chunk of its own, so it joins none of the
/// circuit's runs and adds exactly one empty run.
CompressedStateSimulator run_every_swap_executed(
    SimConfig config, const qsim::Circuit& circuit,
    const std::string& autosave_path) {
  qsim::Circuit tailed = circuit;
  const int top = circuit.num_qubits() - 1;
  for (int q = 0; q < top; ++q) tailed.cphase(q, top, 0.0);
  config.checkpoint_interval_gates = circuit.size();
  config.auto_checkpoint_path = autosave_path;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(tailed);
  return sim;
}

class SwapRelabelTest : public test::TempDirFixture {};

TEST_F(SwapRelabelTest, NeverCostsMoreThanExecutingTheSwaps) {
  auto cases = remap_cases();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({"random seed " + std::to_string(seed),
                     test::random_circuit(12, 120, seed)});
  }
  std::uint64_t relabeled_swaps = 0;
  for (const int blocks : {4, 16}) {
    for (const auto& test_case : cases) {
      const std::string label =
          test_case.name + " at 4x" + std::to_string(blocks);
      const SimConfig config =
          small_config(test_case.circuit.num_qubits(), 4, blocks);
      CompressedStateSimulator sim(config);
      sim.apply_circuit(test_case.circuit);
      auto executed = run_every_swap_executed(config, test_case.circuit,
                                              path("executed.ckpt"));
      CQS_EXPECT_STATES_CLOSE(sim.to_raw(), executed.to_raw(), 0.0) << label;
      const auto rep = sim.report();
      const auto rep_executed = executed.report();
      ASSERT_EQ(rep_executed.swaps_relabeled, 0u) << label;
      EXPECT_LE(rep.batched_runs, rep_executed.batched_runs - 1) << label;
      EXPECT_LE(rep.compress_invocations, rep_executed.compress_invocations)
          << label;
      EXPECT_LE(rep.comm_bytes, rep_executed.comm_bytes) << label;
      EXPECT_LE(rep.comm_messages, rep_executed.comm_messages) << label;
      relabeled_swaps += rep.swaps_relabeled;
    }
  }
  EXPECT_GT(relabeled_swaps, 0u) << "no case relabels a SWAP";
}

// ------------------------------------------------- run-merge differential
//
// Without a memory budget, the scheduler merges consecutive runs into
// runs across two qubits, swept as four-block cells. The reference is the
// same circuit under a budget no state reaches: the simulator then keeps
// one-qubit runs (at most 16 ops each) and lossless bytes.

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

TEST(RunMergeTest, NeverCostsMoreThanOneQubitRuns) {
  auto cases = remap_cases();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({"random seed " + std::to_string(seed),
                     test::random_circuit(12, 120, seed)});
  }
  struct Totals {
    std::uint64_t runs = 0, compress_shared = 0, compress_unshared = 0,
                  messages = 0, bytes = 0;
  };
  Totals merged_total;
  Totals reference_total;
  const auto add = [](Totals& t, const SimulationReport& rep, bool sharing) {
    (sharing ? t.compress_shared : t.compress_unshared) +=
        rep.compress_invocations;
    if (sharing) return;
    t.runs += rep.batched_runs;
    t.messages += rep.comm_messages;
    t.bytes += rep.comm_bytes;
  };
  for (const int blocks : {4, 16}) {
    for (const auto& test_case : cases) {
      for (const bool fusion : {true, false}) {
        for (const bool sharing : {false, true}) {
          const std::string label =
              test_case.name + " at 4x" + std::to_string(blocks) +
              (fusion ? ", fusion" : ", no fusion") +
              (sharing ? ", sharing" : ", no sharing");
          SimConfig config =
              small_config(test_case.circuit.num_qubits(), 4, blocks);
          config.enable_fusion_prepass = fusion;
          config.enable_cache = sharing;
          CompressedStateSimulator merged(config);
          merged.apply_circuit(test_case.circuit);
          config.memory_budget_bytes = std::numeric_limits<std::size_t>::max();
          CompressedStateSimulator reference(config);
          reference.apply_circuit(test_case.circuit);

          EXPECT_TRUE(bit_identical(merged.to_raw(), reference.to_raw()))
              << label;
          const SimulationReport rep = merged.report();
          const SimulationReport ref = reference.report();
          ASSERT_EQ(ref.final_ladder_level, 0) << label;
          EXPECT_LE(rep.batched_runs, ref.batched_runs) << label;
          EXPECT_LE(rep.compress_invocations, ref.compress_invocations)
              << label;
          EXPECT_LE(rep.decompress_invocations, ref.decompress_invocations)
              << label;
          EXPECT_LE(rep.comm_messages, ref.comm_messages) << label;
          add(merged_total, rep, sharing);
          add(reference_total, ref, sharing);
        }
      }
    }
  }
  // Exchanged bytes follow the compressed sizes of the blocks a run
  // exchanges, which differ between the two schedules, so a cell may move
  // a few more bytes; the total may not.
  EXPECT_LE(merged_total.bytes, reference_total.bytes);
  EXPECT_LT(merged_total.runs, reference_total.runs);
  EXPECT_LT(merged_total.compress_unshared, reference_total.compress_unshared);
  std::printf(
      "runs %llu -> %llu; compressions with sharing %llu -> %llu, without "
      "%llu -> %llu; messages %llu -> %llu; bytes %llu -> %llu\n",
      static_cast<unsigned long long>(reference_total.runs),
      static_cast<unsigned long long>(merged_total.runs),
      static_cast<unsigned long long>(reference_total.compress_shared),
      static_cast<unsigned long long>(merged_total.compress_shared),
      static_cast<unsigned long long>(reference_total.compress_unshared),
      static_cast<unsigned long long>(merged_total.compress_unshared),
      static_cast<unsigned long long>(reference_total.messages),
      static_cast<unsigned long long>(merged_total.messages),
      static_cast<unsigned long long>(reference_total.bytes),
      static_cast<unsigned long long>(merged_total.bytes));
}

TEST(RunMergeTest, ScratchHoldsFourBuffersOnlyWhereRunsMerge) {
  // Runs merge with batching on, no budget and blocks of at most 64 KiB:
  // the report then counts four block buffers per worker and 2 link bytes
  // per coded input byte, and the scratch total stays what two buffers
  // with 4-byte links hold. Each constructor codes the same two blocks on
  // its one worker.
  const auto buffer_bytes = [](const SimulationReport& rep) {
    return rep.scratch_bytes - rep.codec_scratch_bytes;
  };
  for (const int qubits : {14, 15}) {  // 64 KiB and 128 KiB blocks
    SimConfig config = small_config(qubits, 1, 4);
    config.threads = 1;
    const std::size_t block = std::size_t{16} << (qubits - 2);
    const SimulationReport merging = CompressedStateSimulator(config).report();
    config.memory_budget_bytes = std::numeric_limits<std::size_t>::max();
    const SimulationReport budgeted =
        CompressedStateSimulator(config).report();
    config.memory_budget_bytes = 0;
    config.enable_run_batching = false;
    const SimulationReport per_gate = CompressedStateSimulator(config).report();
    EXPECT_EQ(buffer_bytes(budgeted), 2 * block) << qubits;
    EXPECT_EQ(buffer_bytes(per_gate), 2 * block) << qubits;
    EXPECT_EQ(per_gate.scratch_bytes, budgeted.scratch_bytes) << qubits;
    if (block <= 65536) {
      EXPECT_EQ(buffer_bytes(merging), 4 * block);
      EXPECT_EQ(budgeted.codec_scratch_bytes - merging.codec_scratch_bytes,
                2 * block);
      EXPECT_EQ(merging.scratch_bytes, budgeted.scratch_bytes);
    } else {
      EXPECT_EQ(merging.scratch_bytes, budgeted.scratch_bytes) << qubits;
    }
  }
}

TEST(SimulatorTest, SplitSwapCountsEachLegSweepAsARun) {
  // 10 qubits on 4 ranks x 4 blocks: qubits 0-5 are offset bits, 6-7 block
  // bits and 8-9 rank bits. SWAP(6, 9) pairs its legs across 6, 9 and 6,
  // and cx(0, 9) names qubit 9 after it, so it executes. Its neighbours
  // pair across 7 and 8, so no leg joins their runs: six sweeps either way.
  qsim::Circuit with_swap(10);
  with_swap.h(0).cx(0, 7).swap(6, 9).cx(0, 8).cx(0, 9);
  CompressedStateSimulator swapped(small_config(10));
  CompressedStateSimulator legs(small_config(10));
  swapped.apply_circuit(with_swap);
  legs.apply_circuit(test::with_swaps_expanded(with_swap));
  const SimulationReport rep = swapped.report();
  const SimulationReport rep_legs = legs.report();
  EXPECT_EQ(rep.swaps_relabeled, 0u);
  EXPECT_EQ(rep_legs.batched_runs, 6u);
  EXPECT_EQ(rep.batched_runs, rep_legs.batched_runs);
  EXPECT_EQ(rep.batched_gates, rep_legs.batched_gates);
  CQS_EXPECT_STATES_CLOSE(swapped.to_raw(), legs.to_raw(), 0.0);
}

}  // namespace
}  // namespace cqs::core
