// Integration tests for CompressedStateSimulator: cross-validation against
// the dense reference simulator across gate placements (offset / block /
// rank segments), codecs, the adaptive ladder, measurement, and
// checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
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

// ------------------------------------------------ qubit-remap differential
//
// Every bundled circuit family runs remap-on against remap-off (and the
// per-gate seed path): at the lossless level the final logical states must
// be bit-identical — remapping only moves where amplitudes live, never
// what they are — and on rank-heavy circuits the remapped run must move
// strictly fewer bytes through Comm.

struct RemapCase {
  const char* name;
  qsim::Circuit circuit;
};

std::vector<RemapCase> remap_cases() {
  std::vector<RemapCase> cases;
  cases.push_back({"qft", circuits::qft_circuit({.num_qubits = 10})});
  cases.push_back(
      {"grover", circuits::grover_circuit(
                     {.data_qubits = 5, .marked_state = 0b10110,
                      .iterations = 2})});  // 9 qubits
  cases.push_back({"qaoa", circuits::qaoa_maxcut_circuit({.num_qubits = 9})});
  cases.push_back(
      {"phase_estimation",
       circuits::phase_estimation_circuit({.counting_qubits = 8})});
  cases.push_back({"supremacy", circuits::supremacy_circuit(
                                    {.rows = 3, .cols = 3, .depth = 8})});
  return cases;
}

TEST(QubitRemapTest, RemapOnMatchesRemapOffBitwiseOnAllCircuits) {
  for (auto& test_case : remap_cases()) {
    SimConfig off = small_config(test_case.circuit.num_qubits());
    SimConfig on = off;
    on.enable_qubit_remap = true;

    CompressedStateSimulator sim_off(off);
    CompressedStateSimulator sim_on(on);
    sim_off.apply_circuit(test_case.circuit);
    sim_on.apply_circuit(test_case.circuit);
    CQS_EXPECT_STATES_CLOSE(sim_on.to_raw(), sim_off.to_raw(), 0.0)
        << test_case.name;

    // Identical logical gate accounting and fidelity (lossless run).
    const auto rep_off = sim_off.report();
    const auto rep_on = sim_on.report();
    EXPECT_EQ(rep_on.gates, rep_off.gates) << test_case.name;
    EXPECT_DOUBLE_EQ(rep_on.fidelity_bound, 1.0) << test_case.name;
    EXPECT_LE(rep_on.comm_bytes, rep_off.comm_bytes) << test_case.name;
  }
}

TEST(QubitRemapTest, RemapMatchesSeedPerGatePathAndLruPolicy) {
  // Bitwise equality holds against the reference with the same fusion
  // setting: fusion itself reorders single-qubit arithmetic (a PR 2
  // property independent of remapping), so the per-gate seed path is the
  // reference for unbatched runs and the batched remap-off path for
  // batched ones.
  for (auto& test_case : remap_cases()) {
    SimConfig seed = small_config(test_case.circuit.num_qubits());
    seed.enable_run_batching = false;  // the pre-PR2 per-gate path
    seed.enable_fusion_prepass = false;
    CompressedStateSimulator per_gate_reference(seed);
    per_gate_reference.apply_circuit(test_case.circuit);
    const auto per_gate_expected = per_gate_reference.to_raw();

    CompressedStateSimulator batched_reference(
        small_config(test_case.circuit.num_qubits()));
    batched_reference.apply_circuit(test_case.circuit);
    const auto batched_expected = batched_reference.to_raw();

    for (const bool batching : {true, false}) {
      SimConfig on = small_config(test_case.circuit.num_qubits());
      on.enable_qubit_remap = true;
      on.enable_run_batching = batching;
      if (!batching) on.enable_fusion_prepass = false;
      CompressedStateSimulator sim(on);
      sim.apply_circuit(test_case.circuit);
      CQS_EXPECT_STATES_CLOSE(
          sim.to_raw(), batching ? batched_expected : per_gate_expected, 0.0)
          << test_case.name << " batching=" << batching;
    }
  }
}

TEST(QubitRemapTest, RemapBitIdenticalAcrossRankConfigs) {
  // Degenerate partitions included: at 1 rank there is no rank segment at
  // all (relabeled swaps are the only map activity), at 8 ranks the rank
  // segment is a third of the qubits.
  const auto circuit = circuits::qft_circuit({.num_qubits = 9});
  for (int ranks : {1, 2, 4, 8}) {
    SimConfig off = small_config(9, ranks, 2);
    SimConfig on = off;
    on.enable_qubit_remap = true;
    CompressedStateSimulator sim_off(off);
    CompressedStateSimulator sim_on(on);
    sim_off.apply_circuit(circuit);
    sim_on.apply_circuit(circuit);
    CQS_EXPECT_STATES_CLOSE(sim_on.to_raw(), sim_off.to_raw(), 0.0)
        << ranks << " ranks";
    EXPECT_LE(sim_on.report().comm_bytes, sim_off.report().comm_bytes)
        << ranks << " ranks";
  }
}

TEST(QubitRemapTest, RankHeavyCircuitMovesStrictlyFewerBytes) {
  // QFT's random-X prelude, H ladder, and reversal swaps all hit the rank
  // segment at 4 ranks: remap must strictly reduce exchanged bytes, with
  // the reversal swaps absorbed as relabels.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  SimConfig off = small_config(10);
  SimConfig on = off;
  on.enable_qubit_remap = true;
  CompressedStateSimulator sim_off(off);
  CompressedStateSimulator sim_on(on);
  sim_off.apply_circuit(circuit);
  sim_on.apply_circuit(circuit);
  const auto rep_off = sim_off.report();
  const auto rep_on = sim_on.report();
  ASSERT_GT(rep_off.comm_bytes, 0u);
  EXPECT_LT(rep_on.comm_bytes, rep_off.comm_bytes);
  EXPECT_LT(rep_on.comm_messages, rep_off.comm_messages);
  EXPECT_GT(rep_on.swaps_relabeled, 0u);
  EXPECT_GT(rep_on.remap_exchanges_avoided, 0u);
  EXPECT_FALSE(sim_on.qubit_map().is_identity());
}

TEST(QubitRemapTest, LossyRemapStaysWithinTheFidelityBound) {
  // At a lossy level remap-on and remap-off compress different block
  // partitions of the same state, so bitwise equality no longer holds;
  // the Eq. 11 product of both runs' bounds still floors their overlap.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  SimConfig off = small_config(10);
  off.initial_level = 1;  // 1e-5 relative
  SimConfig on = off;
  on.enable_qubit_remap = true;
  CompressedStateSimulator sim_off(off);
  CompressedStateSimulator sim_on(on);
  sim_off.apply_circuit(circuit);
  sim_on.apply_circuit(circuit);
  const double fidelity =
      qsim::state_fidelity(sim_on.to_raw(), sim_off.to_raw());
  const double floor = sim_on.report().fidelity_bound *
                       sim_off.report().fidelity_bound;
  EXPECT_GE(fidelity, floor - 1e-9);
}

TEST(QubitRemapTest, QueriesSpeakLogicalIndicesUnderRemap) {
  // X gates + reversal swaps give a known basis state; with remap on, the
  // swaps become relabels and the map goes non-identity, so
  // probability_one / measure / sample / expectation answers must all be
  // translated back to logical indices.
  SimConfig config = small_config(8);
  config.enable_qubit_remap = true;
  CompressedStateSimulator sim(config);
  qsim::Circuit c(8);
  c.x(7).x(5).x(0);
  for (int q = 0; q < 4; ++q) c.swap(q, 7 - q);
  sim.apply_circuit(c);
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
  // After a circuit whose swaps were relabeled, ad-hoc gates and resumed
  // circuits still arrive in logical coordinates.
  SimConfig config = small_config(8);
  config.enable_qubit_remap = true;
  CompressedStateSimulator remapped(config);
  CompressedStateSimulator plain(small_config(8));

  qsim::Circuit prelude(8);
  prelude.h(0).cx(0, 4).swap(0, 7).swap(1, 6);
  remapped.apply_circuit(prelude);
  plain.apply_circuit(prelude);
  ASSERT_FALSE(remapped.qubit_map().is_identity());

  remapped.apply({GateKind::kH, 7});
  plain.apply({GateKind::kH, 7});
  remapped.apply({GateKind::kCX, 6, {7, -1}});
  plain.apply({GateKind::kCX, 6, {7, -1}});
  CQS_EXPECT_STATES_CLOSE(remapped.to_raw(), plain.to_raw(), 0.0);
}

}  // namespace
}  // namespace cqs::core
