// Codec arbiter: block statistics, policy parsing, the adaptive decision
// rule with hysteresis, and the simulator-level behavior — per-block codec
// mix, fidelity accounting that only charges lossy-written blocks, and
// cache interplay.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/supremacy.hpp"
#include "compression/compressor.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"
#include "runtime/codec_arbiter.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;
using runtime::ArbiterConfig;
using runtime::BlockStats;
using runtime::CodecPolicy;
using runtime::compute_block_stats;
using runtime::decide_lossless;

TEST(BlockStatsTest, AllZeros) {
  const std::vector<double> zeros(128, 0.0);
  const BlockStats stats = compute_block_stats(zeros);
  EXPECT_DOUBLE_EQ(stats.zero_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.spikiness, 0.0);
  EXPECT_DOUBLE_EQ(stats.dynamic_range, 0.0);
}

TEST(BlockStatsTest, EmptyBlockCountsAsAllZero) {
  const BlockStats stats = compute_block_stats({});
  EXPECT_DOUBLE_EQ(stats.zero_fraction, 1.0);
}

TEST(BlockStatsTest, UniformMagnitudesHaveZeroDynamicRange) {
  std::vector<double> data(64, 0.25);
  data[3] = -0.25;  // sign must not affect magnitude statistics
  const BlockStats stats = compute_block_stats(data);
  EXPECT_DOUBLE_EQ(stats.zero_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.spikiness, 1.0);
  EXPECT_DOUBLE_EQ(stats.dynamic_range, 0.0);
}

TEST(BlockStatsTest, KnownMixedBlock) {
  // 4 zeros, nonzeros {1, 1, 2, 8}: zf = 0.5, mean = 3, max/mean = 8/3,
  // range = log2(8/1) = 3 bits.
  const std::vector<double> data = {0, 1, 0, -1, 2, 0, -8, 0};
  const BlockStats stats = compute_block_stats(data);
  EXPECT_DOUBLE_EQ(stats.zero_fraction, 0.5);
  EXPECT_DOUBLE_EQ(stats.spikiness, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.dynamic_range, 3.0);
}

TEST(BlockStatsTest, SpikyGeneratorReadsAsWideDynamicRange) {
  const auto spiky = test::spiky_qaoa_like(1024, 7);
  const auto dense = test::dense_supremacy_like(1024, 7);
  // The QAOA-like generator spans ~20 binary orders of magnitude; the
  // Porter-Thomas-like one is comparatively flat.
  EXPECT_GT(compute_block_stats(spiky).spikiness,
            compute_block_stats(dense).spikiness);
}

TEST(CodecPolicyTest, ParsesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(runtime::parse_codec_policy("fixed"), CodecPolicy::kFixed);
  EXPECT_EQ(runtime::parse_codec_policy("adaptive"), CodecPolicy::kAdaptive);
  EXPECT_THROW(runtime::parse_codec_policy("oracle"), std::invalid_argument);
  EXPECT_THROW(runtime::parse_codec_policy(""), std::invalid_argument);
}

TEST(CodecIdTest, StableRoundTrip) {
  // Ids are an on-disk format (checkpoint v3): the mapping must stay put.
  EXPECT_EQ(compression::codec_id("zstd"), compression::kLosslessCodecId);
  for (const auto& name : compression::compressor_names()) {
    EXPECT_EQ(compression::codec_name_of(compression::codec_id(name)), name);
  }
  EXPECT_THROW(compression::codec_id("nope"), std::invalid_argument);
  EXPECT_THROW(compression::codec_name_of(250), std::invalid_argument);
}

TEST(CodecArbiterTest, LevelZeroIsAlwaysLossless) {
  const std::vector<double> dense = test::dense_supremacy_like(128, 1);
  EXPECT_TRUE(decide_lossless({.policy = CodecPolicy::kFixed}, 0, dense,
                              /*was_lossless=*/false));
}

TEST(CodecArbiterTest, FixedPolicyAlwaysPicksLossyAboveLevelZero) {
  const std::vector<double> zeros(128, 0.0);  // even decisively sparse data
  EXPECT_FALSE(decide_lossless({.policy = CodecPolicy::kFixed}, 1, zeros,
                               /*was_lossless=*/true));
}

TEST(CodecArbiterTest, AdaptiveRoutesByBlockStructure) {
  const ArbiterConfig config{.policy = CodecPolicy::kAdaptive};
  const std::vector<double> zeros(128, 0.0);
  const std::vector<double> uniform(128, 0.1);  // dr = 0: repeated patterns
  const auto dense = test::dense_supremacy_like(128, 2);
  // Decisive blocks route the same whichever codec they hold.
  for (bool was_lossless : {false, true}) {
    EXPECT_TRUE(decide_lossless(config, 2, zeros, was_lossless));
    EXPECT_TRUE(decide_lossless(config, 2, uniform, was_lossless));
    EXPECT_FALSE(decide_lossless(config, 2, dense, was_lossless));
  }
}

TEST(CodecArbiterTest, HysteresisStopsThrashingAtTheBoundary) {
  ArbiterConfig config;
  config.policy = CodecPolicy::kAdaptive;
  config.zero_fraction_threshold = 0.5;
  config.dynamic_range_threshold = 0.0;
  config.hysteresis = 0.1;

  // Just above/below the raw threshold, inside the +-0.1 band: 66 nonzero
  // of 128 (zf = 0.484) vs 62 nonzero (zf = 0.516). Without hysteresis a
  // block alternating between the two would flip codec every pass; with
  // it, a block keeps the codec it holds.
  auto with_nonzeros = [](int nonzeros) {
    std::vector<double> data(128, 0.0);
    for (int i = 0; i < nonzeros; ++i) data[i] = 1.0 + i;  // wide range
    return data;
  };
  for (bool was_lossless : {false, true}) {
    for (int nonzeros : {62, 66}) {
      EXPECT_EQ(
          decide_lossless(config, 1, with_nonzeros(nonzeros), was_lossless),
          was_lossless)
          << nonzeros << " nonzeros";
    }
  }

  // A decisive move outside the band does flip.
  EXPECT_TRUE(decide_lossless(config, 1, with_nonzeros(8), false));
  EXPECT_FALSE(decide_lossless(config, 1, with_nonzeros(120), true));
}

// --- Simulator-level behavior -------------------------------------------

SimConfig adaptive_config(int qubits, int ranks = 2, int blocks = 4) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.codec_policy = "adaptive";
  return config;
}

TEST(AdaptiveSimulatorTest, SparseCircuitStaysExactAtALossyLevel) {
  // A GHZ ladder's states are always sparse with uniform magnitudes: the
  // arbiter routes all passes lossless, so even at a lossy level the state
  // is exact and no fidelity is charged.
  qsim::Circuit circuit(8);
  circuit.h(0);
  for (int q = 1; q < 8; ++q) circuit.cx(q - 1, q);
  SimConfig config = adaptive_config(circuit.num_qubits());
  config.initial_level = 2;
  CompressedStateSimulator adaptive(config);
  adaptive.apply_circuit(circuit);

  SimConfig lossless_config = adaptive_config(circuit.num_qubits());
  lossless_config.codec_policy = "fixed";
  CompressedStateSimulator reference(lossless_config);  // level 0: exact
  reference.apply_circuit(circuit);

  const auto report = adaptive.report();
  EXPECT_EQ(report.lossy_compress_invocations, 0u);
  EXPECT_EQ(report.lossy_passes, 0u);
  EXPECT_DOUBLE_EQ(report.fidelity_bound, 1.0);
  CQS_EXPECT_STATES_CLOSE(adaptive.to_raw(), reference.to_raw(), 0.0);
}

TEST(AdaptiveSimulatorTest, DenseCircuitUsesTheLossyCodecWithinBound) {
  const auto circuit =
      circuits::supremacy_circuit({.rows = 2, .cols = 5, .depth = 8});
  SimConfig config = adaptive_config(10);
  config.initial_level = 1;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  EXPECT_GT(report.lossy_compress_invocations, 0u);
  EXPECT_GT(report.lossy_passes, 0u);

  CompressedStateSimulator reference(adaptive_config(10));
  reference.apply_circuit(circuit);
  EXPECT_GE(qsim::state_fidelity(sim.to_raw(), reference.to_raw()),
            report.fidelity_bound - 1e-12);
}

TEST(AdaptiveSimulatorTest, MixedBlockCodecsCoexistAndCensusAddsUp) {
  // Grover at 2 ranks x 2 blocks over 8 qubits: the occupied block is
  // dense-with-noise (lossy) while the ancilla blocks stay lossless.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 5, .marked_state = 0b01011, .iterations = 2});
  SimConfig config = adaptive_config(circuit.num_qubits(), 2, 2);
  config.initial_level = 1;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  EXPECT_EQ(report.final_lossless_blocks + report.final_lossy_blocks, 4u);
  EXPECT_EQ(report.final_lossless_bytes + report.final_lossy_bytes,
            sim.compressed_bytes());
  EXPECT_EQ(report.codec_policy, "adaptive");
  EXPECT_GT(report.lossless_compress_invocations, 0u);
}

TEST(AdaptiveSimulatorTest, CacheHitsPreserveBlockCodecIdentity) {
  // The same circuit with and without the block cache must produce
  // identical states AND identical final codec assignments: a unit that
  // stores a shared output takes the codec that output was written with,
  // not one derived from the level.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 5, .marked_state = 0b00111, .iterations = 2});
  std::vector<double> reference;
  std::uint64_t reference_lossless = 0;
  for (bool cache : {false, true}) {
    SimConfig config = adaptive_config(circuit.num_qubits());
    config.initial_level = 1;
    config.enable_cache = cache;
    CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = sim.report();
    if (!cache) {
      reference = sim.to_raw();
      reference_lossless = report.final_lossless_blocks;
    } else {
      CQS_EXPECT_STATES_CLOSE(sim.to_raw(), reference, 0.0);
      EXPECT_EQ(report.final_lossless_blocks, reference_lossless);
    }
  }
}

TEST(AdaptiveSimulatorTest, FixedPolicyReportsNoLosslessChoicesAboveLevel0) {
  const auto circuit =
      circuits::supremacy_circuit({.rows = 2, .cols = 4, .depth = 6});
  SimConfig config = adaptive_config(8);
  config.codec_policy = "fixed";
  config.initial_level = 1;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  // Init happens at level 1 too, so every block a fixed-policy lossy run
  // compressed went through the lossy codec.
  EXPECT_EQ(report.lossless_compress_invocations, 0u);
  EXPECT_GT(report.lossy_compress_invocations, 0u);
  EXPECT_EQ(report.final_lossless_blocks, 0u);
}

}  // namespace
}  // namespace cqs
