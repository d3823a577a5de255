// Readout: the state queries and the per-block mass cache behind them.
//
// ReadoutCacheTest pins how many blocks each query decodes, and checks
// that every path that rewrites blocks leaves no stale mass behind: after
// each one, norm(), probability_one() and sample() on a simulator whose
// cache was warm before the write must return the bits of a simulator
// freshly loaded from a checkpoint of the same state (a fresh load has an
// empty cache).
//
// ReadoutPinTest pins the readout bits of the benchmark suite's four
// workloads (bench/suite/workloads.hpp, read-only here) as one SHA-256 per
// workload and seed. The digests were recorded from a simulator without
// the cache, so they show that the cache moves no bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "../bench/suite/workloads.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;

// 16 qubits on 4 ranks x 16 blocks: qubits 0-9 are offset bits, 10-13
// block bits and 14-15 rank bits.
constexpr int kQubits = 16;
constexpr int kBlocks = 64;
constexpr int kOffsetQubit = 3;
constexpr int kBlockQubit = 11;
constexpr int kRankQubit = 15;

SimConfig base_config() {
  SimConfig config;
  config.num_qubits = kQubits;
  config.num_ranks = 4;
  config.blocks_per_rank = 16;
  config.threads = 2;
  return config;
}

/// A dense state: one RY per qubit, then a random mixer over all three
/// segments. No two blocks are equal, so no sweep shares.
qsim::Circuit dense_circuit() {
  qsim::Circuit circuit(kQubits);
  for (int q = 0; q < kQubits; ++q) circuit.ry(q, 0.3 + 0.17 * q);
  const qsim::Circuit mixer = test::random_circuit(kQubits, 40, 83);
  for (const auto& op : mixer.ops()) circuit.append(op);
  return circuit;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Everything the cache serves, as bits: norm(), probability_one() of
/// every qubit and 16 samples.
struct Readings {
  std::uint64_t norm = 0;
  std::vector<std::uint64_t> probability_one;
  std::vector<std::uint64_t> samples;
};

Readings read_all(CompressedStateSimulator& sim) {
  Readings r;
  r.norm = bits(sim.norm());
  for (int q = 0; q < kQubits; ++q) {
    r.probability_one.push_back(bits(sim.probability_one(q)));
  }
  Rng rng(17);
  for (int i = 0; i < 16; ++i) r.samples.push_back(sim.sample(rng));
  return r;
}

/// `sim` must read the bits `reference` reads.
void expect_same_readings(CompressedStateSimulator& sim,
                          CompressedStateSimulator& reference) {
  const Readings expected = read_all(reference);
  const Readings observed = read_all(sim);
  EXPECT_EQ(observed.norm, expected.norm);
  EXPECT_EQ(observed.probability_one, expected.probability_one);
  EXPECT_EQ(observed.samples, expected.samples);
}

std::uint64_t decodes(const CompressedStateSimulator& sim) {
  return sim.report().decompress_invocations;
}

class ReadoutCacheTest : public test::TempDirFixture {
 protected:
  /// The dense state, saved once per test and loaded with `config`.
  CompressedStateSimulator load_dense(const SimConfig& config) {
    const std::string file = path("dense.ckpt");
    if (!std::filesystem::exists(file)) {
      CompressedStateSimulator sim(base_config());
      sim.apply_circuit(dense_circuit());
      sim.save_checkpoint(file);
    }
    return CompressedStateSimulator::load_checkpoint(file, config);
  }

  /// Fills every cache slot before a write: norm() reads every block.
  static void warm(CompressedStateSimulator& sim) { read_all(sim); }

  /// `sim`'s readings must equal those of a fresh load of its state.
  void expect_matches_fresh_load(CompressedStateSimulator& sim,
                                 SimConfig config) {
    const std::string file = path("after.ckpt");
    sim.save_checkpoint(file);
    if (!config.spill_path.empty()) config.spill_path = path("fresh.spill");
    auto fresh = CompressedStateSimulator::load_checkpoint(file, config);
    expect_same_readings(sim, fresh);
  }
};

TEST_F(ReadoutCacheTest, EachQueryDecodesOnlyBlocksWithoutACachedMass) {
  auto sim = load_dense(base_config());
  std::uint64_t before = decodes(sim);
  auto cost = [&] {
    const std::uint64_t now = decodes(sim);
    const std::uint64_t delta = now - before;
    before = now;
    return delta;
  };
  const double first = sim.norm();
  EXPECT_EQ(cost(), std::uint64_t{kBlocks}) << "first norm() decodes all";
  EXPECT_EQ(bits(sim.norm()), bits(first));
  EXPECT_EQ(cost(), 0u) << "second norm() is served by the cache";
  Rng rng(9);
  for (int i = 0; i < 32; ++i) sim.sample(rng);
  EXPECT_EQ(cost(), 32u) << "each shot decodes only its chosen block";
  sim.probability_one(kBlockQubit);
  EXPECT_EQ(cost(), 0u) << "a block qubit sums cached masses";
  sim.probability_one(kRankQubit);
  EXPECT_EQ(cost(), 0u) << "a rank qubit sums cached masses";
  sim.probability_one(kOffsetQubit);
  EXPECT_EQ(cost(), std::uint64_t{kBlocks}) << "an offset qubit decodes all";
  // Controlled by a block bit: the gate rewrites half the blocks, and only
  // their masses go stale.
  sim.apply(qsim::GateOp{qsim::GateKind::kCX, kOffsetQubit, {12, -1}});
  cost();
  sim.norm();
  EXPECT_EQ(cost(), std::uint64_t{kBlocks / 2});
}

TEST_F(ReadoutCacheTest, UnitRunLeavesNoStaleMass) {
  auto sim = load_dense(base_config());
  warm(sim);
  qsim::Circuit run(kQubits);
  run.h(0).ry(4, 0.7).cx(2, 7).h(9).rz(5, 0.4).cz(12, 1);
  sim.apply_circuit(run);
  expect_matches_fresh_load(sim, base_config());
}

TEST_F(ReadoutCacheTest, PairRunAcrossABlockQubitLeavesNoStaleMass) {
  auto sim = load_dense(base_config());
  warm(sim);
  qsim::Circuit run(kQubits);
  run.h(1).h(kBlockQubit).ry(kBlockQubit, 0.9).cx(kBlockQubit, 4);
  sim.apply_circuit(run);
  expect_matches_fresh_load(sim, base_config());
}

TEST_F(ReadoutCacheTest, PairRunAcrossARankQubitLeavesNoStaleMass) {
  auto sim = load_dense(base_config());
  warm(sim);
  const std::uint64_t comm_before = sim.report().comm_bytes;
  qsim::Circuit run(kQubits);
  run.h(2).h(kRankQubit).ry(kRankQubit, 0.9).cx(kRankQubit, 6);
  sim.apply_circuit(run);
  EXPECT_GT(sim.report().comm_bytes, comm_before) << "the pairs cross ranks";
  expect_matches_fresh_load(sim, base_config());
}

TEST_F(ReadoutCacheTest, RemapSweepLeavesNoStaleMass) {
  SimConfig config = base_config();
  config.enable_qubit_remap = true;
  auto sim = load_dense(config);
  warm(sim);
  qsim::Circuit circuit(kQubits);
  for (int i = 0; i < 4; ++i) {
    circuit.h(kRankQubit).ry(14, 0.3 + 0.1 * i).cx(kRankQubit, 14);
  }
  sim.apply_circuit(circuit);
  EXPECT_GT(sim.report().remap_sweeps, 0u);
  expect_matches_fresh_load(sim, config);
}

TEST_F(ReadoutCacheTest, SharedCopiesLeaveNoStaleMass) {
  // A uniform superposition over the offset bits and block bits 10-11:
  // rank 0's blocks 0-3 are equal and every other block is zero, so pairs
  // across block bit 10 share their outputs and store copies.
  SimConfig config = base_config();
  config.enable_cache = true;
  CompressedStateSimulator sim(config);
  qsim::Circuit prelude(kQubits);
  for (int q = 0; q <= 11; ++q) prelude.h(q);
  sim.apply_circuit(prelude);
  warm(sim);
  const std::uint64_t hits_before = sim.report().cache.hits;
  sim.apply(qsim::GateOp{qsim::GateKind::kH, 10, {-1, -1}});
  EXPECT_GT(sim.report().cache.hits, hits_before) << "the sweep shares";
  expect_matches_fresh_load(sim, config);
}

TEST_F(ReadoutCacheTest, LadderRecompressionLeavesNoStaleMass) {
  // The dense state is lossless; half its compressed size as the budget
  // makes the next gate escalate the ladder and recompress every block
  // with qzc, the gate's untouched half included.
  SimConfig config = base_config();
  config.codec = "qzc";
  std::size_t lossless_bytes = 0;
  {
    auto probe = load_dense(config);
    lossless_bytes = probe.compressed_bytes();
  }
  config.memory_budget_bytes = lossless_bytes / 2;
  auto sim = load_dense(config);
  ASSERT_EQ(sim.ladder_level(), 0);
  warm(sim);
  sim.apply(qsim::GateOp{qsim::GateKind::kCX, kOffsetQubit, {12, -1}});
  EXPECT_GT(sim.ladder_level(), 0);
  EXPECT_GT(sim.report().lossy_passes, 0u);
  expect_matches_fresh_load(sim, config);
}

TEST_F(ReadoutCacheTest, MeasurementLeavesNoStaleMass) {
  for (int qubit : {kBlockQubit, kOffsetQubit, kRankQubit}) {
    auto sim = load_dense(base_config());
    warm(sim);
    Rng rng(static_cast<std::uint64_t>(qubit));
    sim.measure(qubit, rng);
    expect_matches_fresh_load(sim, base_config());
  }
}

TEST_F(ReadoutCacheTest, SpillTierLeavesNoStaleMass) {
  SimConfig config = base_config();
  config.spill_path = path("state.spill");
  config.resident_budget_bytes = 4096;
  auto sim = load_dense(config);
  warm(sim);
  qsim::Circuit run(kQubits);
  run.h(kBlockQubit).h(0).cx(kBlockQubit, 5);
  sim.apply_circuit(run);
  const core::SimulationReport report = sim.report();
  EXPECT_GT(report.spill_events, 0u);
  EXPECT_GT(report.fault_events, 0u);
  expect_matches_fresh_load(sim, config);
}

TEST_F(ReadoutCacheTest, LoadCheckpointReplacesTheCache) {
  // Another state, saved while `sim` holds a warm cache of the dense one;
  // loading it over `sim` must not keep a dense-state mass.
  const std::string other = path("other.ckpt");
  {
    auto source = load_dense(base_config());
    source.apply(qsim::GateOp{qsim::GateKind::kH, kRankQubit, {-1, -1}});
    source.save_checkpoint(other);
  }
  auto sim = load_dense(base_config());
  warm(sim);
  sim = CompressedStateSimulator::load_checkpoint(other, base_config());
  auto fresh = CompressedStateSimulator::load_checkpoint(other, base_config());
  expect_same_readings(sim, fresh);
}

// --- The suite's readout bits, pinned across commits ----------------------

/// Appends a 64-bit value to the digest, least significant byte first.
void feed(Sha256& digest, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  digest.update(bytes, sizeof bytes);
}

void feed_samples(Sha256& digest, CompressedStateSimulator& sim, Rng& rng,
                  int shots) {
  for (int i = 0; i < shots; ++i) feed(digest, sim.sample(rng));
}

/// The digest recorded for one seed; 1 and 4 threads must both give it.
struct ReadoutPin {
  std::uint64_t seed;
  const char* sha256;
};

class ReadoutPinTest : public test::TempDirFixture {
 protected:
  /// Runs the workload's circuit, then hashes in order: every <Z_u Z_v>,
  /// norm(), 32 samples from the workload's sample seed, probability_one()
  /// of every qubit, the outcome of measuring the top qubit with
  /// Rng(seed) followed by norm() and 8 more samples from that Rng, and
  /// norm() plus 8 samples from the sample seed after a save and reload.
  std::string readout_digest(const std::string& name, std::uint64_t seed,
                             int threads) {
    bench::suite::Workload w =
        bench::suite::make_workload(name, seed, path(""));
    w.config.threads = threads;
    CompressedStateSimulator sim(w.config);
    sim.apply_circuit(w.circuit);

    Sha256 digest;
    for (const auto& [u, v] : w.zz_pairs) {
      feed(digest, bits(sim.expectation_pauli_z((std::uint64_t{1} << u) |
                                                (std::uint64_t{1} << v))));
    }
    feed(digest, bits(sim.norm()));
    Rng shots(w.sample_seed);
    feed_samples(digest, sim, shots, 32);
    const int qubits = w.circuit.num_qubits();
    for (int q = 0; q < qubits; ++q) {
      feed(digest, bits(sim.probability_one(q)));
    }
    Rng collapse(seed);
    feed(digest, static_cast<std::uint64_t>(sim.measure(qubits - 1, collapse)));
    feed(digest, bits(sim.norm()));
    feed_samples(digest, sim, collapse, 8);

    const std::string image = path("pin.ckpt");
    sim.save_checkpoint(image);
    auto reloaded = CompressedStateSimulator::load_checkpoint(image, w.config);
    feed(digest, bits(reloaded.norm()));
    Rng reload_shots(w.sample_seed);
    feed_samples(digest, reloaded, reload_shots, 8);
    return digest.hex_digest();
  }

  void expect_pins(const std::string& name,
                   const std::vector<ReadoutPin>& pins) {
    for (const ReadoutPin& pin : pins) {
      for (int threads : {1, 4}) {
        EXPECT_EQ(readout_digest(name, pin.seed, threads), pin.sha256)
            << name << " seed " << pin.seed << " threads " << threads;
      }
    }
  }
};

TEST_F(ReadoutPinTest, QaoaLossy) {
  expect_pins("qaoa_lossy", {
      {1, "3f5ec2b66454eaaf9d7cbaeb3a032df09105d23e8c7b2e1c6c8738bab18a3be3"},
      {2, "eee728db06178cd777da6241a11a020648532882c4e2d792d975b8ff0af6e691"},
  });
}

TEST_F(ReadoutPinTest, RcsSample) {
  expect_pins("rcs_sample", {
      {1, "ce65af9eaab44a77c117cb8dfc044c09959fdd88db57d3b92850889e5fa8fc8b"},
      {2, "d3c1d5b90b5f7eccbd2825110f6e6181316c3666a2de7403abff70d552701a93"},
  });
}

TEST_F(ReadoutPinTest, GroverSparse) {
  expect_pins("grover_sparse", {
      {1, "8716dbc84ac354929fb8457fdc77ed3486494fee6336493d16be55029299517b"},
      {2, "4287e302ec551bf80c0e77397f78fbfac9057c6fd4e4cc1d4f04ab1e4276e850"},
  });
}

TEST_F(ReadoutPinTest, QftOoc) {
  expect_pins("qft_ooc", {
      {1, "f7f35b340cc5bdbb64aa4641086492d87aea833f0f90fb201af93ab1411d07eb"},
      {2, "5131a7e2fb490d5fea9f7ac84e05127061d6766c9799f4da05424eb43da200b8"},
  });
}

}  // namespace
}  // namespace cqs
