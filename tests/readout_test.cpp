// Readout: the state queries and the per-block cache of masses and Z rows
// behind them.
//
// ReadoutCacheTest pins how many blocks each query decodes and what the
// filled Z rows add to the report's scratch, and checks that every path
// that rewrites blocks leaves no stale mass or row behind: after each one,
// the Z strings, norm(), probability_one() and sample() on a simulator
// whose cache was warm before the write must return the bits of a
// simulator freshly loaded from a checkpoint of the same state (a fresh
// load has an empty cache).
//
// ReadoutPinTest pins the readout bits of the benchmark suite's four
// workloads (bench/suite/workloads.hpp, read-only here) as one SHA-256 per
// workload and seed. The seed 1-2 digests were recorded from a simulator
// without the mass cache, and the seed 3 digests and every ZStringPinTest
// digest from one without Z rows, so they show that the cache moves no
// bit. ZStringPinTest hashes every one- and two-qubit Z string and one
// over three offset qubits on each workload's final state, twice, so its
// second pass reads filled rows.
//
// StatePinTest pins what the same workloads leave right after
// apply_circuit, with sweep sharing off and on: the state and checkpoint
// image digests and every deterministic count of the report, one table row
// per workload, seed (1-3; rcs_sample 1-2, since its seed draws only its
// shots) and sharing setting. The seed 3 rows were recorded before runs
// merged across two qubits, whose digests they share. The WithoutBudget
// rows run qaoa_lossy and grover_sparse at seeds 1-2 with the budget
// removed; they were recorded while every escalation still swept the state
// on its own, before the next gate sweep paid it, and show that a run
// without a budget keeps every byte. A mismatch prints the observed row in
// table syntax, so re-recording a row is a paste.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
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

/// A Z string over three qubits whose homes are offset bits. (The dense
/// circuit relabels a SWAP of qubits 2 and 14, so qubit 2 lives in a rank
/// bit.)
constexpr std::uint64_t kThreeOffsets = 0b1011;

/// Every Z string with one or two of `qubits` qubits: the singles, then
/// the pairs (q, r), q < r.
std::vector<std::uint64_t> z_masks(int qubits) {
  std::vector<std::uint64_t> masks;
  for (int q = 0; q < qubits; ++q) masks.push_back(std::uint64_t{1} << q);
  for (int q = 0; q < qubits; ++q) {
    for (int r = q + 1; r < qubits; ++r) {
      masks.push_back((std::uint64_t{1} << q) | (std::uint64_t{1} << r));
    }
  }
  return masks;
}

/// Everything the cache serves, as bits: the z_masks(kQubits) expectations
/// and kThreeOffsets', norm(), probability_one() of every qubit and 16
/// samples.
struct Readings {
  std::vector<std::uint64_t> z;
  std::uint64_t norm = 0;
  std::vector<std::uint64_t> probability_one;
  std::vector<std::uint64_t> samples;
};

Readings read_all(CompressedStateSimulator& sim) {
  Readings r;
  for (std::uint64_t mask : z_masks(kQubits)) {
    r.z.push_back(bits(sim.expectation_pauli_z(mask)));
  }
  r.z.push_back(bits(sim.expectation_pauli_z(kThreeOffsets)));
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
  EXPECT_EQ(observed.z, expected.z);
  EXPECT_EQ(observed.norm, expected.norm);
  EXPECT_EQ(observed.probability_one, expected.probability_one);
  EXPECT_EQ(observed.samples, expected.samples);
}

/// Counts the blocks `sim` decodes: each call returns how many it decoded
/// since the previous call.
auto decode_counter(const CompressedStateSimulator& sim) {
  return [&sim, before = sim.report().decompress_invocations]() mutable {
    const std::uint64_t now = sim.report().decompress_invocations;
    return now - std::exchange(before, now);
  };
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

  /// Fills every cache slot before a write: the Z strings fill every
  /// block's Z row and mass.
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
  auto cost = decode_counter(sim);
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

TEST_F(ReadoutCacheTest, ZStringsDecodeEachBlockOncePerStore) {
  auto sim = load_dense(base_config());
  auto cost = decode_counter(sim);
  constexpr std::uint64_t kOffset = std::uint64_t{1} << kOffsetQubit;
  constexpr std::uint64_t kOffsetPair = kOffset | 0b1;
  constexpr std::uint64_t kBlockAndRank =
      (std::uint64_t{1} << kBlockQubit) | (std::uint64_t{1} << kRankQubit);
  sim.expectation_pauli_z(kBlockAndRank);
  EXPECT_EQ(cost(), std::uint64_t{kBlocks}) << "no offset bit: the masses";
  sim.expectation_pauli_z(kOffset);
  EXPECT_EQ(cost(), std::uint64_t{kBlocks}) << "a mass is not a row";
  for (std::uint64_t mask : z_masks(kQubits)) {
    sim.expectation_pauli_z(mask);
    sim.expectation_pauli_z(mask | kBlockAndRank);
    EXPECT_EQ(cost(), 0u) << "mask " << mask << " reads the rows";
  }
  sim.expectation_pauli_z(0);
  EXPECT_EQ(cost(), 0u) << "no offset bit adds the masses";
  for (int i = 0; i < 2; ++i) {
    sim.expectation_pauli_z(kThreeOffsets);
    EXPECT_EQ(cost(), std::uint64_t{kBlocks}) << "three offset bits decode";
  }
  sim.norm();
  EXPECT_EQ(cost(), 0u) << "a fill also caches the mass";
  // Controlled by a block bit: the gate rewrites half the blocks, and only
  // their rows go stale.
  sim.apply(qsim::GateOp{qsim::GateKind::kCX, kOffsetQubit, {12, -1}});
  cost();
  sim.expectation_pauli_z(kOffsetPair | kBlockAndRank);
  EXPECT_EQ(cost(), std::uint64_t{kBlocks / 2});
  sim.expectation_pauli_z(kOffset);
  EXPECT_EQ(cost(), 0u);
}

/// <Z...Z> over `mask` as the uncached loop adds it: each block's terms
/// over ascending offset, |a|^2 negated where the parity is odd, and the
/// block sums in block order from +0.0. The layout must be the identity.
double uncached_pauli_z(const std::vector<qsim::Amplitude>& amps,
                        const runtime::Partition& partition,
                        std::uint64_t mask) {
  double total = 0.0;
  for (int r = 0; r < partition.num_ranks(); ++r) {
    for (int b = 0; b < partition.blocks_per_rank(); ++b) {
      double sum = 0.0;
      for (std::uint64_t k = 0; k < partition.amplitudes_per_block(); ++k) {
        const std::uint64_t i = partition.global_index(r, b, k);
        sum += (std::popcount(i & mask) & 1 ? -1.0 : 1.0) * std::norm(amps[i]);
      }
      total += sum;
    }
  }
  return total;
}

TEST_F(ReadoutCacheTest, ZRowsAddWhatTheUncachedLoopAdds) {
  // On 2 ranks x 4 blocks: 7 offset bits (rows summed in chunks) and 3
  // (one chunk). Qubits 1 and 8 stay |0>, so half the terms and, with 7
  // offset bits, half the blocks are exact zeros.
  for (int qubits : {10, 6}) {
    SimConfig config;
    config.num_qubits = qubits;
    config.num_ranks = 2;
    config.blocks_per_rank = 4;
    config.threads = 2;
    qsim::Circuit circuit(qubits);
    const auto idle = [](int q) { return q == 1 || q == 8; };
    for (int q = 0; q < qubits; ++q) {
      if (!idle(q)) circuit.ry(q, 0.3 + 0.17 * q);
    }
    for (int q = 0; q + 2 < qubits; ++q) {
      if (!idle(q) && !idle(q + 2)) circuit.cx(q, q + 2);
    }
    CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    ASSERT_TRUE(sim.qubit_map().is_identity());
    const std::vector<qsim::Amplitude> amps = sim.to_amplitudes();
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t mask : z_masks(qubits)) {
        EXPECT_EQ(bits(sim.expectation_pauli_z(mask)),
                  bits(uncached_pauli_z(amps, sim.partition(), mask)))
            << qubits << " qubits, mask " << mask << ", pass " << pass;
      }
    }
  }
}

TEST_F(ReadoutCacheTest, ReportCountsFilledZRowsAsScratch) {
  auto sim = load_dense(base_config());
  // scratch_bytes less the codec pools: the block buffers plus the rows.
  const auto buffers_and_rows = [&] {
    const core::SimulationReport rep = sim.report();
    return rep.scratch_bytes - rep.codec_scratch_bytes;
  };
  const std::size_t buffers = buffers_and_rows();
  // The other queries never fill a row, nor do Z strings with no offset
  // bit or with three.
  sim.norm();
  Rng rng(5);
  for (int i = 0; i < 8; ++i) sim.sample(rng);
  for (int q = 0; q < kQubits; ++q) sim.probability_one(q);
  sim.expectation_pauli_z(std::uint64_t{1} << kBlockQubit);
  sim.expectation_pauli_z(kThreeOffsets);
  EXPECT_EQ(buffers_and_rows(), buffers);
  sim.expectation_pauli_z(0b11);
  // 10 offset bits: 10 single and 45 pair masks, 8 bytes each.
  EXPECT_EQ(buffers_and_rows(), buffers + std::size_t{kBlocks} * 55 * 8);
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
      {1, "4fea948cb743e68d0cd37f3af7663fafad055a7734f00bbba11aaea313151ab7"},
      {2, "bfc24fac430b9922cacb721d4f1d46bd41a610fc48309574cf79e01e5f90fc60"},
      {3, "96938e9e0a0077b78d1311183ba826b21cd1e95fb45b3bb1326f992e962683fa"},
  });
}

TEST_F(ReadoutPinTest, RcsSample) {
  expect_pins("rcs_sample", {
      {1, "ce65af9eaab44a77c117cb8dfc044c09959fdd88db57d3b92850889e5fa8fc8b"},
      {2, "d3c1d5b90b5f7eccbd2825110f6e6181316c3666a2de7403abff70d552701a93"},
      {3, "756ddc55c0f9d986b45065f211652270114e9bdf4013f205d431ef2111f10852"},
  });
}

TEST_F(ReadoutPinTest, GroverSparse) {
  expect_pins("grover_sparse", {
      {1, "8716dbc84ac354929fb8457fdc77ed3486494fee6336493d16be55029299517b"},
      {2, "4287e302ec551bf80c0e77397f78fbfac9057c6fd4e4cc1d4f04ab1e4276e850"},
      {3, "7d1058e534ac7bd10c62c4421a5f7d608e6cb57139f22d62bb42bb64fc832d6d"},
  });
}

TEST_F(ReadoutPinTest, QftOoc) {
  // qft_ooc ends in a relabeled layout (its bit-reversal SWAPs), and
  // sample() walks blocks in physical order: the shots draw other indices
  // than an executed reversal would, from the same distribution.
  expect_pins("qft_ooc", {
      {1, "ed41038874b851859cced9d1b1c8adb3a67d7017fe199932b28f9e652dfd571b"},
      {2, "68111ab5daf30c432116df9dd7e726f132745560bfe5ba60d0c46bfe21d052ac"},
      {3, "ff2b623d2c03ad714dc1ab0d691b9927dbd02f66172d1a0315a98507d5a6ee41"},
  });
}

// --- Z strings on the suite's final states, pinned across commits ----------

class ZStringPinTest : public test::TempDirFixture {
 protected:
  /// Runs the workload's circuit, then hashes two passes of: <Z_q> for
  /// every qubit, <Z_q Z_r> for every pair q < r, and the Z string over the
  /// first three logical qubits whose physical homes are offset bits.
  std::string z_digest(const std::string& name, std::uint64_t seed,
                       int threads) {
    bench::suite::Workload w =
        bench::suite::make_workload(name, seed, path(""));
    w.config.threads = threads;
    CompressedStateSimulator sim(w.config);
    sim.apply_circuit(w.circuit);

    const int qubits = w.circuit.num_qubits();
    std::vector<std::uint64_t> masks = z_masks(qubits);
    std::uint64_t three = 0;
    for (int q = 0; q < qubits && std::popcount(three) < 3; ++q) {
      if (sim.qubit_map().physical(q) < sim.partition().offset_bits) {
        three |= std::uint64_t{1} << q;
      }
    }
    masks.push_back(three);

    Sha256 digest;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t mask : masks) {
        feed(digest, bits(sim.expectation_pauli_z(mask)));
      }
    }
    return digest.hex_digest();
  }

  void expect_pins(const std::string& name,
                   const std::vector<ReadoutPin>& pins) {
    for (const ReadoutPin& pin : pins) {
      for (int threads : {1, 4}) {
        EXPECT_EQ(z_digest(name, pin.seed, threads), pin.sha256)
            << name << " seed " << pin.seed << " threads " << threads;
      }
    }
  }
};

TEST_F(ZStringPinTest, QaoaLossy) {
  expect_pins("qaoa_lossy", {
      {1, "21d53cbd3af4b88b1fa2252b3f52517dca4fa6df6dcf9666f1b7b72a6e8b9564"},
      {2, "b9ca07ac0fbf6a154f029766b69c618082b9782b91f4b38b1ef696d7986d3419"},
      {3, "c36db1d4b70a358e4250cf4de58e2e4dfd3a13bd14971c0240a7fa97e3c22c78"},
  });
}

TEST_F(ZStringPinTest, RcsSample) {
  // One seed: rcs_sample's seed draws only its shots
  // (bench/suite/workloads.hpp), so every seed leaves this state.
  expect_pins("rcs_sample", {
      {1, "519450bfbdba19ee7959d8dccb7f19ffd4cb221cd69f8ee1b01c6757e452f64d"},
  });
}

TEST_F(ZStringPinTest, GroverSparse) {
  expect_pins("grover_sparse", {
      {1, "4968318d55775a25e0e3a839cba25f35651561f127d293a7a02c37a146dfbd58"},
      {2, "efd495a3d07bbd3fda142bfcd963b5bbb120310b633309fcf1b0a7c3643a59a3"},
      {3, "7228604ecde5e592f8437d531dd92c40eb223021af857b24f10db061305c5d84"},
  });
}

TEST_F(ZStringPinTest, QftOoc) {
  expect_pins("qft_ooc", {
      {1, "d7a3b3008d65aa16c4154ad2d7346a0a0c571ca03f9e407ee028cd6cf4c3180a"},
      {2, "4b2d2ea7925ffac8c30e103233e83ef5f081be05b4827ea9e4974a4a2f5853d4"},
      {3, "fdb5ddfc8889495323099a83a82306faa2b36d938b3c425aedac3c1b60306de7"},
  });
}

// --- The suite's states and counts, pinned across commits -----------------

/// What a run leaves right after apply_circuit. 1 and 4 threads must give
/// the same row, except the peak, which is pinned at one thread: with more
/// it depends on which blocks the workers hold at once.
struct StatePin {
  std::uint64_t seed;
  bool sharing;  ///< SimConfig::enable_cache
  const char* state_sha256;  ///< to_raw() bytes
  const char* image_sha256;  ///< a checkpoint saved after the circuit
  std::uint64_t batched_runs;
  std::uint64_t lossless_compress;
  std::uint64_t lossy_compress;
  std::uint64_t lossless_decompress;
  std::uint64_t lossy_decompress;
  std::uint64_t codec_switches;
  std::uint64_t lossy_passes;
  std::uint64_t fidelity_bound_bits;
  std::uint64_t comm_bytes;
  std::uint64_t comm_messages;
  std::uint64_t spill_events;
  std::uint64_t fault_events;
  std::uint64_t sharing_hits;
  std::uint64_t sharing_misses;
  std::uint64_t ladder_level;
  std::uint64_t compressed_bytes;
  std::uint64_t peak_compressed_bytes;
};

std::string join(std::initializer_list<std::uint64_t> values) {
  std::string out;
  for (std::uint64_t v : values) {
    out += (out.empty() ? "" : ", ") + std::to_string(v);
  }
  return out;
}

std::string digest_of(const void* data, std::size_t size) {
  Sha256 digest;
  digest.update(data, size);
  return digest.hex_digest();
}

/// The pin as a table row, so a mismatch prints the row to paste.
std::string describe(const StatePin& p) {
  char bits[24];
  std::snprintf(bits, sizeof bits, "0x%016llx",
                static_cast<unsigned long long>(p.fidelity_bound_bits));
  const std::string indent = "\n       ";
  return "{" + std::to_string(p.seed) + ", " +
         (p.sharing ? "true" : "false") + "," + indent + "\"" +
         p.state_sha256 + "\"," + indent + "\"" + p.image_sha256 + "\"," +
         indent +
         join({p.batched_runs, p.lossless_compress, p.lossy_compress,
               p.lossless_decompress, p.lossy_decompress, p.codec_switches,
               p.lossy_passes}) +
         ", " + bits + "," + indent +
         join({p.comm_bytes, p.comm_messages, p.spill_events, p.fault_events,
               p.sharing_hits, p.sharing_misses}) +
         "," + indent +
         join({p.ladder_level, p.compressed_bytes, p.peak_compressed_bytes}) +
         "}";
}

class StatePinTest : public test::TempDirFixture {
 protected:
  struct Run {
    std::string state_sha256;
    std::string image_sha256;
    core::SimulationReport report;
    std::size_t compressed_bytes = 0;
  };

  /// Applies `circuit`, reads the report, then saves a checkpoint and
  /// hashes it and the state.
  Run run(SimConfig config, const qsim::Circuit& circuit, bool sharing,
          int threads) {
    config.enable_cache = sharing;
    config.threads = threads;
    CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    Run r;
    r.report = sim.report();
    r.compressed_bytes = sim.compressed_bytes();
    const std::string image = path("state.ckpt");
    sim.save_checkpoint(image);
    std::ifstream in(image, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)), {});
    r.image_sha256 = digest_of(bytes.data(), bytes.size());
    const std::vector<double> raw = sim.to_raw();
    r.state_sha256 = digest_of(raw.data(), raw.size() * sizeof(double));
    return r;
  }

  /// Runs `expected`'s row at 1 and 4 threads; each must give the row.
  void expect_row(const SimConfig& config, const qsim::Circuit& circuit,
                  const StatePin& expected, const std::string& name) {
    for (int threads : {1, 4}) {
      Run r = run(config, circuit, expected.sharing, threads);
      const core::SimulationReport& rep = r.report;
      const StatePin observed{
          expected.seed,
          expected.sharing,
          r.state_sha256.c_str(),
          r.image_sha256.c_str(),
          rep.batched_runs,
          rep.lossless_compress_invocations,
          rep.lossy_compress_invocations,
          rep.lossless_decompress_invocations,
          rep.lossy_decompress_invocations,
          rep.codec_switches,
          rep.lossy_passes,
          std::bit_cast<std::uint64_t>(rep.fidelity_bound),
          rep.comm_bytes,
          rep.comm_messages,
          rep.spill_events,
          rep.fault_events,
          rep.cache.hits,
          rep.cache.misses,
          static_cast<std::uint64_t>(rep.final_ladder_level),
          r.compressed_bytes,
          threads == 1 ? rep.peak_compressed_bytes
                       : expected.peak_compressed_bytes};
      const std::string row = describe(observed);
      EXPECT_TRUE(row == describe(expected))
          << name << " threads " << threads << " observed the row\n      "
          << row << ",\nnot\n      " << describe(expected);
    }
  }

  /// With `budget` false the workload runs with memory_budget_bytes = 0.
  void expect_rows(const std::string& name, const std::vector<StatePin>& rows,
                   bool budget = true) {
    for (const StatePin& row : rows) {
      bench::suite::Workload w =
          bench::suite::make_workload(name, row.seed, path(""));
      if (!budget) w.config.memory_budget_bytes = 0;
      expect_row(w.config, w.circuit, row, name);
    }
  }
};

// A row: seed and sharing; the state and image digests; then one line of
// batched_runs, lossless and lossy compress calls, lossless and lossy
// decompress calls, codec_switches, lossy_passes and the fidelity bound's
// bits; one line of comm_bytes, comm_messages, spill_events, fault_events
// and sharing hits and misses; and one line of the final ladder level,
// compressed_bytes() and the 1-thread peak_compressed_bytes.

TEST_F(StatePinTest, QaoaLossy) {
  expect_rows("qaoa_lossy", {
      {1, false,
       "a6943f5453cc27b28d6e6793125b6ab22aa93d9b23fd6d3c7e2bf54e1ec6f353",
       "a45c39183a1003cb3bf586a125a9b6f5115ee89aa8b5846e93f8120b7badd951",
       15, 578, 384, 640, 320, 64, 6, 0x3fefde623408b67d,
       676350, 256, 0, 0, 0, 0,
       3, 329542, 581290},
      {1, true,
       "a6943f5453cc27b28d6e6793125b6ab22aa93d9b23fd6d3c7e2bf54e1ec6f353",
       "a45c39183a1003cb3bf586a125a9b6f5115ee89aa8b5846e93f8120b7badd951",
       15, 360, 384, 422, 320, 64, 6, 0x3fefde623408b67d,
       676350, 256, 0, 0, 109, 467,
       3, 329542, 581290},
      {2, false,
       "a79f811289183a1fb05f67de9e35da2d790d3d5ec28fbfefd99c029febe3cedc",
       "5a1ff855c922e102ea6b2f9d253d0d95e42805ed9f67fef8615cc9345477df19",
       15, 578, 384, 640, 320, 64, 6, 0x3fefde623408b67d,
       672465, 256, 0, 0, 0, 0,
       3, 329540, 581290},
      {2, true,
       "a79f811289183a1fb05f67de9e35da2d790d3d5ec28fbfefd99c029febe3cedc",
       "5a1ff855c922e102ea6b2f9d253d0d95e42805ed9f67fef8615cc9345477df19",
       15, 360, 384, 422, 320, 64, 6, 0x3fefde623408b67d,
       672465, 256, 0, 0, 109, 467,
       3, 329540, 581290},
      {3, false,
       "a4404a19f20e0bd32de995d9fc032e45fb0eb9e223a2a1577974afc0da7f83c3",
       "9014b7752c303eab648027428dd36333351450c25e9c715ae51e1d4949cfc7a4",
       15, 578, 384, 640, 320, 64, 6, 0x3fefde623408b67d,
       676275, 256, 0, 0, 0, 0,
       3, 328688, 581290},
      {3, true,
       "a4404a19f20e0bd32de995d9fc032e45fb0eb9e223a2a1577974afc0da7f83c3",
       "9014b7752c303eab648027428dd36333351450c25e9c715ae51e1d4949cfc7a4",
       15, 360, 384, 422, 320, 64, 6, 0x3fefde623408b67d,
       676275, 256, 0, 0, 109, 467,
       3, 328688, 581290},
  });
}

TEST_F(StatePinTest, RcsSample) {
  expect_rows("rcs_sample", {
      {1, false,
       "b50f3decabfa813bea9491a3235d816fd6acd1a6898b29a7dd395c87f3951107",
       "9f767fec8b184a81b1c4a60e25df03b92f1e06042cd3da52f91d8fad0e10f55c",
       10, 642, 0, 640, 0, 0, 0, 0x3ff0000000000000,
       3770119, 384, 0, 0, 0, 0,
       0, 1338273, 1362278},
      {1, true,
       "b50f3decabfa813bea9491a3235d816fd6acd1a6898b29a7dd395c87f3951107",
       "9f767fec8b184a81b1c4a60e25df03b92f1e06042cd3da52f91d8fad0e10f55c",
       10, 536, 0, 534, 0, 0, 0, 0x3ff0000000000000,
       3770119, 384, 0, 0, 38, 154,
       0, 1338273, 1362278},
      {2, false,
       "b50f3decabfa813bea9491a3235d816fd6acd1a6898b29a7dd395c87f3951107",
       "9f767fec8b184a81b1c4a60e25df03b92f1e06042cd3da52f91d8fad0e10f55c",
       10, 642, 0, 640, 0, 0, 0, 0x3ff0000000000000,
       3770119, 384, 0, 0, 0, 0,
       0, 1338273, 1362278},
      {2, true,
       "b50f3decabfa813bea9491a3235d816fd6acd1a6898b29a7dd395c87f3951107",
       "9f767fec8b184a81b1c4a60e25df03b92f1e06042cd3da52f91d8fad0e10f55c",
       10, 536, 0, 534, 0, 0, 0, 0x3ff0000000000000,
       3770119, 384, 0, 0, 38, 154,
       0, 1338273, 1362278},
  });
}

TEST_F(StatePinTest, GroverSparse) {
  expect_rows("grover_sparse", {
      {1, false,
       "aa7a2fa64f5a4dc24f9ec043a527ecd6e49ba8960bf6f0544466cdff7724699a",
       "4edd917e42b13d360978ed14871382302a4deeedea8432bf3795fd043855dd08",
       41, 2114, 0, 2112, 0, 0, 0, 0x3ff0000000000000,
       9679, 384, 0, 0, 0, 0,
       0, 4155, 13300},
      {1, true,
       "aa7a2fa64f5a4dc24f9ec043a527ecd6e49ba8960bf6f0544466cdff7724699a",
       "4edd917e42b13d360978ed14871382302a4deeedea8432bf3795fd043855dd08",
       41, 563, 0, 561, 0, 0, 0, 0x3ff0000000000000,
       9679, 384, 0, 0, 1025, 351,
       0, 4155, 13300},
      {2, false,
       "157263ea437a7d5ccf4286fb36e4bab74f481a14d81dd74aeb8b42822f4541ff",
       "c96db9fded00f8796eba7c307641f3fd6926126992fa717e33185eb0a20a3011",
       41, 2114, 0, 2112, 0, 0, 0, 0x3ff0000000000000,
       9796, 384, 0, 0, 0, 0,
       0, 4237, 15533},
      {2, true,
       "157263ea437a7d5ccf4286fb36e4bab74f481a14d81dd74aeb8b42822f4541ff",
       "c96db9fded00f8796eba7c307641f3fd6926126992fa717e33185eb0a20a3011",
       41, 563, 0, 561, 0, 0, 0, 0x3ff0000000000000,
       9796, 384, 0, 0, 1025, 351,
       0, 4237, 15533},
      {3, false,
       "6c92a01358ed4452eb2193ce9f61091955237e29e614e35adcbb16b7dff326a1",
       "9dd806b21b1fff3ca02b368d3bfdb810f6738c8e3a1c12aa3725001e5c47c6b7",
       41, 2114, 0, 2112, 0, 0, 0, 0x3ff0000000000000,
       9655, 384, 0, 0, 0, 0,
       0, 4180, 14304},
      {3, true,
       "6c92a01358ed4452eb2193ce9f61091955237e29e614e35adcbb16b7dff326a1",
       "9dd806b21b1fff3ca02b368d3bfdb810f6738c8e3a1c12aa3725001e5c47c6b7",
       41, 563, 0, 561, 0, 0, 0, 0x3ff0000000000000,
       9655, 384, 0, 0, 1025, 351,
       0, 4180, 14304},
  });
}

// The two budgeted workloads with the budget removed: no level is ever
// raised, and runs merge across two qubits. What the ladder does under a
// budget must leave these rows alone.
TEST_F(StatePinTest, QaoaLossyWithoutBudget) {
  expect_rows("qaoa_lossy", {
      {1, false,
       "06257c9237a11bd3283b2b0f143a8f6d9c97a874a607660e07663289ef561702",
       "aba4527dfbfc4e71a7ac92f05a73b2421aa5be6f66c2546b3a0f743ed8546e75",
       6, 386, 0, 384, 0, 0, 0, 0x3ff0000000000000,
       2103134, 256, 0, 0, 0, 0,
       0, 1048960, 1048960},
      {1, true,
       "06257c9237a11bd3283b2b0f143a8f6d9c97a874a607660e07663289ef561702",
       "aba4527dfbfc4e71a7ac92f05a73b2421aa5be6f66c2546b3a0f743ed8546e75",
       6, 294, 0, 292, 0, 0, 0, 0x3ff0000000000000,
       2103134, 256, 0, 0, 23, 105,
       0, 1048960, 1048960},
      {2, false,
       "1c3b2439dcb0ab4e5f674d1616f6e3081cee276aefb2b70a6bff0b21203cffc7",
       "e2536a870fd1766b10b078ce623245301f554ce7ea646d0cf8bb4795e8e7e6de",
       7, 450, 0, 448, 0, 0, 0, 0x3ff0000000000000,
       2103134, 256, 0, 0, 0, 0,
       0, 1048960, 1048960},
      {2, true,
       "1c3b2439dcb0ab4e5f674d1616f6e3081cee276aefb2b70a6bff0b21203cffc7",
       "e2536a870fd1766b10b078ce623245301f554ce7ea646d0cf8bb4795e8e7e6de",
       7, 358, 0, 356, 0, 0, 0, 0x3ff0000000000000,
       2103134, 256, 0, 0, 23, 121,
       0, 1048960, 1048960},
  }, false);
}

TEST_F(StatePinTest, GroverSparseWithoutBudget) {
  expect_rows("grover_sparse", {
      {1, false,
       "aa7a2fa64f5a4dc24f9ec043a527ecd6e49ba8960bf6f0544466cdff7724699a",
       "4edd917e42b13d360978ed14871382302a4deeedea8432bf3795fd043855dd08",
       41, 2114, 0, 2112, 0, 0, 0, 0x3ff0000000000000,
       9679, 384, 0, 0, 0, 0,
       0, 4155, 13300},
      {1, true,
       "aa7a2fa64f5a4dc24f9ec043a527ecd6e49ba8960bf6f0544466cdff7724699a",
       "4edd917e42b13d360978ed14871382302a4deeedea8432bf3795fd043855dd08",
       41, 563, 0, 561, 0, 0, 0, 0x3ff0000000000000,
       9679, 384, 0, 0, 1025, 351,
       0, 4155, 13300},
      {2, false,
       "157263ea437a7d5ccf4286fb36e4bab74f481a14d81dd74aeb8b42822f4541ff",
       "c96db9fded00f8796eba7c307641f3fd6926126992fa717e33185eb0a20a3011",
       41, 2114, 0, 2112, 0, 0, 0, 0x3ff0000000000000,
       9796, 384, 0, 0, 0, 0,
       0, 4237, 15533},
      {2, true,
       "157263ea437a7d5ccf4286fb36e4bab74f481a14d81dd74aeb8b42822f4541ff",
       "c96db9fded00f8796eba7c307641f3fd6926126992fa717e33185eb0a20a3011",
       41, 563, 0, 561, 0, 0, 0, 0x3ff0000000000000,
       9796, 384, 0, 0, 1025, 351,
       0, 4237, 15533},
  }, false);
}

TEST_F(StatePinTest, QftOoc) {
  expect_rows("qft_ooc", {
      {1, false,
       "a4da9bccecb95cc43e470018f467d860f621271feb7b08d9bb291ae73b673b50",
       "4c2a089e182a7dd7b601c5e65dc700316fd82a394ceb4d61ddc17747b90be52a",
       8, 514, 0, 512, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 0, 0,
       0, 1042273, 1047454},
      {1, true,
       "a4da9bccecb95cc43e470018f467d860f621271feb7b08d9bb291ae73b673b50",
       "4c2a089e182a7dd7b601c5e65dc700316fd82a394ceb4d61ddc17747b90be52a",
       8, 392, 0, 390, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 45, 179,
       0, 1042273, 1047454},
      {2, false,
       "f7138a98ad61763621e6476b0007397619009b93ec6a8e40fcd45cb122a972bf",
       "27ef5d122139febba0e88ea028f99d11cd5fb4234e07c19ce99e7a0f09cf2845",
       8, 514, 0, 512, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 0, 0,
       0, 1042273, 1047454},
      {2, true,
       "f7138a98ad61763621e6476b0007397619009b93ec6a8e40fcd45cb122a972bf",
       "27ef5d122139febba0e88ea028f99d11cd5fb4234e07c19ce99e7a0f09cf2845",
       8, 392, 0, 390, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 45, 179,
       0, 1042273, 1047454},
      {3, false,
       "d7371e2de4d751f8c77c068c13cfdb98c4aefa909013890f218111498a131ffa",
       "19ef369cd332ec5aad1b77704dba98f288f86059fbb493c3a3dffae5958aab64",
       8, 514, 0, 512, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 0, 0,
       0, 1042273, 1047454},
      {3, true,
       "d7371e2de4d751f8c77c068c13cfdb98c4aefa909013890f218111498a131ffa",
       "19ef369cd332ec5aad1b77704dba98f288f86059fbb493c3a3dffae5958aab64",
       8, 392, 0, 390, 0, 0, 0, 0x3ff0000000000000,
       2890, 192, 319, 255, 45, 179,
       0, 1042273, 1047454},
  });
}

}  // namespace
}  // namespace cqs
