// Golden-state regression suite: exact pinned amplitudes for GHZ-8,
// QFT-8, and Grover-10 under lossless simulation, fidelity floors under
// every lossy codec x ladder level, and byte-exact pins of every sweep
// that rewrites compressed blocks — so codec, scheduler or executor
// refactors can't silently drift states. The amplitude cases run under
// both the fixed and the adaptive codec policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "compression/compressor.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "qsim/state_vector.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;

qsim::Circuit ghz_circuit(int qubits) {
  qsim::Circuit c(qubits);
  c.h(0);
  for (int q = 1; q < qubits; ++q) c.cx(q - 1, q);
  return c;
}

SimConfig golden_config(int qubits, const std::string& policy) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.codec_policy = policy;
  return config;
}

std::vector<std::complex<double>> run_lossless(const qsim::Circuit& circuit,
                                               const std::string& policy) {
  CompressedStateSimulator sim(
      golden_config(circuit.num_qubits(), policy));
  sim.apply_circuit(circuit);
  const auto raw = sim.to_raw();
  std::vector<std::complex<double>> amps(raw.size() / 2);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    amps[i] = {raw[2 * i], raw[2 * i + 1]};
  }
  return amps;
}

class GoldenPolicyTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(BothPolicies, GoldenPolicyTest,
                         ::testing::Values("fixed", "adaptive"));

TEST_P(GoldenPolicyTest, Ghz8ExactAmplitudes) {
  const auto amps = run_lossless(ghz_circuit(8), GetParam());
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  ASSERT_EQ(amps.size(), 256u);
  EXPECT_NEAR(amps[0].real(), inv_sqrt2, 1e-15);
  EXPECT_NEAR(amps[255].real(), inv_sqrt2, 1e-15);
  EXPECT_EQ(amps[0].imag(), 0.0);
  EXPECT_EQ(amps[255].imag(), 0.0);
  for (std::size_t i = 1; i < 255; ++i) {
    // Structural zeros are exact: H and CX never touch these amplitudes.
    EXPECT_EQ(amps[i], std::complex<double>(0.0, 0.0)) << "index " << i;
  }
}

TEST_P(GoldenPolicyTest, Qft8ExactAmplitudes) {
  // QFT of |0...0> is the uniform superposition with ALL phases +1:
  // every amplitude is exactly 2^-4 up to rounding of the H cascade.
  const auto amps = run_lossless(
      circuits::qft_circuit({.num_qubits = 8, .random_input = false}),
      GetParam());
  ASSERT_EQ(amps.size(), 256u);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    EXPECT_NEAR(amps[i].real(), 0.0625, 1e-14) << "index " << i;
    EXPECT_NEAR(amps[i].imag(), 0.0, 1e-14) << "index " << i;
  }
}

TEST_P(GoldenPolicyTest, Grover10ExactAmplitudes) {
  // 6 data qubits, marked 0b101101, 2 iterations. The implementation's
  // diffusion is I - 2|s><s| (the negated textbook reflection), so after
  // an even iteration count the textbook amplitudes hold verbatim:
  // amp[m] = sin(5 theta), amp[x != m] = cos(5 theta)/sqrt(63) with
  // theta = asin(1/8); the ancilla subspace stays (numerically) empty.
  constexpr std::uint64_t kMarked = 0b101101;
  const auto amps = run_lossless(
      circuits::grover_circuit({.data_qubits = 6,
                                .marked_state = kMarked,
                                .iterations = 2}),
      GetParam());
  ASSERT_EQ(amps.size(), 1024u);
  const double theta = std::asin(1.0 / 8.0);
  const double marked = std::sin(5.0 * theta);
  const double rest = std::cos(5.0 * theta) / std::sqrt(63.0);
  for (std::size_t i = 0; i < 64; ++i) {
    const double expected = i == kMarked ? marked : rest;
    EXPECT_NEAR(amps[i].real(), expected, 1e-12) << "index " << i;
    EXPECT_NEAR(amps[i].imag(), 0.0, 1e-12) << "index " << i;
  }
  for (std::size_t i = 64; i < amps.size(); ++i) {
    // Ancilla uncompute leaves at most fused-gate rounding residue.
    EXPECT_NEAR(std::abs(amps[i]), 0.0, 1e-12) << "index " << i;
  }
}

TEST_P(GoldenPolicyTest, PoliciesAgreeBitExactlyWhenLossless) {
  // At level 0 the arbiter has no freedom: both policies must produce the
  // same bytes and the same state.
  for (const auto& circuit :
       {ghz_circuit(8),
        circuits::qft_circuit({.num_qubits = 8, .random_input = false})}) {
    CompressedStateSimulator fixed(golden_config(8, "fixed"));
    CompressedStateSimulator adaptive(golden_config(8, "adaptive"));
    fixed.apply_circuit(circuit);
    adaptive.apply_circuit(circuit);
    CQS_EXPECT_STATES_CLOSE(fixed.to_raw(), adaptive.to_raw(), 0.0);
  }
}

// --- Fidelity floors under each lossy codec x ladder level ---------------

struct LossyCase {
  std::string codec;
  int level;
};

class GoldenLossyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

INSTANTIATE_TEST_SUITE_P(
    AllLossyCodecsAllLevels, GoldenLossyTest,
    ::testing::Combine(::testing::Values("qzc", "qzc-shuffle", "sz",
                                         "sz-complex", "zfp", "fpzip"),
                       ::testing::Values(1, 3, 5)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_level" + std::to_string(std::get<1>(info.param));
    });

TEST_P(GoldenLossyTest, FidelityFloorsHoldUnderBothPolicies) {
  const auto [codec, level] = GetParam();
  const auto circuits = {
      std::pair{std::string("ghz8"), ghz_circuit(8)},
      std::pair{std::string("qft8"),
                circuits::qft_circuit({.num_qubits = 8,
                                       .random_input = false})},
      std::pair{std::string("grover10"),
                circuits::grover_circuit({.data_qubits = 6,
                                          .marked_state = 0b101101,
                                          .iterations = 2})},
  };
  for (const auto& [name, circuit] : circuits) {
    const auto reference = run_lossless(circuit, "fixed");
    std::vector<double> reference_raw(reference.size() * 2);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      reference_raw[2 * i] = reference[i].real();
      reference_raw[2 * i + 1] = reference[i].imag();
    }
    for (const std::string policy : {"fixed", "adaptive"}) {
      SimConfig config = golden_config(circuit.num_qubits(), policy);
      config.codec = codec;
      config.initial_level = level;
      CompressedStateSimulator sim(config);
      sim.apply_circuit(circuit);
      const auto report = sim.report();
      const double fidelity =
          qsim::state_fidelity(sim.to_raw(), reference_raw);
      // Eq. 11's guarantee is the floor every refactor must preserve:
      // measured fidelity never dips below the tracked bound.
      EXPECT_GE(fidelity, report.fidelity_bound - 1e-12)
          << name << " codec " << codec << " level " << level << " policy "
          << policy;
      // Pinned measured-fidelity floors (values observed at pin time held
      // comfortable margins: worst cases 0.99995 / 0.9942 / 0.6700): a
      // codec or scheduler change that degrades reconstruction accuracy
      // trips these long before the worst-case bound does.
      const double floor = level == 1 ? 0.999 : level == 3 ? 0.99 : 0.6;
      EXPECT_GE(fidelity, floor)
          << name << " codec " << codec << " level " << level << " policy "
          << policy;
      EXPECT_GT(report.fidelity_bound, 0.0);
    }
  }
}

// --- Every block-rewriting sweep, pinned across commits -------------------
//
// The cases above pin lossless amplitudes only. These legs run one random
// circuit over all three partition segments on 4 ranks x 4 blocks, then a
// projective measurement and a checkpoint save, so between them they drive
// the single-block and block-pair gate sweeps, the cross-rank exchange,
// remap exchanges, ladder recompression and the measurement collapse. Each
// leg pins the saved image and the counters those sweeps feed; the values
// were recorded from the simulator and must not move unless a change means
// to alter what is stored.

constexpr std::uint64_t kSweepSeed = 3;
constexpr int kSweepMeasuredQubit = 9;  // rank segment when unremapped
constexpr std::size_t kSweepMemoryBudget = 2500;    // escalates to level 2-5
constexpr std::size_t kSweepResidentBudget = 3500;  // spills in every leg

struct SweepLeg {
  bool remap;
  bool spill;
  bool budget;  // false: lossless throughout
  bool batching = true;  // false: every gate takes the per-gate path
};

struct SweepPin {
  const char* image_sha256;
  std::uint64_t lossy_passes;
  std::uint64_t fidelity_bound_bits;
  std::uint64_t lossless_compress;
  std::uint64_t lossy_compress;
  std::uint64_t lossless_decompress;
  std::uint64_t lossy_decompress;
  std::uint64_t comm_bytes;
  std::uint64_t spill_events;
  std::uint64_t fault_events;
  std::uint64_t remap_sweeps;
};

constexpr int kSweepLegCount = 10;
constexpr SweepLeg kSweepLegs[kSweepLegCount] = {
    {false, false, false}, {false, false, true}, {false, true, false},
    {false, true, true},   {true, false, false}, {true, false, true},
    {true, true, false},   {true, true, true},
    // The per-gate path every ad-hoc apply() takes, lossless and under
    // the budget (which checks escalation after every gate).
    {false, false, false, false}, {false, false, true, false},
};

// Cache off: every value is a pure function of the workload, identical at
// 1 and 4 threads.
constexpr SweepPin kSweepPins[kSweepLegCount] = {
    {"7f9effee1e4665247f532fa6f571698daa7211f50f59c6cd52220272fdc27314", 0,
     0x3ff0000000000000, 146, 0, 152, 0, 4203, 0, 0, 0},
    {"8761b1ea5aecc9d2cace6f5455462c4057f72d0f16cd4c23bf752843d97d8e2c", 9,
     0x3fe9a1ad49730a8e, 82, 144, 96, 136, 3445, 0, 0, 0},
    {"c86b9e1d2b5fee6a1399446e061200a6d1f4c9f1a098b4271328db91266b6af1", 0,
     0x3ff0000000000000, 146, 0, 152, 0, 4203, 48, 40, 0},
    {"33c4a86e957039f2cbbf8323b93efe484d263785e3e56343ccd0be3ca1e8a60d", 6,
     0x3feffe08b8f77593, 82, 96, 96, 88, 3445, 32, 24, 0},
    {"9485a78681917cdb5db50d55fd7726807a64f025723068dc9fdf492f39386ef4", 0,
     0x3ff0000000000000, 162, 0, 168, 0, 3483, 0, 0, 2},
    {"4f2522bf42041cb3814c7f9439d58f90fe1aacc101efd7a50bf94a9656120473", 6,
     0x3fe9a1dfae7d372d, 146, 96, 160, 88, 3483, 0, 0, 2},
    {"2209790f13040785a6604420ade911835b053feaa7c08690f083257333cc14e1", 0,
     0x3ff0000000000000, 162, 0, 168, 0, 3483, 16, 0, 2},
    {"e7e445d032f608d2bf047ef465e0440415355ca63a7e012400d24a29597703e2", 2,
     0x3fefffd60ea2acaa, 146, 32, 160, 24, 3483, 32, 24, 2},
    {"8609b19d04b3012a2d1b9a65dae1bb74dfd61349a4792f3e41168e37dba15774", 0,
     0x3ff0000000000000, 850, 0, 856, 0, 9677, 0, 0, 0},
    {"5ddcc2548faed9556617637abe898de2b495c1224731599f655efb10a163752c", 25,
     0x3fdb3d97435ae526, 562, 368, 576, 360, 5399, 0, 0, 0},
};

// Cache on: the units of a gate sweep that compute from equal inputs share
// one output. Hits (units that stored a copy), misses (units that computed)
// and compressions per leg, identical at 1 and 4 threads.
struct SweepSharing {
  std::uint64_t hits;
  std::uint64_t misses;
  std::uint64_t compressions;
};
constexpr SweepSharing kSweepSharing[kSweepLegCount] = {
    {11, 53, 124},  {11, 53, 204},  {11, 53, 124},  {11, 53, 156},
    {20, 60, 138},  {20, 60, 218},  {20, 60, 138},  {20, 60, 154},
    {277, 467, 551}, {277, 467, 631},
};

struct SweepResult {
  std::string image_sha256;
  core::SimulationReport report;
};

class SweepPinTest : public test::TempDirFixture {
 protected:
  SweepResult run_leg(const SweepLeg& leg, int threads, bool cache) {
    SimConfig config;
    config.num_qubits = 10;
    config.num_ranks = 4;
    config.blocks_per_rank = 4;
    config.threads = threads;
    config.enable_cache = cache;
    config.enable_qubit_remap = leg.remap;
    config.enable_run_batching = leg.batching;
    if (leg.spill) {
      config.spill_path = path("spill.bin");
      config.resident_budget_bytes = kSweepResidentBudget;
    }
    if (leg.budget) config.memory_budget_bytes = kSweepMemoryBudget;
    CompressedStateSimulator sim(config);
    sim.apply_circuit(test::random_circuit(10, 60, kSweepSeed));
    Rng rng(kSweepSeed);
    sim.measure(kSweepMeasuredQubit, rng);
    const std::string image = path("state.ckpt");
    sim.save_checkpoint(image);
    std::ifstream in(image, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)), {});
    Sha256 digest;
    digest.update(bytes.data(), bytes.size());
    return {digest.hex_digest(), sim.report()};
  }
};

SweepPin observed_pin(const SweepResult& result) {
  const core::SimulationReport& r = result.report;
  return {result.image_sha256.c_str(),
          r.lossy_passes,
          std::bit_cast<std::uint64_t>(r.fidelity_bound),
          r.lossless_compress_invocations,
          r.lossy_compress_invocations,
          r.lossless_decompress_invocations,
          r.lossy_decompress_invocations,
          r.comm_bytes,
          r.spill_events,
          r.fault_events,
          r.remap_sweeps};
}

/// The pin as a table row, so a mismatch prints the row to compare.
std::string describe(const SweepPin& pin) {
  char bits[24];
  std::snprintf(bits, sizeof bits, "0x%016llx",
                static_cast<unsigned long long>(pin.fidelity_bound_bits));
  std::string out = std::string("{\"") + pin.image_sha256 + "\", " +
                    std::to_string(pin.lossy_passes) + ", " + bits;
  for (std::uint64_t v :
       {pin.lossless_compress, pin.lossy_compress, pin.lossless_decompress,
        pin.lossy_decompress, pin.comm_bytes, pin.spill_events,
        pin.fault_events, pin.remap_sweeps}) {
    out += ", " + std::to_string(v);
  }
  return out + "}";
}

TEST_F(SweepPinTest, EveryRewritingSweepIsByteStableAcrossCommits) {
  for (int leg = 0; leg < kSweepLegCount; ++leg) {
    const SweepLeg& shape = kSweepLegs[leg];
    // Each leg must exercise what it is named for, or the pin is hollow.
    const SweepPin& expected = kSweepPins[leg];
    EXPECT_EQ(expected.remap_sweeps > 0, shape.remap) << "leg " << leg;
    EXPECT_EQ(expected.spill_events > 0, shape.spill) << "leg " << leg;
    EXPECT_EQ(expected.lossy_passes > 0, shape.budget) << "leg " << leg;
    for (int threads : {1, 4}) {
      const SweepResult result = run_leg(shape, threads, false);
      EXPECT_EQ(describe(observed_pin(result)), describe(expected))
          << "leg " << leg << " threads " << threads;
    }
  }
}

TEST_F(SweepPinTest, CacheProbeSequenceIsStableAcrossCommits) {
  // Sharing is bit-invisible: every image matches the leg's cache-off pin,
  // and only the counts (and the codec calls shared units skip) differ. A
  // member pair that spans ranks still exchanges, so comm_bytes match too.
  for (int leg = 0; leg < kSweepLegCount; ++leg) {
    const SweepSharing& expected = kSweepSharing[leg];
    for (int threads : {1, 4}) {
      const SweepResult result = run_leg(kSweepLegs[leg], threads, true);
      EXPECT_EQ(result.image_sha256, kSweepPins[leg].image_sha256)
          << "leg " << leg << " threads " << threads;
      EXPECT_EQ(result.report.cache.hits, expected.hits)
          << "leg " << leg << " threads " << threads;
      EXPECT_EQ(result.report.cache.misses, expected.misses)
          << "leg " << leg << " threads " << threads;
      EXPECT_EQ(result.report.compress_invocations, expected.compressions)
          << "leg " << leg << " threads " << threads;
      EXPECT_EQ(result.report.comm_bytes, kSweepPins[leg].comm_bytes)
          << "leg " << leg << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace cqs
