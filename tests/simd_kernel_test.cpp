// Property tests pinning every SIMD apply kernel byte-for-byte against its
// scalar reference: all fused matrix shapes, aligned and unaligned
// buffers, vector-tail lengths, denormal inputs, and the control-mask
// demotion path. Plus the golden-bitstream leg: a CQS_NATIVE (or any SIMD)
// build must leave the recorded codec digests and checkpoint bytes
// untouched — the kernels change the schedule of identical IEEE ops, never
// the values.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "circuits/qft.hpp"
#include "common/rng.hpp"
#include "compression/golden_blobs.hpp"
#include "core/simulator.hpp"
#include "qsim/gates.hpp"
#include "test_util.hpp"

namespace cqs::qsim {
namespace {

/// The widest non-scalar backend this build + CPU offers; tests skip when
/// only the scalar path exists (then there is nothing to differentiate).
KernelBackend simd_backend() { return detect_kernel_backend(true); }

std::vector<Amplitude> random_amps(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Amplitude> amps(count);
  for (auto& a : amps) {
    a = Amplitude(rng.next_double() * 2.0 - 1.0,
                  rng.next_double() * 2.0 - 1.0);
  }
  // Sprinkle exact zeros and denormals: the kernels must not rely on
  // flush-to-zero and must reproduce gradual underflow bit-for-bit.
  for (std::size_t i = 0; i < count; i += 7) {
    amps[i] = Amplitude(5e-320, -3e-321);
  }
  for (std::size_t i = 3; i < count; i += 11) {
    amps[i] = Amplitude(0.0, 0.0);
  }
  return amps;
}

bool bytes_equal(const std::vector<Amplitude>& a,
                 const std::vector<Amplitude>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Amplitude)) == 0;
}

/// Representative fused-run matrix shapes: real symmetric (H), permutation
/// (X), imaginary off-diagonal (Y), pure-phase diagonals, rotations, the
/// supremacy set, and a fully generic globally-phased U3.
std::vector<Mat2> matrix_shapes() {
  return {
      gate_matrix({GateKind::kH, 0}),
      gate_matrix({GateKind::kX, 0}),
      gate_matrix({GateKind::kY, 0}),
      gate_matrix({GateKind::kT, 0}),
      gate_matrix({GateKind::kRz, 0, {-1, -1}, {0.7}}),
      gate_matrix({GateKind::kRy, 0, {-1, -1}, {1.3}}),
      gate_matrix({GateKind::kSqrtW, 0}),
      gate_matrix({GateKind::kU3G, 0, {-1, -1}, {0.9, 0.4, 1.7, 2.2}}),
  };
}

TEST(SimdKernelTest, ScaleKernelBitIdenticalAcrossLengthsAndAlignment) {
  if (simd_backend() == KernelBackend::kScalar) {
    GTEST_SKIP() << "no SIMD backend compiled in / supported by this CPU";
  }
  const Amplitude factors[] = {Amplitude(0.3, -0.8), Amplitude(-1.0, 0.0),
                               Amplitude(7e-310, 2e-312)};
  for (const Amplitude factor : factors) {
    for (const std::size_t count : {2u, 3u, 7u, 8u, 32u, 33u, 255u}) {
      for (const std::size_t offset : {0u, 1u}) {  // 1 breaks 32B alignment
        auto scalar = random_amps(count + offset, 1000 + count);
        auto simd = scalar;
        scale_kernel(scalar.data() + offset, count, factor, 0,
                     KernelBackend::kScalar);
        scale_kernel(simd.data() + offset, count, factor, 0, simd_backend());
        EXPECT_TRUE(bytes_equal(scalar, simd))
            << "count=" << count << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernelTest, DiagKernelBitIdenticalAcrossTargetBitsAndTails) {
  if (simd_backend() == KernelBackend::kScalar) {
    GTEST_SKIP() << "no SIMD backend compiled in / supported by this CPU";
  }
  for (const Mat2& m : matrix_shapes()) {
    for (const std::uint64_t target_bit : {1u, 2u, 8u, 32u}) {
      // Includes counts that are not multiples of the factor group so the
      // trailing partial-group scalar path runs.
      for (const std::size_t count : {2u, 3u, 33u, 64u, 100u, 257u}) {
        for (const std::size_t offset : {0u, 1u}) {
          auto scalar = random_amps(count + offset, count * 31 + target_bit);
          auto simd = scalar;
          diag_kernel(scalar.data() + offset, count, m, target_bit, 0,
                      KernelBackend::kScalar);
          diag_kernel(simd.data() + offset, count, m, target_bit, 0,
                      simd_backend());
          EXPECT_TRUE(bytes_equal(scalar, simd))
              << "target_bit=" << target_bit << " count=" << count
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdKernelTest, MixKernelBitIdenticalAcrossStrides) {
  if (simd_backend() == KernelBackend::kScalar) {
    GTEST_SKIP() << "no SIMD backend compiled in / supported by this CPU";
  }
  for (const Mat2& m : matrix_shapes()) {
    for (const std::uint64_t stride : {1u, 2u, 4u, 8u, 16u}) {
      for (const std::uint64_t groups : {1u, 2u, 3u, 5u}) {
        const std::size_t count = 2 * stride * groups;
        for (const std::size_t offset : {0u, 1u}) {
          auto scalar = random_amps(count + offset, stride * 77 + groups);
          auto simd = scalar;
          mix_kernel(scalar.data() + offset, count, m, stride, 0,
                     KernelBackend::kScalar);
          mix_kernel(simd.data() + offset, count, m, stride, 0,
                     simd_backend());
          EXPECT_TRUE(bytes_equal(scalar, simd))
              << "stride=" << stride << " count=" << count
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdKernelTest, PairKernelBitIdenticalAcrossLengths) {
  if (simd_backend() == KernelBackend::kScalar) {
    GTEST_SKIP() << "no SIMD backend compiled in / supported by this CPU";
  }
  for (const Mat2& m : matrix_shapes()) {
    for (const std::size_t count : {2u, 3u, 7u, 64u, 129u}) {
      auto scalar_x = random_amps(count, count + 5);
      auto scalar_y = random_amps(count, count + 6);
      auto simd_x = scalar_x;
      auto simd_y = scalar_y;
      pair_kernel(scalar_x.data(), scalar_y.data(), count, m, 0,
                  KernelBackend::kScalar);
      pair_kernel(simd_x.data(), simd_y.data(), count, m, 0, simd_backend());
      EXPECT_TRUE(bytes_equal(scalar_x, simd_x)) << "count=" << count;
      EXPECT_TRUE(bytes_equal(scalar_y, simd_y)) << "count=" << count;
    }
  }
}

TEST(SimdKernelTest, ControlMasksDemoteToScalarExactly) {
  // Offset-segment control masks take the scalar path on every backend;
  // the result must equal a scalar-backend call outright.
  const Mat2 m = gate_matrix({GateKind::kH, 0});
  const std::uint64_t ctrl = 0b101;
  const std::size_t count = 64;
  auto scalar = random_amps(count, 99);
  auto simd = scalar;
  diag_kernel(scalar.data(), count, m, 2, ctrl, KernelBackend::kScalar);
  diag_kernel(simd.data(), count, m, 2, ctrl, simd_backend());
  EXPECT_TRUE(bytes_equal(scalar, simd));

  auto scalar2 = random_amps(count, 98);
  auto simd2 = scalar2;
  mix_kernel(scalar2.data(), count, m, 4, ctrl, KernelBackend::kScalar);
  mix_kernel(simd2.data(), count, m, 4, ctrl, simd_backend());
  EXPECT_TRUE(bytes_equal(scalar2, simd2));
}

TEST(SimdKernelTest, DetectRespectsDisableKnob) {
  EXPECT_EQ(detect_kernel_backend(false), KernelBackend::kScalar);
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// Golden-bitstream leg: SIMD (and CQS_NATIVE) builds must not move a single
// byte of the compression pipeline's output.
// ---------------------------------------------------------------------------

TEST(SimdKernelTest, GoldenCodecDigestsUnchangedInThisBuild) {
  // Same digests tests/golden_blob_test.cpp pins, re-asserted here so the
  // CQS_NATIVE CI job (which runs this target) catches -march=native or
  // contraction drift in the codecs even if it only runs the SIMD suite.
  for (const compression::GoldenBlob& blob : compression::kGoldenBlobs) {
    EXPECT_EQ(compression::golden_blob_hash(blob), blob.sha256)
        << blob.codec << "/" << blob.mode << "/" << blob.fixture
        << ": compressed bitstream drifted in this build configuration";
  }
}

class SimdCheckpointTest : public test::TempDirFixture {};

TEST_F(SimdCheckpointTest, CheckpointBytesIdenticalSimdOnVsOff) {
  // End-to-end bitstream pin: simulate, save, and compare the checkpoint
  // files byte-for-byte with SIMD kernels on vs off. Any kernel rounding
  // difference would change amplitudes, then compressed payloads, then the
  // file; identical files prove the whole chain is untouched.
  const auto circuit = circuits::qft_circuit({.num_qubits = 10});
  auto checkpoint_bytes = [&](bool simd) {
    core::SimConfig config;
    config.num_qubits = 10;
    config.num_ranks = 2;
    config.blocks_per_rank = 8;
    config.threads = 2;
    config.initial_level = 2;  // lossy codec arithmetic in the loop too
    config.enable_simd_kernels = simd;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const std::string file =
        path(simd ? "simd_on.bin" : "simd_off.bin");
    sim.save_checkpoint(file);
    std::ifstream in(file, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  const auto off = checkpoint_bytes(false);
  const auto on = checkpoint_bytes(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off.size(), on.size());
  EXPECT_TRUE(off == on)
      << "checkpoint bytes differ between SIMD on and off";
}

TEST(SimdKernelTest, SimulatorStatesBitIdenticalSimdOnVsOff) {
  // The in-memory equivalent, over the randomized fuzz circuits.
  for (std::uint64_t seed : {3u, 19u}) {
    const auto circuit = test::random_circuit(11, 80, seed);
    std::vector<double> reference;
    for (bool simd : {false, true}) {
      core::SimConfig config;
      config.num_qubits = 11;
      config.num_ranks = 2;
      config.blocks_per_rank = 8;
      config.threads = 2;
      config.initial_level = 2;
      config.enable_simd_kernels = simd;
      core::CompressedStateSimulator sim(config);
      sim.apply_circuit(circuit);
      const auto raw = sim.to_raw();
      if (reference.empty()) {
        reference = raw;
      } else {
        CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace cqs::qsim
