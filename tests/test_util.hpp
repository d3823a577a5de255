// Shared test harness for the cqs suite:
//   - tolerance-aware state-vector comparison helpers,
//   - a temp-dir fixture so checkpoint/file tests are safe under `ctest -j`,
//   - seeded data generators for three dataset regimes (spiky QAOA-like,
//     dense supremacy-like, sparse early-simulation) so property tests are
//     deterministic.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/phase_estimation.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/fixtures.hpp"
#include "common/rng.hpp"
#include "qsim/circuit.hpp"

namespace cqs::test {

/// Randomized circuit over all three partition segments: single-qubit
/// gates (including parameterized rotations), controlled pairs, SWAPs,
/// and Toffolis on uniformly drawn qubits. Deterministic in `seed`.
/// Shared by the concurrency and spill differential suites.
inline qsim::Circuit random_circuit(int qubits, std::size_t gates,
                                    std::uint64_t seed) {
  Rng rng(seed);
  qsim::Circuit c(qubits);
  auto qubit = [&] { return static_cast<int>(rng.next_below(qubits)); };
  auto distinct_from = [&](int a) {
    int q = qubit();
    while (q == a) q = qubit();
    return q;
  };
  for (std::size_t i = 0; i < gates; ++i) {
    const int target = qubit();
    switch (rng.next_below(10)) {
      case 0: c.h(target); break;
      case 1: c.x(target); break;
      case 2: c.t(target); break;
      case 3: c.rz(target, rng.next_double() * 3.0); break;
      case 4: c.ry(target, rng.next_double() * 3.0); break;
      case 5: c.cx(distinct_from(target), target); break;
      case 6: c.cz(distinct_from(target), target); break;
      case 7: c.cphase(distinct_from(target), target,
                       rng.next_double() * 3.0); break;
      case 8: c.swap(distinct_from(target), target); break;
      default: {
        const int c0 = distinct_from(target);
        int c1 = qubit();
        while (c1 == target || c1 == c0) c1 = qubit();
        c.ccx(c0, c1, target);
        break;
      }
    }
  }
  return c;
}

/// `circuit` with each SWAP(a, b) written as its three CX legs, CX(b, a)
/// first. That leg flushes a pending single-qubit run on a before one on
/// b, as the SWAP does in the fusion pre-pass, so both circuits fuse
/// alike. The simulator executes no SWAP of the result. CX legs only move
/// amplitudes, so the two end in the same state up to the sign of zero
/// components.
inline qsim::Circuit with_swaps_expanded(const qsim::Circuit& circuit) {
  qsim::Circuit out(circuit.num_qubits());
  for (const qsim::GateOp& op : circuit.ops()) {
    if (op.kind != qsim::GateKind::kSwap) {
      out.append(op);
      continue;
    }
    const int a = op.target;
    const int b = op.controls[0];
    out.cx(b, a).cx(a, b).cx(b, a);
  }
  return out;
}

/// One bundled circuit of each family, named.
struct RemapCase {
  std::string name;
  qsim::Circuit circuit;
};

/// The circuit families the SWAP-relabel and run-merge differentials run:
/// QFT, Grover, QAOA, phase estimation and a supremacy grid, 8-10 qubits.
inline std::vector<RemapCase> remap_cases() {
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

/// `circuit` followed by a bit-reversal SWAP layer, as QFT ends. Nothing
/// touches those SWAPs afterwards, so the simulator relabels them and
/// leaves a permuted qubit map.
inline qsim::Circuit with_reversal_swaps(qsim::Circuit circuit) {
  const int n = circuit.num_qubits();
  for (int q = 0; q < n / 2; ++q) circuit.swap(q, n - 1 - q);
  return circuit;
}

// The seeded generators moved to common/fixtures.hpp so the benches and
// golden-blob tests share exactly these inputs; the test-local names stay.
using fixtures::dense_supremacy_like;
using fixtures::sparse_like;
using fixtures::spiky_qaoa_like;

/// Tolerance-aware comparison of two raw states. Use tol = 0 for
/// bit-identical (lossless / determinism tests).
inline ::testing::AssertionResult states_close(std::span<const double> a,
                                               std::span<const double> b,
                                               double tol) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(a[i] - b[i]);
    if (!(diff <= tol)) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i]
             << " (|diff| = " << diff << " > " << tol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

#define CQS_EXPECT_STATES_CLOSE(a, b, tol) \
  EXPECT_TRUE(::cqs::test::states_close((a), (b), (tol)))

/// `cqs_<leaf>_<pid>` under the system temp dir. The process id keeps two
/// test processes on one host (two build trees' ctest runs, say) out of
/// each other's files.
inline std::filesystem::path process_temp_dir(const std::string& leaf) {
  return std::filesystem::temp_directory_path() /
         ("cqs_" + leaf + "_" + std::to_string(::getpid()));
}

/// Creates a unique directory under the system temp dir for the lifetime of
/// each test, so file-writing tests (checkpoints) never collide when the
/// suite runs with `ctest -j`.
class TempDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf =
        std::string(info->test_suite_name()) + "_" + info->name();
    for (auto& ch : leaf) {
      if (ch == '/' || ch == '\\') ch = '_';
    }
    dir_ = process_temp_dir(leaf);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;  // best-effort cleanup; never fail the test
    std::filesystem::remove_all(dir_, ec);
  }

  /// Absolute path for a file inside the per-test directory.
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace cqs::test
