// Autosave, restart and ENOSPC-degradation coverage:
//   - autosave cadence: saves land at run boundaries, the report counts
//     them, and a resume from the autosave image is bit-identical,
//   - run_resilient: fault-free == plain run; a run that crashes on a
//     spill I/O error at three circuit points restarts from its last
//     autosave and lands bit-identically (tol 0) on the uninterrupted
//     state,
//   - ENOSPC degradation: a mid-run disk-full keeps what's written on
//     disk, disables spilling, and finishes resident bit-identically; if
//     the resident state cannot fit the Eq. 8 budget even at the last
//     ladder level, the original typed SpillError surfaces,
//   - an injected autosave failure (crash before the checkpoint rename)
//     is survived and counted, and the previous image stays loadable,
//   - a resume refuses another circuit's autosave by its circuit digest,
//     and a digest-less v5 image still resumes unchecked,
//   - fault-plan determinism pin: same seed => same fired (site, call)
//     ledger across thread counts (RecoveryConcurrencyTest doubles as
//     the TSan target).
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/config.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/spill_file.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using test::random_circuit;

core::SimConfig base_config(int qubits, int ranks, int threads = 2) {
  core::SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = 4;
  config.threads = threads;
  return config;
}

/// Reference state of an uninterrupted, fault-free run of `circuit`.
/// References share the faulted run's checkpoint_interval_gates: the
/// interval is a scheduling cut (fused runs never span it), so tol-0
/// comparisons only hold between runs chunked the same way.
std::vector<double> reference_state(core::SimConfig config,
                                    const qsim::Circuit& circuit,
                                    const std::string& autosave_path = "") {
  config.auto_checkpoint_path = autosave_path;
  config.checkpoint_interval_gates = autosave_path.empty() ? 0 : 13;
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  return sim.to_raw();
}

using RecoveryTest = test::TempDirFixture;

TEST_F(RecoveryTest, AutosaveKnobsMustBeSetTogether) {
  auto interval_only = base_config(8, 2);
  interval_only.checkpoint_interval_gates = 10;
  EXPECT_THROW(core::CompressedStateSimulator{interval_only},
               std::invalid_argument);

  auto path_only = base_config(8, 2);
  path_only.auto_checkpoint_path = path("auto.ckpt");
  EXPECT_THROW(core::CompressedStateSimulator{path_only},
               std::invalid_argument);
}

TEST_F(RecoveryTest, AutosavesLandAtIntervalsAndResumeBitIdentical) {
  const auto circuit = random_circuit(10, 60, 17);
  const auto expected =
      reference_state(base_config(10, 2), circuit, path("ref.ckpt"));

  auto config = base_config(10, 2);
  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);

  const auto report = sim.report();
  EXPECT_GE(report.autosaves, 60u / 13u);
  EXPECT_EQ(report.autosave_failures, 0u);
  EXPECT_EQ(report.checkpoint_interval_gates, 13u);
  ASSERT_TRUE(std::filesystem::exists(path("auto.ckpt")));

  // The autosave is a real checkpoint: restore it mid-circuit and resume
  // the suffix — the result must be bit-identical to the uninterrupted
  // run (interval boundaries are scheduling cuts, so the resumed suffix
  // re-chunks into exactly the remaining chunks).
  auto resume_config = config;
  resume_config.auto_checkpoint_path = path("resume.ckpt");
  auto restored = core::CompressedStateSimulator::load_checkpoint(
      path("auto.ckpt"), resume_config);
  EXPECT_LT(restored.gate_cursor(), circuit.size());
  restored.resume_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
}

TEST_F(RecoveryTest, RunResilientFaultFreeMatchesPlainRun) {
  const auto circuit = random_circuit(10, 50, 23);
  auto config = base_config(10, 2);
  const auto expected =
      reference_state(config, circuit, path("ref.ckpt"));

  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");
  auto sim = core::CompressedStateSimulator::run_resilient(config, circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);
}

core::SimConfig spill_config(const std::string& spill_path, int qubits,
                             int ranks, int threads) {
  auto config = base_config(qubits, ranks, threads);
  config.spill_path = spill_path;
  config.resident_budget_bytes = 1;  // essentially everything spills
  return config;
}

TEST_F(RecoveryTest, RestartAfterACrashResumesBitIdenticalAtThreePoints) {
  const auto circuit = random_circuit(10, 80, 31);
  const auto expected =
      reference_state(base_config(10, 4), circuit, path("ref.ckpt"));
  auto config = spill_config(path("spill.bin"), 10, 4, 2);
  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");

  // Probe how many spill writes the autosaved run makes with a plan that
  // can never fire (the counter only runs while armed).
  std::uint64_t total_writes = 0;
  {
    runtime::ScopedFaultPlan probe("spill.write@1000000000");
    auto probe_config = config;
    probe_config.auto_checkpoint_path = path("probe.ckpt");
    core::CompressedStateSimulator sim(probe_config);
    sim.apply_circuit(circuit);
    total_writes = runtime::FaultInjector::instance().calls(
        runtime::fault_sites::kSpillWrite);
  }
  ASSERT_GE(total_writes, 3u) << "circuit must exercise the spill tier";

  // Crash the run with an I/O error, which ENOSPC degradation does not
  // absorb, at the first, middle and last spill write. A second run
  // resumes from the crashed run's last autosave (or starts over when the
  // crash came before the first one) and must land on the uninterrupted
  // state.
  for (std::uint64_t point :
       {std::uint64_t{1}, total_writes / 2, total_writes}) {
    std::filesystem::remove(path("auto.ckpt"));
    {
      runtime::ScopedFaultPlan plan("spill.write@" + std::to_string(point) +
                                    ":eio");
      EXPECT_THROW(
          core::CompressedStateSimulator::run_resilient(config, circuit),
          runtime::SpillError)
          << "injection point " << point;
    }
    const bool autosaved = std::filesystem::exists(path("auto.ckpt"));
    if (point > 1) EXPECT_TRUE(autosaved) << "injection point " << point;
    auto sim = core::CompressedStateSimulator::run_resilient(config, circuit);
    CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0)
        << "injection point " << point << " of " << total_writes;
    // A restart from an autosave applies only the gates after it.
    if (autosaved) {
      EXPECT_LT(sim.report().gates, circuit.size())
          << "injection point " << point;
    }
  }
}

TEST_F(RecoveryTest, EnospcDegradationFinishesResidentBitIdentical) {
  const auto circuit = random_circuit(10, 60, 41);
  const auto expected = reference_state(base_config(10, 2), circuit);

  auto config = spill_config(path("spill.bin"), 10, 2, 2);
  config.spill_degrade_on_enospc = true;
  runtime::ScopedFaultPlan plan("spill.write@3+:enospc");
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);

  const auto report = sim.report();
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.spill_write_failures, 1u);
}

TEST_F(RecoveryTest, RunResilientForcesEnospcDegradationOn) {
  const auto circuit = random_circuit(10, 60, 41);
  const auto expected =
      reference_state(base_config(10, 2), circuit, path("ref.ckpt"));

  // The knob is left at its default (off): run_resilient must force it.
  auto config = spill_config(path("spill.bin"), 10, 2, 2);
  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");
  runtime::ScopedFaultPlan plan("spill.write@2+:enospc");
  auto sim = core::CompressedStateSimulator::run_resilient(config, circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);
  EXPECT_TRUE(sim.report().degraded);
}

TEST_F(RecoveryTest, DegradedRunOverBudgetSurfacesTypedError) {
  // Disk full AND the resident state cannot fit the Eq. 8 budget even at
  // the last ladder level: the run must fail with the typed SpillError,
  // not silently blow the budget.
  const auto circuit = random_circuit(10, 60, 41);
  auto config = spill_config(path("spill.bin"), 10, 2, 2);
  config.spill_degrade_on_enospc = true;
  config.memory_budget_bytes = 64;  // unsatisfiable at any level
  runtime::ScopedFaultPlan plan("spill.write@1+:enospc");
  core::CompressedStateSimulator sim(config);
  try {
    sim.apply_circuit(circuit);
    FAIL() << "expected SpillError";
  } catch (const runtime::SpillError& e) {
    EXPECT_EQ(e.code(), ENOSPC);
  }
}

TEST_F(RecoveryTest, InjectedAutosaveFailureIsSurvivedAndCounted) {
  const auto circuit = random_circuit(10, 60, 17);
  const auto expected =
      reference_state(base_config(10, 2), circuit, path("ref.ckpt"));

  auto config = base_config(10, 2);
  config.checkpoint_interval_gates = 13;
  config.auto_checkpoint_path = path("auto.ckpt");
  // The second autosave crashes after writing the temp image but before
  // the atomic rename: the run continues, the failure is counted, and
  // the first (published) image survives untouched.
  runtime::ScopedFaultPlan plan("checkpoint.rename@2");
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);

  const auto report = sim.report();
  EXPECT_EQ(report.autosave_failures, 1u);
  EXPECT_GE(report.autosaves, 1u);
  auto resume_config = config;
  resume_config.auto_checkpoint_path = path("resume.ckpt");
  auto restored = core::CompressedStateSimulator::load_checkpoint(
      path("auto.ckpt"), resume_config);
  restored.resume_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
}

/// Rewrites the v7 image at `from` as the v5 image of the same state: the
/// v5 magic, and no circuit digest after the gate index.
void downgrade_to_v5(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)), {});
  Bytes image(reinterpret_cast<const std::byte*>(text.data()),
              reinterpret_cast<const std::byte*>(text.data()) + text.size());
  ASSERT_EQ(static_cast<char>(image[7]), '7');
  image[7] = static_cast<std::byte>('5');
  std::size_t offset = 8;
  for (int field = 0; field < 5; ++field) get_varint(image, offset);
  image.erase(image.begin() + static_cast<std::ptrdiff_t>(offset),
              image.begin() + static_cast<std::ptrdiff_t>(offset + 8));
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

TEST_F(RecoveryTest, ResumeRefusesAnotherCircuitsAutosave) {
  // An all-H run leaves its final autosave behind. A resilient all-X run
  // on the same path used to resume it, apply no gate and sample the H
  // state; the circuit digest in the image now makes it refuse.
  qsim::Circuit all_h(8);
  qsim::Circuit all_x(8);
  for (int q = 0; q < 8; ++q) {
    all_h.h(q);
    all_x.x(q);
  }
  auto config = base_config(8, 2);
  config.checkpoint_interval_gates = 4;
  config.auto_checkpoint_path = path("stale.ckpt");
  std::vector<double> h_state;
  {
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(all_h);
    h_state = sim.to_raw();
  }
  ASSERT_TRUE(std::filesystem::exists(path("stale.ckpt")));

  EXPECT_THROW(core::CompressedStateSimulator::run_resilient(config, all_x),
               std::invalid_argument);
  EXPECT_TRUE(std::filesystem::exists(path("stale.ckpt")))
      << "a refused autosave must stay in place";

  // The circuit that wrote it resumes, with nothing left to apply.
  auto same = core::CompressedStateSimulator::run_resilient(config, all_h);
  EXPECT_EQ(same.report().gates, 0u);
  CQS_EXPECT_STATES_CLOSE(same.to_raw(), h_state, 0.0);

  // The digest covers the applied prefix, so a circuit that extends it
  // resumes from the cursor.
  qsim::Circuit longer = all_h;
  longer.h(3);
  auto resume_config = config;
  resume_config.auto_checkpoint_path = path("resume.ckpt");
  auto extended = core::CompressedStateSimulator::load_checkpoint(
      path("stale.ckpt"), resume_config);
  extended.resume_circuit(longer);
  EXPECT_EQ(extended.report().gates, 1u);
  // The reference fuses H.H on qubit 3 into one op; the resumed run
  // applies the two in different chunks, so allow rounding.
  CQS_EXPECT_STATES_CLOSE(extended.to_raw(),
                          reference_state(base_config(8, 2), longer), 1e-12);

  // A v5 image carries no digest and resumes unchecked, as before v7.
  downgrade_to_v5(path("stale.ckpt"), path("stale_v5.ckpt"));
  auto legacy = core::CompressedStateSimulator::load_checkpoint(
      path("stale_v5.ckpt"), resume_config);
  EXPECT_EQ(legacy.gate_cursor(), all_h.size());
  EXPECT_NO_THROW(legacy.resume_circuit(all_x));
  CQS_EXPECT_STATES_CLOSE(legacy.to_raw(), h_state, 0.0);
}

// TSan target + the issue's determinism pin: the fired (site, call)
// ledger of a seeded plan is a pure function of the plan — identical
// across worker counts.
using RecoveryConcurrencyTest = test::TempDirFixture;

TEST_F(RecoveryConcurrencyTest, SeededPlanFiresIdenticallyAcrossThreads) {
  const auto circuit = random_circuit(10, 60, 41);
  std::vector<std::vector<runtime::FaultHit>> ledgers;
  std::vector<std::uint64_t> resolved;
  for (int threads : {1, 2, 4}) {
    runtime::ScopedFaultPlan plan("seed=7;spill.write@~6:enospc");
    resolved.push_back(
        runtime::FaultInjector::instance().resolved_specs()[0].nth);
    auto config = spill_config(
        path("spill_" + std::to_string(threads) + ".bin"), 10, 2, threads);
    config.spill_degrade_on_enospc = true;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    EXPECT_TRUE(sim.report().degraded);
    ledgers.push_back(runtime::FaultInjector::instance().fired());
  }
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    EXPECT_EQ(resolved[i], resolved[0]);
    ASSERT_EQ(ledgers[i].size(), ledgers[0].size());
    for (std::size_t j = 0; j < ledgers[0].size(); ++j) {
      EXPECT_EQ(ledgers[i][j].site, ledgers[0][j].site);
      EXPECT_EQ(ledgers[i][j].call, ledgers[0][j].call);
      EXPECT_EQ(ledgers[i][j].action, ledgers[0][j].action);
    }
  }
}

}  // namespace
}  // namespace cqs
