// Dedicated coverage of the error-bound ladder's fidelity bookkeeping
// (Sections 3.7/3.8): the tracked lower bound must equal the product of
// (1 - delta_i) over every recorded lossy pass (Eq. 11), must never
// overstate the measured fidelity — including through budget-forced
// escalation — and must survive checkpoint/resume intact. EscalationTest
// pins where an escalation is paid: by the gate sweep after the run
// boundary that raised the level, in that sweep's own pass.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "circuits/qaoa.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "core/fidelity.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"
#include "runtime/checkpoint.hpp"
#include "test_util.hpp"

namespace cqs::core {
namespace {

double cross_fidelity(CompressedStateSimulator& sim,
                      const qsim::Circuit& circuit) {
  qsim::StateVector reference(circuit.num_qubits());
  reference.apply_circuit(circuit);
  const auto raw = sim.to_raw();
  return qsim::state_fidelity(reference.raw(), raw);
}

SimConfig base_config(int qubits, int ranks, int blocks) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.threads = 4;
  return config;
}

TEST(FidelityTrackerTest, BoundIsExactlyTheProductOfPasses) {
  FidelityTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.bound(), 1.0);
  const std::vector<double> deltas = {1e-5, 1e-5, 1e-4, 1e-3, 1e-3};
  double expected = 1.0;
  for (double d : deltas) {
    tracker.record_lossy_pass(d);
    expected *= (1.0 - d);
  }
  EXPECT_DOUBLE_EQ(tracker.bound(), expected);
  EXPECT_EQ(tracker.lossy_passes(), deltas.size());
  EXPECT_DOUBLE_EQ(FidelityTracker::bound_after(3, 1e-2),
                   (1 - 1e-2) * (1 - 1e-2) * (1 - 1e-2));
}

TEST(FidelityLadderTest, FixedLevelBoundMatchesPerPassProduct) {
  // At a pinned lossy level with no budget pressure, the simulator records
  // at most one pass (all at the same delta) per gate application, so the
  // bound must equal (1 - delta)^lossy_passes with passes <= gates.
  SimConfig config = base_config(10, 2, 4);
  config.initial_level = 3;  // ladder[2] = 1e-3
  CompressedStateSimulator sim(config);
  const auto circuit = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  sim.apply_circuit(circuit);

  const auto report = sim.report();
  const double delta = config.error_ladder[2];
  EXPECT_EQ(sim.ladder_level(), 3);
  EXPECT_GT(report.lossy_passes, 0u);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(),
                   FidelityTracker::bound_after(report.lossy_passes, delta));
  // SWAPs expand to three CX applications; everything else records at most
  // one lossy pass per gate.
  std::uint64_t max_passes = 0;
  for (const auto& op : circuit.ops()) {
    max_passes += op.kind == qsim::GateKind::kSwap ? 3 : 1;
  }
  EXPECT_LE(report.lossy_passes, max_passes);
}

TEST(FidelityLadderTest, MeasuredFidelityRespectsBoundThroughEscalation) {
  // The paper's invariant F >= prod(1 - delta_i), exercised specifically
  // through the budget-forced escalation path: the ladder must climb, the
  // bound must shrink accordingly, and the measured fidelity against a
  // dense lossless reference must stay at or above the bound.
  SimConfig config = base_config(12, 2, 4);
  config.memory_budget_bytes = 20 << 10;  // forces lossy mode
  CompressedStateSimulator sim(config);
  const auto circuit =
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 8});
  sim.apply_circuit(circuit);

  ASSERT_GT(sim.ladder_level(), 0) << "budget must force escalation";
  const double bound = sim.fidelity_bound();
  EXPECT_LT(bound, 1.0);
  EXPECT_GT(bound, 0.0);

  const auto report = sim.report();
  // Every recorded pass used a delta no looser than the final level's, so
  // the bound can never be below the all-passes-at-the-loosest-delta floor.
  const double loosest = config.error_ladder[sim.ladder_level() - 1];
  EXPECT_GE(bound,
            FidelityTracker::bound_after(report.lossy_passes, loosest) -
                1e-15);

  const double measured = cross_fidelity(sim, circuit);
  EXPECT_GE(measured, bound - 1e-12)
      << "fidelity bound overstates the measured fidelity";
}

using FidelityCheckpointTest = test::TempDirFixture;

TEST_F(FidelityCheckpointTest, BoundSurvivesCheckpointResume) {
  SimConfig config = base_config(10, 2, 4);
  config.initial_level = 2;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuits::qaoa_maxcut_circuit({.num_qubits = 10}));
  const double bound_before = sim.fidelity_bound();
  ASSERT_LT(bound_before, 1.0);

  const std::string file = path("ladder.ckpt");
  sim.save_checkpoint(file);
  auto resumed = CompressedStateSimulator::load_checkpoint(file, config);
  EXPECT_EQ(resumed.ladder_level(), sim.ladder_level());
  EXPECT_NEAR(resumed.fidelity_bound(), bound_before, 1e-15);
  // Regression: the load path used to collapse the whole saved history
  // into one synthetic pass; the resumed report must carry the real count.
  const auto passes_before = sim.report().lossy_passes;
  ASSERT_GT(passes_before, 1u);
  EXPECT_EQ(resumed.report().lossy_passes, passes_before);

  // Passes recorded after the resume count on top of the restored total.
  qsim::Circuit extra(10);
  extra.h(0);
  resumed.apply(extra.ops()[0]);
  EXPECT_EQ(resumed.report().lossy_passes, passes_before + 1);
  EXPECT_NEAR(resumed.fidelity_bound(),
              bound_before * (1.0 - config.error_ladder[1]), 1e-15);
}

TEST_F(FidelityCheckpointTest, RejectsResumeWithShorterLadder) {
  // A checkpoint saved at ladder level 3 cannot be resumed with a config
  // whose ladder has fewer than 3 entries: the level would index past the
  // end of error_ladder on the next compression.
  SimConfig config = base_config(10, 2, 4);
  config.initial_level = 3;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuits::qaoa_maxcut_circuit({.num_qubits = 10}));
  const std::string file = path("deep.ckpt");
  sim.save_checkpoint(file);

  SimConfig short_ladder = config;
  short_ladder.initial_level = 0;
  short_ladder.error_ladder = {1e-5, 1e-4};
  EXPECT_THROW(
      CompressedStateSimulator::load_checkpoint(file, short_ladder),
      std::invalid_argument);
}

// --- Escalations paid by the next gate sweep ------------------------------
//
// Over the budget at a run boundary, the ladder rises one level, and the
// next gate sweep re-encodes every block at it (the blocks no kernel
// changes with no kernel) in its own lossy pass. Only where no gate sweep
// follows, at the end of each apply_circuit chunk, after apply() and after
// measure(), does a recompression sweep pay it, with a pass of its own.

constexpr int kEscalationQubits = 10;  // offset 0-6, block 7-8, rank 9
constexpr std::uint64_t kEscalationBlocks = 8;
constexpr std::size_t kOpsPerLayer = 14;

SimConfig escalation_config(int threads, bool sharing) {
  SimConfig config = base_config(kEscalationQubits, 2, 4);
  config.threads = threads;
  config.enable_cache = sharing;
  config.memory_budget_bytes = 3500;
  return config;
}

/// Eight layers of a pairing CX across block qubit 7 or rank qubit 9, an
/// RY on every offset qubit and a CX chain through them. Each layer is one
/// run that rewrites every block. Block qubit 8 stays |0>, so the blocks
/// where it is set stay zero, and a sweep with sharing on shares them. The
/// state densifies layer by layer: at the budget the ladder rises after
/// runs 3, 4 and 5, to level 3, and each raise is paid by the next run.
qsim::Circuit layered_circuit(int layers = 8) {
  Rng rng(7);
  qsim::Circuit circuit(kEscalationQubits);
  for (int layer = 0; layer < layers; ++layer) {
    circuit.cx(layer % 7, layer % 2 == 0 ? 7 : 9);
    for (int q = 0; q < 7; ++q) circuit.ry(q, 0.2 + 2.5 * rng.next_double());
    for (int q = 0; q < 6; ++q) circuit.cx(q, q + 1);
  }
  return circuit;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Whether every block of the image at `path` is encoded at the ladder
/// level its header records.
bool every_block_at_image_level(const std::string& path) {
  const runtime::LoadedCheckpoint image = runtime::load_checkpoint_full(path);
  for (const auto& store : image.ranks) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      if (store.meta(b).level != image.header.ladder_level) return false;
    }
  }
  return true;
}

/// Saves to `path` the state six layers leave without a budget: lossless,
/// and over the budget when loaded under it.
void save_dense_state(const std::string& path) {
  SimConfig unbounded = escalation_config(2, false);
  unbounded.memory_budget_bytes = 0;
  CompressedStateSimulator sim(unbounded);
  sim.apply_circuit(layered_circuit(6));
  sim.save_checkpoint(path);
}

using EscalationTest = test::TempDirFixture;

TEST_F(EscalationTest, TheNextSweepPaysEachEscalationInItsOwnPass) {
  const qsim::Circuit circuit = layered_circuit();
  CompressedStateSimulator sim(escalation_config(2, false));
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  ASSERT_EQ(report.batched_runs, circuit.size() / kOpsPerLayer);
  ASSERT_EQ(sim.ladder_level(), 3) << "three escalations";
  EXPECT_FALSE(report.budget_exceeded);
  // The initial state's two payloads, then each run encodes every block
  // once: no escalation swept the state on its own.
  EXPECT_EQ(report.compress_invocations,
            2 + kEscalationBlocks * report.batched_runs);
  // One pass per run that encoded at a lossy level, and none more.
  const std::uint64_t lossless_runs =
      (report.lossless_compress_invocations - 2) / kEscalationBlocks;
  EXPECT_EQ(lossless_runs, 3u);
  EXPECT_EQ(report.lossy_passes, report.batched_runs - lossless_runs);
  EXPECT_EQ(report.lossy_compress_invocations,
            kEscalationBlocks * report.lossy_passes);
  // Runs 4 and 5 at levels 1 and 2, runs 6-8 at level 3, in pass order.
  double bound = 1.0;
  for (int level : {1, 2, 3, 3, 3}) {
    bound *= 1.0 - sim.config().error_ladder[level - 1];
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.fidelity_bound()),
            std::bit_cast<std::uint64_t>(bound));
  EXPECT_GE(cross_fidelity(sim, circuit), sim.fidelity_bound() - 1e-12);

  EXPECT_EQ(report.final_lossless_blocks, 0u);
  const std::string image = path("final.ckpt");
  sim.save_checkpoint(image);
  EXPECT_TRUE(every_block_at_image_level(image));
}

TEST_F(EscalationTest, BlocksNoKernelChangesJoinTheSweepThatPaysALevel) {
  // A dense lossless state, loaded under the budget, then runs of CX gates
  // controlled by block qubit 7: each changes only the blocks where that
  // bit is set, half the state. The other half is re-encoded only when a
  // run pays a raised level.
  const std::string dense = path("dense.ckpt");
  save_dense_state(dense);
  qsim::Circuit half(kEscalationQubits);
  for (int i = 0; i < 80; ++i) half.cx(7, i % 7);  // five runs of 16 ops
  auto sim = CompressedStateSimulator::load_checkpoint(
      dense, escalation_config(2, false));
  sim.apply_circuit(half);
  const auto report = sim.report();
  ASSERT_EQ(report.batched_runs, 5u);
  ASSERT_GE(sim.ladder_level(), 2) << "at least two escalations";
  // Every run records one pass, and the escalations none.
  EXPECT_EQ(report.lossy_passes, report.batched_runs - 1);
  EXPECT_EQ(report.final_lossless_blocks, 0u);
  const std::string image = path("final.ckpt");
  sim.save_checkpoint(image);
  EXPECT_TRUE(every_block_at_image_level(image));
}

TEST_F(EscalationTest, ImagesAndPassesMatchAtEveryThreadCountAndSharing) {
  // The fidelity bound is a product taken pass by pass, so its bits, the
  // pass count and the compressions of each class fix which run paid
  // which level: the escalation points.
  const qsim::Circuit circuit = layered_circuit();
  struct Observed {
    std::string image;
    std::vector<double> state;
    std::uint64_t passes, bound_bits, level, comm_bytes;
    std::uint64_t lossless, lossy, hits;
  };
  auto observe = [&](int threads, bool sharing) {
    CompressedStateSimulator sim(escalation_config(threads, sharing));
    sim.apply_circuit(circuit);
    const auto r = sim.report();
    const std::string image = path("state.ckpt");
    sim.save_checkpoint(image);
    return Observed{file_bytes(image),
                    sim.to_raw(),
                    r.lossy_passes,
                    std::bit_cast<std::uint64_t>(r.fidelity_bound),
                    static_cast<std::uint64_t>(r.final_ladder_level),
                    r.comm_bytes,
                    r.lossless_compress_invocations,
                    r.lossy_compress_invocations,
                    r.cache.hits};
  };
  const Observed unshared = observe(1, false);
  const Observed shared = observe(1, true);
  EXPECT_GT(shared.hits, 0u) << "the zero blocks share";
  for (bool sharing : {false, true}) {
    const Observed& reference = sharing ? shared : unshared;
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " sharing " +
                   std::to_string(sharing));
      const Observed o = observe(threads, sharing);
      EXPECT_TRUE(o.image == unshared.image);
      EXPECT_TRUE(o.state == unshared.state);
      EXPECT_EQ(o.passes, unshared.passes);
      EXPECT_EQ(o.bound_bits, unshared.bound_bits);
      EXPECT_EQ(o.level, unshared.level);
      EXPECT_EQ(o.comm_bytes, unshared.comm_bytes);
      EXPECT_EQ(o.lossless, reference.lossless);
      EXPECT_EQ(o.lossy, reference.lossy);
      EXPECT_EQ(o.hits, reference.hits);
    }
  }
}

TEST_F(EscalationTest, ResumeFromAnAutosaveMatchesTheUninterruptedRun) {
  // Every 5 layers, the one autosave lands after run 5, whose boundary
  // raised a level: the chunk settles it before the save. Every 3 layers,
  // the first chunk ends at the first raise and settles it; the image both
  // runs share is the one saved after layer 6.
  const qsim::Circuit circuit = layered_circuit();
  for (const std::uint64_t layers : {3u, 5u}) {
    SCOPED_TRACE("interval " + std::to_string(layers) + " layers");
    SimConfig config = escalation_config(2, false);
    config.checkpoint_interval_gates = layers * kOpsPerLayer;
    config.auto_checkpoint_path = path("auto.ckpt");
    CompressedStateSimulator full(config);
    full.apply_circuit(circuit);
    const std::string full_image = path("full.ckpt");
    full.save_checkpoint(full_image);

    const std::string autosave = config.auto_checkpoint_path;
    EXPECT_TRUE(every_block_at_image_level(autosave));
    auto resumed = CompressedStateSimulator::load_checkpoint(autosave, config);
    EXPECT_GT(resumed.ladder_level(), 0);
    EXPECT_EQ(resumed.gate_cursor(), circuit.size() / kOpsPerLayer / layers *
                                         layers * kOpsPerLayer);
    resumed.resume_circuit(circuit);
    const std::string resumed_image = path("resumed.ckpt");
    resumed.save_checkpoint(resumed_image);
    EXPECT_TRUE(file_bytes(resumed_image) == file_bytes(full_image));
    CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0);
    EXPECT_EQ(resumed.report().lossy_passes, full.report().lossy_passes);
    EXPECT_EQ(resumed.fidelity_bound(), full.fidelity_bound());
  }
}

TEST_F(EscalationTest, SplitAtAPendingEscalationSettlesItAtTheHeadsEnd) {
  // The whole run raises level 3 after run 5 and pays it in run 6. A head
  // of five layers ends there, so apply_circuit settles the level with a
  // sweep and a pass of its own before it returns: the split run makes
  // exactly one pass more than the whole run. It is not bit-identical to
  // it, and is not meant to be.
  const qsim::Circuit circuit = layered_circuit();
  const SimConfig config = escalation_config(2, false);
  CompressedStateSimulator whole(config);
  whole.apply_circuit(circuit);

  CompressedStateSimulator first(config);
  const qsim::Circuit head = layered_circuit(5);
  first.apply_circuit(head);
  EXPECT_EQ(first.ladder_level(), 3);
  // Runs 4 and 5 at levels 1 and 2, then the settle sweep at level 3.
  EXPECT_EQ(first.report().lossy_passes, 3u);
  const std::string image = path("head.ckpt");
  first.save_checkpoint(image);
  EXPECT_TRUE(every_block_at_image_level(image));

  auto resumed = CompressedStateSimulator::load_checkpoint(image, config);
  resumed.resume_circuit(circuit);
  EXPECT_EQ(resumed.ladder_level(), whole.ladder_level());
  EXPECT_EQ(resumed.report().lossy_passes, whole.report().lossy_passes + 1);
}

TEST_F(EscalationTest, ApplyAndMeasureSettleWhatTheyRaise) {
  // No sweep follows an ad-hoc gate or a measurement, so each settles a
  // level it raised: every block ends at the ladder level.
  const std::string dense = path("dense.ckpt");
  save_dense_state(dense);
  const SimConfig config = escalation_config(2, false);
  {
    auto sim = CompressedStateSimulator::load_checkpoint(dense, config);
    sim.apply(qsim::GateOp{qsim::GateKind::kCX, 0, {7, -1}});
    ASSERT_GT(sim.ladder_level(), 0);
    // The gate's sweep was lossless; then one settle sweep, and pass, per
    // level.
    EXPECT_EQ(sim.report().lossy_passes,
              static_cast<std::uint64_t>(sim.ladder_level()));
    const std::string image = path("applied.ckpt");
    sim.save_checkpoint(image);
    EXPECT_TRUE(every_block_at_image_level(image));
  }
  {
    // The collapse zeroes half of each block, so a tighter budget.
    SimConfig tight = config;
    tight.memory_budget_bytes = 2000;
    auto sim = CompressedStateSimulator::load_checkpoint(dense, tight);
    Rng rng(3);
    sim.measure(0, rng);
    ASSERT_GT(sim.ladder_level(), 0);
    const std::string image = path("measured.ckpt");
    sim.save_checkpoint(image);
    EXPECT_TRUE(every_block_at_image_level(image));
  }
}

}  // namespace
}  // namespace cqs::core
