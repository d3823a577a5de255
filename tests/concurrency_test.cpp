// Concurrency properties: shared structures survive parallel hammering,
// and — critically for reproducible science — simulation results are
// bit-identical regardless of worker-thread count, because every block's
// compression is deterministic and blocks are independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "runtime/block_store.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

TEST(ConcurrencyTest, BlockStoreTotalBytesConsistent) {
  runtime::BlockStore store(256);
  ThreadPool pool(8);
  // Many rounds of concurrent updates to distinct blocks.
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(256, [&](std::size_t i, std::size_t) {
      store.set_block(static_cast<int>(i),
                      Bytes((i % 31) + round, std::byte{0}), {0});
    });
  }
  std::size_t expected = 0;
  for (int b = 0; b < 256; ++b) expected += (b % 31) + 9;
  EXPECT_EQ(store.total_bytes(), expected);
}

TEST(ConcurrencyTest, ResultsIdenticalAcrossThreadCounts) {
  const auto circuit =
      circuits::qaoa_maxcut_circuit({.num_qubits = 12});
  std::vector<double> reference;
  for (int threads : {1, 2, 8}) {
    core::SimConfig config;
    config.num_qubits = 12;
    config.num_ranks = 4;
    config.blocks_per_rank = 8;
    config.threads = threads;
    config.initial_level = 3;  // lossy: determinism must still hold
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
    } else {
      // tol = 0: results must be bit-identical across thread counts.
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
    }
  }
}

using test::random_circuit;  // shared with the spill suite (test_util)

/// The deterministic subset of a report: everything except wall-clock
/// times must be identical across worker counts, the cache's hit/miss
/// split, codec calls and arbiter choices included.
struct DeterministicReport {
  std::uint64_t gates, batched_runs, batched_gates, lossy_passes;
  double fidelity_bound;
  int final_ladder_level;
  std::uint64_t final_lossless_blocks, final_lossy_blocks;
  std::size_t final_lossless_bytes, final_lossy_bytes;
  std::uint64_t cache_hits, cache_misses;
  std::uint64_t lossless_compress, lossy_compress;
  std::uint64_t lossless_decompress, lossy_decompress;
  std::uint64_t lossless_choices, lossy_choices, codec_switches;
  bool operator==(const DeterministicReport&) const = default;
};

DeterministicReport deterministic_fields(const core::SimulationReport& r) {
  return {r.gates,
          r.batched_runs,
          r.batched_gates,
          r.lossy_passes,
          r.fidelity_bound,
          r.final_ladder_level,
          r.final_lossless_blocks,
          r.final_lossy_blocks,
          r.final_lossless_bytes,
          r.final_lossy_bytes,
          r.cache.hits,
          r.cache.misses,
          r.lossless_compress_invocations,
          r.lossy_compress_invocations,
          r.lossless_decompress_invocations,
          r.lossy_decompress_invocations,
          r.codec_lossless_choices,
          r.codec_lossy_choices,
          r.codec_switches};
}

TEST(ConcurrencyTest, RandomizedCircuitsBitIdenticalAcrossThreadCounts) {
  // Randomized circuits x {fixed, adaptive} x {1, 2, hw} worker threads:
  // states must be bit-identical and the deterministic report fields must
  // agree — per-block compression is deterministic, blocks are
  // independent, sharing groups are planned before a sweep starts, and
  // (for adaptive) the arbiter's hysteresis follows the stored codec of
  // every unit that took a shared output.
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  for (const std::string policy : {"fixed", "adaptive"}) {
    for (std::uint64_t seed : {11u, 42u}) {
      const auto circuit = random_circuit(11, 90, seed);
      std::vector<double> reference;
      DeterministicReport reference_report{};
      for (int threads : {1, 2, hw}) {
        core::SimConfig config;
        config.num_qubits = 11;
        config.num_ranks = 2;
        config.blocks_per_rank = 8;
        config.threads = threads;
        config.initial_level = 2;  // lossy: determinism must still hold
        config.codec_policy = policy;
        core::CompressedStateSimulator sim(config);
        sim.apply_circuit(circuit);
        const auto report = deterministic_fields(sim.report());
        const auto raw = sim.to_raw();
        if (reference.empty()) {
          reference = raw;
          reference_report = report;
        } else {
          // tol = 0: bit-identical states regardless of worker count.
          CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
          EXPECT_EQ(report, reference_report)
              << "policy " << policy << " seed " << seed << " threads "
              << threads;
        }
      }
    }
  }
}

TEST(ConcurrencyTest, BudgetEscalationIdenticalAcrossThreadCounts) {
  // The ladder escalates mid-run under a tight budget; the escalation
  // point and the resulting state must not depend on the worker count.
  const auto circuit = random_circuit(10, 60, 7);
  std::vector<double> reference;
  DeterministicReport reference_report{};
  for (int threads : {1, 4}) {
    core::SimConfig config;
    config.num_qubits = 10;
    config.num_ranks = 2;
    config.blocks_per_rank = 4;
    config.threads = threads;
    config.codec_policy = "adaptive";
    config.memory_budget_bytes = 6 * 1024;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = deterministic_fields(sim.report());
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
      reference_report = report;
    } else {
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
      EXPECT_EQ(report, reference_report);
    }
  }
}

TEST(ConcurrencyTest, FidelityBoundIdenticalAcrossThreadCounts) {
  const auto circuit =
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 6});
  double reference_bound = -1.0;
  for (int threads : {1, 8}) {
    core::SimConfig config;
    config.num_qubits = 12;
    config.num_ranks = 2;
    config.blocks_per_rank = 8;
    config.threads = threads;
    config.initial_level = 2;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    if (reference_bound < 0.0) {
      reference_bound = sim.fidelity_bound();
    } else {
      EXPECT_DOUBLE_EQ(sim.fidelity_bound(), reference_bound);
    }
  }
}

TEST(ConcurrencyTest, PerCodecInvocationCountsDeterministicAcrossThreads) {
  // The report's per-codec-class attribution: with every unit computing
  // its own output (the cache off; DeterministicReport pins the shared
  // counts), the invocation counts are a pure function of the workload —
  // identical for 1, 2, and hw worker threads — and they partition the
  // total codec invocations. The seconds are wall-clock and only
  // sanity-checked (finite, nonnegative, nonzero where called).
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const auto circuit = random_circuit(11, 80, 3);
  std::uint64_t ref_counts[4] = {0, 0, 0, 0};
  bool have_reference = false;
  for (int threads : {1, 2, hw}) {
    core::SimConfig config;
    config.num_qubits = 11;
    config.num_ranks = 2;
    config.blocks_per_rank = 8;
    config.threads = threads;
    config.initial_level = 1;
    config.codec_policy = "adaptive";
    config.enable_cache = false;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = sim.report();
    const std::uint64_t counts[4] = {report.lossless_compress_invocations,
                                     report.lossy_compress_invocations,
                                     report.lossless_decompress_invocations,
                                     report.lossy_decompress_invocations};
    EXPECT_EQ(counts[0] + counts[1], report.compress_invocations);
    EXPECT_EQ(counts[2] + counts[3], report.decompress_invocations);
    for (double seconds :
         {report.lossless_compress_seconds, report.lossy_compress_seconds,
          report.lossless_decompress_seconds,
          report.lossy_decompress_seconds}) {
      EXPECT_GE(seconds, 0.0);
      EXPECT_TRUE(std::isfinite(seconds));
    }
    // The adaptive run writes both codec classes; time attribution must
    // follow wherever invocations happened.
    EXPECT_GT(counts[0] + counts[1], 0u);
    if (counts[0] > 0) EXPECT_GT(report.lossless_compress_seconds, 0.0);
    if (counts[1] > 0) EXPECT_GT(report.lossy_compress_seconds, 0.0);
    if (!have_reference) {
      for (int i = 0; i < 4; ++i) ref_counts[i] = counts[i];
      have_reference = true;
    } else {
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(counts[i], ref_counts[i]) << "threads " << threads
                                            << " field " << i;
      }
    }
  }
}

TEST(ConcurrencyTest, RemappedRunsBitIdenticalAcrossThreadCounts) {
  // The qubit-remap pre-pass plans single-threaded and the remap sweep
  // touches disjoint block pairs, so remap-on runs — including relabeled
  // swaps, remap exchanges, and the remapped comm/stat counters — must be
  // bit-identical across worker counts on every circuit family, and the
  // remapped layout itself must not depend on the thread count.
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const auto circuits_under_test = {
      circuits::qft_circuit({.num_qubits = 11}),
      random_circuit(11, 90, 23),  // SWAP-heavy randomized mix
  };
  for (const auto& circuit : circuits_under_test) {
    std::vector<double> reference;
    DeterministicReport reference_report{};
    std::uint64_t reference_comm_bytes = 0;
    std::uint64_t reference_remaps[4] = {0, 0, 0, 0};
    std::vector<int> reference_map;
    for (int threads : {1, 2, hw}) {
      core::SimConfig config;
      config.num_qubits = 11;
      config.num_ranks = 4;
      config.blocks_per_rank = 4;
      config.threads = threads;
      config.enable_qubit_remap = true;
      core::CompressedStateSimulator sim(config);
      sim.apply_circuit(circuit);
      const auto report = sim.report();
      const auto fields = deterministic_fields(report);
      const std::uint64_t remaps[4] = {report.remap_sweeps,
                                       report.swaps_relabeled,
                                       report.rank_gates_localized,
                                       report.remap_exchanges_avoided};
      const auto raw = sim.to_raw();
      if (reference.empty()) {
        reference = raw;
        reference_report = fields;
        reference_comm_bytes = report.comm_bytes;
        for (int i = 0; i < 4; ++i) reference_remaps[i] = remaps[i];
        reference_map = sim.qubit_map().physical_table();
      } else {
        CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
        EXPECT_EQ(fields, reference_report) << "threads " << threads;
        EXPECT_EQ(report.comm_bytes, reference_comm_bytes)
            << "threads " << threads;
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(remaps[i], reference_remaps[i])
              << "threads " << threads << " field " << i;
        }
        EXPECT_EQ(sim.qubit_map().physical_table(), reference_map)
            << "threads " << threads;
      }
    }
  }
}

TEST(ConcurrencyTest, RemappedLossyRunsDeterministicAcrossThreadCounts) {
  // Same property at a lossy ladder level with the adaptive arbiter:
  // remap sweeps recompress through the same per-block decision machinery
  // as gates, so worker count must not leak into codec choices either.
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const auto circuit = random_circuit(11, 90, 31);
  std::vector<double> reference;
  DeterministicReport reference_report{};
  for (int threads : {1, 2, hw}) {
    core::SimConfig config;
    config.num_qubits = 11;
    config.num_ranks = 4;
    config.blocks_per_rank = 4;
    config.threads = threads;
    config.initial_level = 2;
    config.codec_policy = "adaptive";
    config.enable_qubit_remap = true;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = deterministic_fields(sim.report());
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
      reference_report = report;
    } else {
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
      EXPECT_EQ(report, reference_report) << "threads " << threads;
    }
  }
}

TEST(ConcurrencyTest, CacheThrashAndLadderEscalationIdenticalAcrossThreads) {
  // Worst-case executor conditions at once: sharing on, the adaptive
  // arbiter, and a budget tight enough to force ladder escalation between
  // gates. States and the deterministic report fields must still be
  // identical across thread counts.
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const auto circuit = random_circuit(10, 70, 57);
  std::vector<double> reference;
  DeterministicReport reference_report{};
  for (int threads : {1, 2, hw}) {
    core::SimConfig config;
    config.num_qubits = 10;
    config.num_ranks = 2;
    config.blocks_per_rank = 8;
    config.threads = threads;
    config.codec_policy = "adaptive";
    config.memory_budget_bytes = 6 * 1024;  // forces escalation mid-run
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = deterministic_fields(sim.report());
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
      reference_report = report;
    } else {
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0) << "threads=" << threads;
      EXPECT_EQ(report, reference_report) << "threads=" << threads;
    }
  }
}

TEST(ConcurrencyTest, CheckpointMidCircuitResumesBitIdenticalAtTwoWorkers) {
  // save_checkpoint after multi-worker gates must observe every block
  // recompressed and stored: resuming the checkpoint and finishing the
  // circuit must be bit-identical to the uninterrupted run.
  const auto circuit = random_circuit(10, 60, 71);
  const std::uint64_t half = circuit.ops().size() / 2;

  core::SimConfig config;
  config.num_qubits = 10;
  config.num_ranks = 2;
  config.blocks_per_rank = 8;
  config.threads = 2;

  // Both runs go through the per-gate apply path (apply_circuit's fusion
  // pre-pass composes matrices and would be a different — equally valid —
  // arithmetic, which tol = 0 would flag).
  core::CompressedStateSimulator full(config);
  for (const auto& op : circuit.ops()) full.apply(op);
  const auto reference = full.to_raw();

  const auto dir = std::filesystem::temp_directory_path() /
                   "cqs_ConcurrencyTest_MidCircuitCheckpoint";
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "mid.bin").string();

  core::CompressedStateSimulator first_half(config);
  for (std::uint64_t i = 0; i < half; ++i) {
    first_half.apply(circuit.ops()[i]);
  }
  first_half.save_checkpoint(file);

  auto resumed =
      core::CompressedStateSimulator::load_checkpoint(file, config);
  for (std::uint64_t i = half; i < circuit.ops().size(); ++i) {
    resumed.apply(circuit.ops()[i]);
  }
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), reference, 0.0);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ConcurrencyTest, QueriesBitIdenticalAcrossThreadCountsAndRepeats) {
  // The read-only queries reduce one sum per block and add the sums in
  // block order, so their bits cannot depend on which worker the pool
  // handed a block to. measure() rescales by 1/sqrt(p), so the collapsed
  // state inherits the same guarantee.
  qsim::Circuit circuit(16);
  for (int q = 0; q < 16; ++q) circuit.ry(q, 0.3 + 0.17 * q);
  const auto mixer = random_circuit(16, 40, 83);
  for (const auto& op : mixer.ops()) circuit.append(op);

  core::SimConfig config;
  config.num_qubits = 16;
  config.num_ranks = 2;
  config.blocks_per_rank = 32;
  config.threads = 1;
  const auto dir = std::filesystem::temp_directory_path() /
                   "cqs_ConcurrencyTest_QueryDeterminism";
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "state.bin").string();
  {
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    sim.save_checkpoint(file);
  }

  std::vector<double> reference_queries;
  std::vector<double> reference_collapsed;
  for (int threads : {1, 2, 4}) {
    config.threads = threads;
    for (int repeat = 0; repeat < 20; ++repeat) {
      auto sim = core::CompressedStateSimulator::load_checkpoint(file, config);
      std::vector<double> queries = {sim.norm()};
      for (int q = 0; q < 16; ++q) queries.push_back(sim.probability_one(q));
      queries.push_back(sim.expectation_pauli_z(0b1000000000000011));
      queries.push_back(sim.expectation_pauli_z(0xffff));
      Rng rng(5);
      sim.measure(3, rng);
      const auto collapsed = sim.to_raw();
      if (reference_queries.empty()) {
        reference_queries = queries;
        reference_collapsed = collapsed;
      } else {
        EXPECT_EQ(queries, reference_queries)
            << "threads " << threads << " repeat " << repeat;
        CQS_EXPECT_STATES_CLOSE(collapsed, reference_collapsed, 0.0)
            << "threads " << threads << " repeat " << repeat;
      }
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace cqs
