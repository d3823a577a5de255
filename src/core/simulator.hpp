// CompressedStateSimulator — the paper's primary contribution (Sections 3
// and 4): a Schrödinger-style full-state simulator whose state vector
// lives in independently compressed blocks spread across logical ranks.
//
// Per sweep, at most two blocks per worker are decompressed into
// pre-allocated scratch (the MCDRAM discipline of Figure 2), the gate's
// 2x2 unitary is applied where its target qubit's index segment puts the
// amplitude pairs (Figure 3), and the blocks are recompressed. Only a
// non-diagonal gate whose target is in the block or rank segment pairs
// blocks, each with one partner across that qubit; every other gate acts
// on each block alone as a unit kernel. The gate-run scheduler
// (qsim/scheduler.hpp) batches each stretch of consecutive gates whose
// pairing gates all pair across one qubit k into one run, and folds each
// CX(u,v) . D . CX(u,v) with D diagonal on v into one parity-phase kernel.
// A run is one sweep: pairs across k where a pairing gate acts go to
// run_pairs, which applies the unit kernels to each half and the pairing
// kernels across the pair in program order; every other block a unit
// kernel changes goes to run_units alone. So each block pays one codec
// round — and the run one lossy fidelity pass — per run instead of per
// gate, and a run across a rank qubit exchanges each pair once. A
// hybrid compression policy starts lossless (Zstd
// stand-in) and escalates through a pointwise-relative error-bound ladder
// whenever the configured memory budget is exceeded (Section 3.7), while a
// fidelity lower bound F >= prod (1 - delta_i) is maintained (Section 3.8).
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "compression/compressor.hpp"
#include "core/config.hpp"
#include "core/fidelity.hpp"
#include "core/report.hpp"
#include "qsim/circuit.hpp"
#include "qsim/gates.hpp"
#include "qsim/scheduler.hpp"
#include "runtime/block_store.hpp"
#include "runtime/codec_arbiter.hpp"
#include "runtime/comm.hpp"
#include "runtime/partition.hpp"
#include "runtime/qubit_map.hpp"
#include "runtime/scratch.hpp"

namespace cqs::core {

/// Knobs of the run_resilient() recovery loop.
struct RecoveryOptions {
  /// Transport faults survived before the run gives up and rethrows. 0
  /// degenerates to a plain run that still degrades on ENOSPC.
  int max_recoveries = 3;
  /// Wait before the first respawn, in milliseconds; doubles on every
  /// consecutive recovery (exponential backoff). 0 retries immediately.
  int retry_backoff_ms = 100;
};

class CompressedStateSimulator {
 public:
  explicit CompressedStateSimulator(SimConfig config);

  const SimConfig& config() const { return config_; }
  const runtime::Partition& partition() const { return partition_; }

  /// Current logical->physical qubit layout. Identity unless qubit
  /// remapping has relabeled or exchanged positions (or a checkpoint
  /// restored a remapped layout). All public APIs speak logical indices;
  /// the map is exposed for tests and benches.
  const runtime::QubitMap& qubit_map() const { return map_; }

  /// Applies one ad-hoc gate (counts toward the per-gate statistics).
  /// Ad-hoc gates invalidate any recorded circuit position: the gate
  /// cursor resets to 0, so a later checkpoint never claims a resume
  /// point inside a circuit the state has since diverged from.
  void apply(const qsim::GateOp& op);

  /// Applies `circuit` from its first gate. Always starts fresh — applying
  /// a second circuit after a completed one runs all of its gates (the
  /// cursor is scoped to resume semantics; see resume_circuit).
  void apply_circuit(const qsim::Circuit& circuit);

  /// Applies `circuit` from the current gate cursor to the end — after a
  /// checkpoint restore this resumes exactly where the saved run stopped.
  /// The cursor counts gates of the caller's circuit (pre-fusion), so the
  /// same circuit object drives the full run and the resumed half.
  void resume_circuit(const qsim::Circuit& circuit);

  std::uint64_t gate_cursor() const { return gate_cursor_; }

  // --- State queries (decompress read-only; no fidelity cost) ---

  /// Probability that `qubit` measures |1>.
  double probability_one(int qubit);

  /// Sum of squared magnitudes over the full compressed state.
  double norm();

  /// Full state as interleaved re/im doubles. Only for testing-scale
  /// qubit counts (refuses above 26 qubits).
  std::vector<double> to_raw();

  std::vector<qsim::Amplitude> to_amplitudes();

  /// Statistical assertion (quantum-program debugging, Section 1): checks
  /// that qubit's P(|1>) is within `tolerance` of `expected`.
  bool assert_probability(int qubit, double expected, double tolerance);

  /// Expectation of the Pauli-Z string over the qubits in `qubit_mask`:
  /// sum_i (-1)^{popcount(i & mask)} |a_i|^2. With mask = (1<<a)|(1<<b)
  /// this is <Z_a Z_b>, the QAOA MAXCUT cost observable.
  double expectation_pauli_z(std::uint64_t qubit_mask);

  /// Samples one basis state from the compressed distribution without
  /// collapsing (the paper's sampling workloads read the final state).
  std::uint64_t sample(Rng& rng);

  // --- Intermediate measurement (Section 2.2's motivating capability) ---

  /// Projective measurement; collapses, renormalizes, recompresses. Like
  /// an ad-hoc apply(), collapse voids the recorded resume cursor.
  int measure(int qubit, Rng& rng);

  // --- Compression state ---

  int ladder_level() const { return level_; }
  double fidelity_bound() const { return fidelity_.bound(); }
  std::size_t compressed_bytes() const;
  double compression_ratio() const;

  // --- Checkpointing (Section 3.5) ---

  void save_checkpoint(const std::string& path) const;
  static CompressedStateSimulator load_checkpoint(const std::string& path,
                                                  SimConfig config);

  // --- Fault tolerance (auto-checkpointed recovery) ---

  /// Runs `circuit` to completion, surviving transport faults: on a
  /// kTimeout / kRankDead / kFrameCorrupt the failed simulator is torn
  /// down (joining its thread pool and reaping the transport's rank
  /// processes), the loop backs off exponentially, and a fresh simulator
  /// — respawned rank endpoints included — reloads the last autosave at
  /// config.auto_checkpoint_path (or restarts from scratch when none
  /// exists yet) and resumes. Autosaves land at run boundaries, so a
  /// recovered run is bit-identical to the fault-free one. ENOSPC spill
  /// degradation (SimConfig::spill_degrade_on_enospc) is forced on.
  /// After max_recoveries the last fault is rethrown; kProtocol errors
  /// (bugs, not faults) are never retried. Returns the completed
  /// simulator, whose report carries the recovery counters.
  static CompressedStateSimulator run_resilient(
      SimConfig config, const qsim::Circuit& circuit,
      const RecoveryOptions& options = {});

  SimulationReport report() const;

  /// The communicator carrying this run's exchanges — benches and the
  /// rank launcher read its transport (wire stats; the socket backend's
  /// rank-process table) through this.
  runtime::Comm& comm() { return *comm_; }
  const runtime::Comm& comm() const { return *comm_; }

 private:
  struct GateKernel;  // one op resolved against the three index segments
  struct UnitSpec;    // one single-block unit task (selections + kernels)
  struct PairSpec;    // one block-pair task (partner, selections, kernels)
  /// Each kernel's GateKernel::selection on block (rank, block).
  using Selections = std::function<std::vector<std::uint64_t>(int, int)>;

  /// Copyable relaxed counter so the simulator stays movable (checkpoint
  /// load returns by value) while workers bump it concurrently.
  struct InvocationCounter {
    mutable std::atomic<std::uint64_t> value{0};
    InvocationCounter() = default;
    InvocationCounter(const InvocationCounter& other)
        : value(other.get()) {}
    InvocationCounter& operator=(const InvocationCounter& other) {
      value.store(other.get(), std::memory_order_relaxed);
      return *this;
    }
    void bump() const { value.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t get() const {
      return value.load(std::memory_order_relaxed);
    }
  };

  /// Per-worker codec call attribution: wall seconds and invocation
  /// counts split by codec class (lossless zx vs the configured lossy
  /// codec), merged into the report. Counts are deterministic across
  /// worker counts; seconds are wall-clock.
  struct CodecCallStats {
    double lossless_compress_seconds = 0.0;
    double lossy_compress_seconds = 0.0;
    double lossless_decompress_seconds = 0.0;
    double lossy_decompress_seconds = 0.0;
    std::uint64_t lossless_compress_calls = 0;
    std::uint64_t lossy_compress_calls = 0;
    std::uint64_t lossless_decompress_calls = 0;
    std::uint64_t lossy_decompress_calls = 0;
  };

  void init_blocks();
  int global_block(int rank, int block) const {
    return rank * partition_.blocks_per_rank() + block;
  }
  /// Compresses one block at `level`, letting the codec arbiter pick
  /// lossless vs. the configured lossy codec per block. Returns the
  /// payload plus the BlockMeta (level + codec id) describing it. The
  /// worker index selects the timer slot and the pooled CodecScratch, so
  /// steady-state calls only allocate the returned payload.
  std::pair<Bytes, runtime::BlockMeta> encode_block(
      std::span<const double> data, int level, int rank, int block,
      std::size_t worker) const;
  void decompress_block(int rank, int block, std::span<double> out,
                        std::size_t worker) const;
  void decompress_payload(ByteSpan payload, const runtime::BlockMeta& meta,
                          std::span<double> out, std::size_t worker) const;

  /// Shared tail of apply_circuit / resume_circuit: applies the ops of
  /// `circuit` from gate_cursor_ to the end in autosave-interval-aligned
  /// chunks of source gates, saving a checkpoint between chunks when
  /// auto-checkpointing is on. Chunk boundaries are the only cursor
  /// positions where the applied state is an exact source-gate prefix
  /// (fusion emits buffered single-qubit runs out of source order), so
  /// they are the only places an autosave may cut.
  void run_from_cursor(const qsim::Circuit& circuit);
  /// One chunk of run_from_cursor: slices ops [gate_cursor_, end), fuses
  /// them once when batching and fusion are on, plans them through the
  /// qubit-remap pre-pass (with remapping off it only rewrites ops through
  /// the map) and hands each gate stretch to run_segment.
  void run_source_range(const qsim::Circuit& circuit, std::size_t end);
  /// Applies one contiguous stretch of already-physical ops, batched or
  /// per-gate, advancing the cursor by each op's source-gate weight in
  /// `origin_counts` (one entry per op).
  void run_segment(const qsim::Circuit& segment,
                   const std::vector<std::size_t>& origin_counts);
  /// One physical exchange sweep trading a rank-segment position for an
  /// offset-segment position (the data half of a RemapOp; the caller
  /// mirrors the swap into map_). Runs on run_pairs.
  void apply_remap(const qsim::RemapStep& step);
  void apply_single_counted(const qsim::GateOp& op);

  /// One physical op: a SWAP whose legs pair across two qubits
  /// (qsim::kSplitSwap) applies its three CX legs one after another; any
  /// other op is a one-op apply_ops list.
  void apply_impl(const qsim::GateOp& op);
  GateKernel resolve_kernel(const qsim::GateOp& op) const;
  /// One sweep for a list of ops (a scheduled run or a single op) whose
  /// pairing ops all pair blocks across `pair_qubit` (qsim::kPairsNoBlocks
  /// when none does): resolves each op, or each CX . D . CX triple
  /// qsim::starts_parity_phase recognises, to one kernel (a SWAP to three).
  /// Pairs across pair_qubit where some pairing kernel's controls hold go
  /// whole to run_pairs; every other block some unit kernel changes goes
  /// alone to run_units; the rest are skipped. Each swept block is
  /// decompressed once, has every kernel that runs there applied in program
  /// order, and is recompressed once; the sweep records one lossy pass.
  void apply_ops(std::span<const qsim::GateOp> ops, int pair_qubit);

  // --- Block executors: every sweep that rewrites blocks runs on one ---

  /// Rewrites every (rank, block) unit, one parallel_for task per sharing
  /// group (share_groups): the group's first unit decompresses, applies
  /// spec.compute and recompresses, and every other member stores a copy.
  /// Readahead is advised for the first unit K groups ahead. Returns how
  /// many blocks the lossy codec wrote.
  std::uint64_t run_units(const std::vector<std::pair<int, int>>& units,
                          const UnitSpec& spec);
  /// The two-block counterpart: a group's first pair exchanges its
  /// payloads when it spans ranks, decodes both blocks, applies
  /// spec.compute and recompresses both; every other member still
  /// exchanges (the wire is how a rank learns its partner's payload) and
  /// stores copies. Readahead is advised for both blocks of the first pair
  /// K groups ahead. Returns how many blocks the lossy codec wrote.
  std::uint64_t run_pairs(const std::vector<std::pair<int, int>>& units,
                          const PairSpec& spec);
  /// Splits a sweep's units into groups that compute from equal inputs,
  /// ordered by each group's first unit, members ascending. Unit i reads
  /// blocks[i * per_unit] onward; two units are equal when the first
  /// blocks share a rank and each block read has the same codec, payload
  /// bytes and selections — compared byte for byte, never by a hash.
  /// Without `selections` (sweeps that never share) or with the cache off,
  /// every unit is a group of its own. Adds to the report's cache counts.
  std::vector<std::vector<std::size_t>> share_groups(
      std::span<const std::pair<int, int>> blocks, std::size_t per_unit,
      const Selections& selections);
  /// Stores a copy of a group's output on a member's block. The arbiter is
  /// seeded with the stored codec although no decision ran, so later codec
  /// choices follow the stored state, not which unit of a group computed.
  void store_copy(int rank, int block, const Bytes& payload,
                  runtime::BlockMeta meta);
  /// Installs a rewritten block, then streams it to the spill tier when
  /// streaming spill is on — the one place executors write blocks.
  void store_block(int rank, int block, Bytes payload,
                   runtime::BlockMeta meta);
  /// Charges one lossy pass at the current level to the fidelity ledger
  /// when the sweep that just finished had the lossy codec write at least
  /// one block.
  void record_lossy_pass(std::uint64_t lossy_blocks);
  /// Read-only reduction behind the state queries: decompresses each unit
  /// and returns block_sum(amps, count, rank, block) for it, one slot per
  /// unit in unit order. Callers add the slots in that order, so a query's
  /// bits never depend on how the pool handed out the units.
  std::vector<double> block_sums(
      const std::vector<std::pair<int, int>>& units,
      const std::function<double(const qsim::Amplitude* amps,
                                 std::uint64_t count, int rank, int block)>&
          block_sum);

  // --- Out-of-core tier maintenance (Section 3.7 extended: the resident
  // --- tier is what the Eq. 8 budget governs once spilling is on) ---

  /// Settles finished write-behind spills, then enqueues enough async
  /// evictions to bring projected resident bytes under the resident
  /// budget, and refreshes the streaming-spill flag. Called between
  /// parallel regions (gate boundaries, measure, checkpoint restore).
  void maintain_tiers();
  /// Waits for every pending write-behind job and commits the ones whose
  /// block is still untouched. The first job failure (ENOSPC etc.) is
  /// rethrown after all jobs settle, so no future is abandoned.
  void settle_pending_spills();
  /// Waits for every pending write-behind job and discards it: finished
  /// segments go back to the spill free-list, write failures are swallowed
  /// (the state they belonged to is being thrown away). Required before
  /// replacing ranks_ wholesale (checkpoint restore) — per-slot generation
  /// counters restart in the new stores, so a settle after the swap would
  /// wrongly commit pre-swap segments onto freshly loaded blocks.
  void discard_pending_spills();
  /// Streaming spill: once the state exceeds the resident budget, every
  /// freshly (re)compressed block is moved to the spill tier as soon as
  /// its owning worker stores it. Unconditional while the flag is set, so
  /// the spill/fault counts stay schedule-independent.
  void maybe_stream_spill(int rank, int block);
  /// Resident bytes minus spill writes already in flight — what
  /// enforce_budget compares against the (memory) budget. Equals
  /// compressed_bytes() whenever spilling is off.
  std::size_t resident_occupancy() const;

  /// Escalates the error ladder and recompresses every block until the
  /// compressed total fits the budget (or the ladder is exhausted).
  void enforce_budget();
  /// Recompresses every block at `new_level` through run_units (never
  /// shared); returns how many blocks the arbiter actually sent through
  /// the lossy codec (adaptive blocks can stay lossless).
  std::uint64_t recompress_all(int new_level);
  void note_gate_finished(double gate_seconds);
  /// Saves to auto_checkpoint_path when checkpoint_interval_gates more
  /// gates have completed since the last autosave. Called only where the
  /// gate cursor is consistent with the applied state (run boundaries), so
  /// a resume from the file never re-applies or skips a gate. A failed
  /// autosave is counted, not fatal — the previous file survives the
  /// atomic save, so recovery just loses the newest interval.
  void maybe_autosave();
  /// True once a mid-run ENOSPC disabled the spill tier.
  bool degraded() const { return spill_degraded_.get() > 0; }

  /// One write-behind spill in flight: a pool job owns the payload handle
  /// and fills `segment`; the main thread commits (or discards) it at the
  /// next settle, gated on the block's generation.
  struct PendingSpill {
    int rank = 0;
    int block = 0;
    std::uint64_t generation = 0;
    std::size_t bytes = 0;
    std::shared_ptr<runtime::SpillSegment> segment;
    std::future<void> done;
  };

  SimConfig config_;
  runtime::Partition partition_;
  // Declared before ranks_ (and destroyed after them): the stores return
  // their segments to spill_ in their destructors.
  std::unique_ptr<runtime::TierStats> tier_stats_;
  std::unique_ptr<runtime::SpillFile> spill_;
  std::vector<runtime::BlockStore> ranks_;
  std::unique_ptr<runtime::Comm> comm_;
  std::unique_ptr<compression::Compressor> lossless_;
  std::unique_ptr<compression::Compressor> lossy_;
  std::uint8_t lossy_codec_id_ = compression::kLosslessCodecId;
  std::unique_ptr<runtime::CodecArbiter> arbiter_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<runtime::ScratchArena> scratch_;
  mutable std::vector<PhaseTimers> worker_timers_;
  mutable std::vector<CodecCallStats> codec_stats_;  // one per worker

  int level_ = 0;  ///< 0 = lossless; k > 0 = error_ladder[k-1]
  FidelityTracker fidelity_;
  std::uint64_t gate_cursor_ = 0;

  /// Kernel backend the apply loops dispatch to (detected once at
  /// construction from config_.enable_simd_kernels and the host CPU).
  qsim::KernelBackend backend_ = qsim::KernelBackend::kScalar;

  // Qubit remapping (logical->physical relabeling).
  runtime::QubitMap map_;

  // Statistics.
  std::uint64_t gates_ = 0;
  std::uint64_t batched_runs_ = 0;
  std::uint64_t batched_gates_ = 0;  ///< scheduled ops applied inside runs
  std::uint64_t remap_sweeps_ = 0;
  std::uint64_t swaps_relabeled_ = 0;
  std::uint64_t rank_gates_localized_ = 0;
  std::uint64_t rank_gates_in_place_ = 0;
  std::uint64_t remap_sweeps_avoided_ = 0;
  CacheStats sharing_;  ///< gate sweeps' shared (hits) and computed units
  double wall_seconds_ = 0.0;
  double min_ratio_ = 0.0;  ///< 0 until first gate
  bool budget_exceeded_ = false;

  // Out-of-core bookkeeping (mutated between parallel regions only).
  std::vector<PendingSpill> pending_spills_;
  std::size_t pending_spill_bytes_ = 0;
  std::size_t evict_cursor_ = 0;  ///< round-robin global block scan position
  bool stream_spill_ = false;

  // Fault tolerance. spill_degraded_ / spill_write_failures_ are bumped by
  // workers when a streaming spill hits ENOSPC under degradation, hence
  // the copyable-atomic counters; the autosave fields are main-thread only
  // (run boundaries). recoveries_ / recovery_backoff_ms_ are stamped onto
  // the final simulator by run_resilient so the report can carry them.
  InvocationCounter spill_degraded_;        ///< > 0 once spilling disabled
  InvocationCounter spill_write_failures_;  ///< ENOSPC writes ridden out
  std::uint64_t autosaves_ = 0;
  std::uint64_t autosave_failures_ = 0;
  double autosave_seconds_ = 0.0;
  std::uint64_t gates_at_last_autosave_ = 0;  ///< gate_cursor_ at last save
  std::uint64_t recoveries_ = 0;
  std::uint64_t recovery_backoff_ms_ = 0;
};

}  // namespace cqs::core
