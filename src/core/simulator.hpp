// CompressedStateSimulator — the paper's primary contribution (Sections 3
// and 4): a Schrödinger-style full-state simulator whose state vector
// lives in independently compressed blocks spread across logical ranks.
//
// Per sweep, each worker decompresses the blocks of one unit into
// pre-allocated scratch (the MCDRAM discipline of Figure 2), the gate's
// 2x2 unitary is applied where its target qubit's index segment puts the
// amplitude pairs (Figure 3), and the blocks are recompressed. Only a
// non-diagonal gate whose target is in the block or rank segment pairs
// blocks, each with one partner across that qubit; every other gate acts
// on each block alone as a unit kernel. The gate-run scheduler
// (qsim/scheduler.hpp) batches each stretch of consecutive gates whose
// pairing gates all pair across one qubit k into one run, and folds each
// CX(u,v) . D . CX(u,v) with D diagonal on v into one parity-phase kernel.
// Without a memory budget, and for blocks of at most 64 KiB, it then
// merges consecutive runs into runs across two qubits. A run is one sweep
// of the block executor, run_sweep, whose units hold one block, a pair
// across k or a cell of four blocks across both qubits of a merged run:
// each unit gets the unit kernels on each block and the pairing kernels
// across their own qubit in program order, and every other block a unit
// kernel changes is a unit alone. So each block pays one codec round — and
// the run one lossy fidelity pass — per run instead of per gate, and a run
// across a rank qubit exchanges each cross-rank pair once. A hybrid
// compression policy starts lossless (zx) and escalates through a
// pointwise-relative error-bound ladder, one lossy codec for every level
// above 0, whenever the configured memory budget is exceeded (Section
// 3.7), while a fidelity lower bound F >= prod (1 - delta_i) is maintained
// (Section 3.8).
#pragma once

#include <atomic>
#include <functional>
#include <limits>
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
#include "runtime/comm.hpp"
#include "runtime/partition.hpp"
#include "runtime/qubit_map.hpp"
#include "runtime/scratch.hpp"

namespace cqs::core {

class CompressedStateSimulator {
 public:
  explicit CompressedStateSimulator(SimConfig config);

  const SimConfig& config() const { return config_; }
  const runtime::Partition& partition() const { return partition_; }

  /// Current logical->physical qubit layout. Identity unless a circuit
  /// relabeled a SWAP that nothing after it touched (or a checkpoint
  /// restored such a layout). All public APIs speak logical indices; the
  /// map is exposed for tests and benches.
  const runtime::QubitMap& qubit_map() const { return map_; }

  /// Applies one ad-hoc gate (counts toward the per-gate statistics). An
  /// op that qsim::Circuit::append would reject throws the same exception
  /// here, before anything changes. Ad-hoc gates invalidate any recorded
  /// circuit position: the gate cursor resets to 0, so a later checkpoint
  /// never claims a resume point inside a circuit the state has since
  /// diverged from.
  void apply(const qsim::GateOp& op);

  /// Applies `circuit` from its first gate. Always starts fresh — applying
  /// a second circuit after a completed one runs all of its gates (the
  /// cursor is scoped to resume semantics; see resume_circuit).
  void apply_circuit(const qsim::Circuit& circuit);

  /// Applies `circuit` from the current gate cursor to the end — after a
  /// checkpoint restore this resumes exactly where the saved run stopped.
  /// The cursor counts gates of the caller's circuit (pre-fusion), so the
  /// same circuit object drives the full run and the resumed half. Throws
  /// std::invalid_argument when the cursor lies beyond the circuit, or
  /// when the recorded circuit digest is known and differs from the
  /// digest of this circuit's first gate_cursor() gates: the state was
  /// produced by another circuit.
  void resume_circuit(const qsim::Circuit& circuit);

  std::uint64_t gate_cursor() const { return gate_cursor_; }

  // --- State queries (decompress read-only; no fidelity cost) ---
  //
  // norm(), sample() and probability_one() of a block- or rank-segment
  // qubit need only each block's mass, sum |a_k|^2 of its decoded
  // amplitudes. The simulator caches that mass per block until the block
  // is next rewritten, so they decode only blocks rewritten since a query
  // last decoded them. expectation_pauli_z() of a mask with no offset bit
  // adds the same masses. With one or two offset bits it adds each block's
  // W(m) = sum_k (-1)^popcount(k & m) |a_k|^2 for the mask's offset part
  // m: a block it decodes fills its Z row, W(m) for every m with one or
  // two bits, so until the block is rewritten no such query decodes it
  // again. A fill adds k(k+1)/2 terms per amplitude for k offset bits, so
  // at large k one such query per rewrite costs more than a decode (see
  // README, "Z rows"). probability_one() of an offset qubit,
  // expectation_pauli_z() with three or more offset bits and to_raw()
  // decode every block they read. A cached sum is the value a decode
  // would give, added in the same order (a row entry up to the sign of an
  // exact zero, which no total can see), so caching moves no bit.

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
  /// collapsing (the paper's sampling workloads read the final state):
  /// picks a block by the cached block masses, then an offset within it.
  /// A shot decodes its chosen block, plus every block whose mass is not
  /// cached, so a batch of shots on an unchanged state costs one full
  /// decode sweep and then one block per shot.
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

  // --- Fault tolerance (resume from autosave, ride out a full disk) ---

  /// Runs `circuit` to completion with ENOSPC spill degradation
  /// (SimConfig::spill_degrade_on_enospc) forced on. When a file exists at
  /// config.auto_checkpoint_path — the last autosave of a run that crashed
  /// — it is loaded and the circuit resumes from its cursor; otherwise the
  /// circuit runs from the start. A file whose circuit digest differs from
  /// this circuit's prefix (another circuit's autosave) makes
  /// resume_circuit throw std::invalid_argument and is left in place.
  /// Autosaves land at run boundaries, so a restarted run is
  /// bit-identical to an uninterrupted one. Any other failure propagates.
  static CompressedStateSimulator run_resilient(SimConfig config,
                                                const qsim::Circuit& circuit);

  SimulationReport report() const;

  /// The communicator carrying this run's exchanges; its counters feed
  /// the report's communication fields.
  runtime::Comm& comm() { return *comm_; }
  const runtime::Comm& comm() const { return *comm_; }

 private:
  struct GateKernel;  // one op resolved against the three index segments
  struct SweepSpec;   // one run_sweep task (partner, selections, kernels)
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
  /// codec), and the computed blocks whose class changed, merged into the
  /// report. Counts are deterministic across worker counts; seconds are
  /// wall-clock.
  struct CodecCallStats {
    double lossless_compress_seconds = 0.0;
    double lossy_compress_seconds = 0.0;
    double lossless_decompress_seconds = 0.0;
    double lossy_decompress_seconds = 0.0;
    std::uint64_t lossless_compress_calls = 0;
    std::uint64_t lossy_compress_calls = 0;
    std::uint64_t lossless_decompress_calls = 0;
    std::uint64_t lossy_decompress_calls = 0;
    std::uint64_t codec_switches = 0;
  };

  void init_blocks();
  int global_block(int rank, int block) const {
    return rank * partition_.blocks_per_rank() + block;
  }
  /// Compresses `data` at the current level: zx at level 0, the configured
  /// lossy codec above it. Returns the payload plus the BlockMeta (level +
  /// codec id) describing it. The worker index selects the timer slot and
  /// the pooled CodecScratch, so steady-state calls only allocate the
  /// returned payload.
  std::pair<Bytes, runtime::BlockMeta> encode_block(
      std::span<const double> data, std::size_t worker) const;
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
  /// they are the only places an autosave may cut. Each chunk settles a
  /// pending escalation before its autosave.
  void run_from_cursor(const qsim::Circuit& circuit);
  /// One chunk of run_from_cursor: slices ops [gate_cursor_, end), fuses
  /// them once when batching and fusion are on, plans them with
  /// qsim::plan_remaps (the SWAPs `relabel` flags, one flag per op of
  /// `circuit`, go into the map) and hands the gate stretch to
  /// run_segment.
  void run_source_range(const qsim::Circuit& circuit, std::size_t end,
                        const std::vector<bool>& relabel);
  /// Applies one contiguous stretch of already-physical ops, batched or
  /// per-gate, advancing the cursor by each op's source-gate weight in
  /// `origin_counts` (one entry per op).
  void run_segment(const qsim::Circuit& segment,
                   const std::vector<std::size_t>& origin_counts);
  void apply_single_counted(const qsim::GateOp& op);

  /// One physical op: a SWAP whose legs pair across two qubits
  /// (qsim::kSplitSwap) applies its three CX legs one after another; any
  /// other op is a one-op apply_ops list.
  void apply_impl(const qsim::GateOp& op);
  GateKernel resolve_kernel(const qsim::GateOp& op) const;
  /// One sweep for a list of ops (a scheduled run or a single op) whose
  /// pairing ops all pair blocks across `pair_qubit` or
  /// `second_pair_qubit` (qsim::kPairsNoBlocks when none, or no second,
  /// does): resolves each op, or each CX . D . CX triple
  /// qsim::starts_parity_phase recognises, to one kernel (a SWAP to three).
  /// Units span both qubits: a pair across one, a cell of four blocks
  /// across two. Units where some pairing kernel's controls hold are swept
  /// whole; every other block some unit kernel changes is swept alone; the
  /// rest are skipped, or, with an escalation pending, re-encoded at the
  /// new level with no kernel. Each swept block is decompressed once, has
  /// every kernel that runs there applied in program order, and is
  /// recompressed once; the sweep records one lossy pass.
  void apply_ops(std::span<const qsim::GateOp> ops, int pair_qubit,
                 int second_pair_qubit = qsim::kPairsNoBlocks);

  // --- The block executor: every sweep that rewrites blocks runs on it ---

  /// Rewrites the blocks of every unit, one parallel_for task per sharing
  /// group (share_groups). A unit (rank, block) holds that block, plus the
  /// blocks across the rank and block bits the spec sets: 1, 2 or 4
  /// blocks, one scratch buffer each. The group's first unit decodes its
  /// blocks (those on the partner rank from the payloads each cross-rank
  /// pair exchanged), applies spec.compute and encodes them; every other
  /// member exchanges too when the unit spans ranks (an exchange is how a
  /// rank learns its partner's payload) and stores copies; the first unit
  /// stores last. A task touches only its group's blocks, so each block
  /// has one owner in the region. A computed block whose codec class
  /// differs from the payload it replaces counts one codec switch; a copy
  /// counts none.
  void run_sweep(const std::vector<std::pair<int, int>>& units,
                 const SweepSpec& spec);
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
  /// Installs a rewritten block and voids its cached sums, then streams
  /// it to the spill tier when streaming spill is on — the one place
  /// executors write blocks.
  void store_block(int rank, int block, Bytes payload,
                   runtime::BlockMeta meta);
  /// Charges one lossy pass at the current level to the fidelity ledger
  /// when the level is lossy. Called once after each sweep that rewrote
  /// blocks.
  void record_lossy_pass();
  /// Read-only reduction behind the state queries: decompresses each unit
  /// and returns block_sum(amps, count, rank, block) for it, one slot per
  /// unit in unit order. Callers add the slots in that order, so a query's
  /// bits never depend on how the pool handed out the units.
  std::vector<double> block_sums(
      const std::vector<std::pair<int, int>>& units,
      const std::function<double(const qsim::Amplitude* amps,
                                 std::uint64_t count, int rank, int block)>&
          block_sum);
  /// Decodes (through block_sums) the units whose cache slot lacks the
  /// mass, or with `rows` the Z row, and fills their slots. A row fill
  /// caches the mass too.
  void fill_cache(const std::vector<std::pair<int, int>>& units, bool rows);
  /// Each unit's block mass, one slot per unit in unit order, decoding
  /// only the units whose mass is not cached.
  std::vector<double> block_masses(
      const std::vector<std::pair<int, int>>& units);

  // --- Out-of-core tier maintenance (Section 3.7 extended: the resident
  // --- tier is what the Eq. 8 budget governs once spilling is on) ---

  /// Evicts blocks round-robin until the resident tier fits the resident
  /// budget, each spilled at once on the calling thread, and refreshes
  /// the streaming-spill flag. Called between parallel regions (gate
  /// boundaries, measure, checkpoint restore), so the resident tier fits
  /// its budget whenever it returns, unless the run is degraded.
  void maintain_tiers();
  /// Streaming spill: once the state exceeds the resident budget, every
  /// freshly (re)compressed block is moved to the spill tier as soon as
  /// its owning worker stores it. Unconditional while the flag is set, so
  /// the spill/fault counts stay schedule-independent.
  void maybe_stream_spill(int rank, int block);
  /// Spills (rank, block) for eviction and streaming spill alike. Under
  /// spill_degrade_on_enospc an ENOSPC leaves the block resident and
  /// degrades the run instead of throwing; any other SpillError
  /// propagates.
  void spill_or_degrade(int rank, int block);

  /// Called at run boundaries: when the compressed total is over the
  /// budget, raises the ladder one level and marks the escalation pending,
  /// or, with no level left, sets budget_exceeded_. Recompresses nothing.
  void enforce_budget();
  /// Where no gate sweep follows (the end of each run_from_cursor chunk,
  /// apply() and measure()): while an escalation is pending, recompresses
  /// every block at the current level through run_sweep (never shared),
  /// records one lossy pass and checks the budget again.
  void settle_escalation();
  void note_gate_finished(double gate_seconds);
  /// Saves to auto_checkpoint_path when checkpoint_interval_gates more
  /// gates have completed since the last autosave. Called only where the
  /// gate cursor is consistent with the applied state (run boundaries), so
  /// a resume from the file never re-applies or skips a gate. A failed
  /// autosave is counted, not fatal — the previous file survives the
  /// atomic save, so recovery just loses the newest interval.
  void maybe_autosave();
  /// True once a mid-run ENOSPC disabled the spill tier.
  bool degraded() const { return spill_write_failures_.get() > 0; }

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
  std::unique_ptr<ThreadPool> pool_;
  /// Whether build_schedule merges runs across two qubits: batching on,
  /// no memory budget and blocks of at most 64 KiB. Scratch then holds
  /// four block buffers per worker, paid for by 16-bit LZ77 chain links.
  bool merge_runs_ = false;
  std::unique_ptr<runtime::ScratchArena> scratch_;
  mutable std::vector<PhaseTimers> worker_timers_;
  mutable std::vector<CodecCallStats> codec_stats_;  // one per worker

  /// What the state queries know of one block's decoded amplitudes.
  struct CachedSums {
    double mass = std::numeric_limits<double>::quiet_NaN();  ///< NaN: unknown
    /// W(m) for every offset mask m with one or two bits set, 8 bytes per
    /// mask. Allocated at the first fill and kept when the slot is voided,
    /// so a refill reuses it.
    std::vector<double> z_row;
    bool z_row_valid = false;  ///< z_row belongs to the stored payload
    void void_sums() {
      mass = std::numeric_limits<double>::quiet_NaN();
      z_row_valid = false;
    }
  };
  /// Each block's CachedSums in global_block order. A slot is filled only
  /// by fill_cache, for the queries, and voided by store_block, the one
  /// place blocks are rewritten, so what a slot knows belongs to the
  /// stored payload. Workers fill or void distinct slots, so no lock
  /// guards it. The mass is not charged to the memory report (like
  /// BlockMeta); the Z rows count in its scratch_bytes. Nothing here is
  /// checkpointed: a loaded simulator starts with every slot unknown.
  std::vector<CachedSums> mass_cache_;

  int level_ = 0;  ///< 0 = lossless; k > 0 = error_ladder[k-1]
  /// level_ was raised and some block is not yet encoded at it: the next
  /// apply_ops sweep re-encodes every block, or settle_escalation does.
  /// Every public call that applies gates clears it before it returns.
  bool escalation_pending_ = false;
  FidelityTracker fidelity_;
  std::uint64_t gate_cursor_ = 0;
  /// FNV-1a digest of the qubit count and the gate_cursor_ ops of the
  /// circuit the cursor counts into, saved with every checkpoint so a
  /// resume can tell another circuit's state. Set by apply_circuit and
  /// resume_circuit, extended as each chunk completes, restored by
  /// load_checkpoint; 0 (unknown) where the cursor is voided.
  std::uint64_t circuit_digest_ = 0;

  /// Kernel backend the apply loops dispatch to (detected once at
  /// construction from config_.enable_simd_kernels and the host CPU).
  qsim::KernelBackend backend_ = qsim::KernelBackend::kScalar;

  // Logical->physical qubit layout (relabeled SWAPs).
  runtime::QubitMap map_;

  // Statistics.
  std::uint64_t gates_ = 0;
  std::uint64_t batched_runs_ = 0;
  /// Scheduled ops applied inside runs; a split SWAP counts as its three
  /// CX legs, each a run of one op.
  std::uint64_t batched_gates_ = 0;
  std::uint64_t swaps_relabeled_ = 0;
  CacheStats sharing_;  ///< gate sweeps' shared (hits) and computed units
  double wall_seconds_ = 0.0;
  double min_ratio_ = 0.0;  ///< 0 until first gate
  bool budget_exceeded_ = false;

  // Out-of-core bookkeeping (mutated between parallel regions only).
  std::size_t evict_cursor_ = 0;  ///< round-robin global block scan position
  bool stream_spill_ = false;

  // Fault tolerance. spill_write_failures_ is bumped when a spill hits
  // ENOSPC under degradation — by a worker streaming its block, or by the
  // main thread evicting — hence the copyable-atomic counter; it doubles
  // as the degraded flag. The autosave fields are main-thread only
  // (run boundaries).
  InvocationCounter spill_write_failures_;  ///< ENOSPC writes ridden out
  std::uint64_t autosaves_ = 0;
  std::uint64_t autosave_failures_ = 0;
  double autosave_seconds_ = 0.0;
  std::uint64_t gates_at_last_autosave_ = 0;  ///< gate_cursor_ at last save
};

}  // namespace cqs::core
