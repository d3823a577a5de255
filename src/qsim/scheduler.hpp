// Gate-run scheduler. The compressed simulator pays one decompress ->
// apply -> recompress round per touched block per sweep. Figure 3's split
// says how an op touches blocks: only a non-diagonal op whose target lies
// in the block or rank segment pairs each block with one partner across
// that qubit (a SWAP does when one of its qubits lies there). Every other
// op — offset targets with any controls, and diagonals anywhere — acts on
// each block alone. So a stretch of ops can share one sweep as long as the
// ops in it that pair blocks all pair them across one qubit k: the sweep
// walks the block pairs across k, applies the ops that pair no blocks to
// each half on its own and the pairing ops across the pair, all in program
// order. Every touched block is decompressed once, has the whole run
// applied in scratch, and is recompressed once — one codec pass (and one
// lossy fidelity pass) per run instead of per op. This pass partitions a
// circuit into maximal such runs and composes single-qubit gate fusion as
// a pre-pass. Only a SWAP with both qubits outside the offset segment pairs
// across two qubits; it stays an item of its own.
//
// With SchedulerOptions::merge_runs, consecutive runs then merge into runs
// that pair across two qubits, swept as cells of four blocks (see
// build_schedule): a run of layered gates on distinct block and rank
// qubits costs one codec round per block per two qubits instead of one per
// qubit. The simulator merges only without a memory budget (the ladder
// checks it between runs) and for blocks of at most 64 KiB.
//
// QAOA writes each ZZ term as CX(u,v) . D . CX(u,v) with D diagonal on v.
// CX only permutes amplitudes, so the triple multiplies each amplitude by
// the factor of D that the parity of u's and v's bits picks: one diagonal
// that pairs no blocks, even when v (and so each CX) lies outside the
// offset segment. starts_parity_phase recognises the triple; runs keep it
// whole, and the simulator applies it as one kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "qsim/circuit.hpp"
#include "qsim/fusion.hpp"
#include "runtime/qubit_map.hpp"

namespace cqs::qsim {

struct SchedulerOptions {
  /// Qubits with index < intra_qubits address amplitudes within one block
  /// (the partition's offset segment). An op pairs blocks when it is not
  /// diagonal and its target lies at or above this line, or when it is a
  /// SWAP with a qubit there (see pair_qubit).
  int intra_qubits = 0;

  /// Cap on scheduled ops per run (0 = unlimited). Shorter runs trade
  /// batching for more frequent memory-budget checks between codec passes.
  /// A CX . D . CX triple counts 3 and is never split: a run closes early
  /// rather than cut one, and under a cap below 3 it forms a run alone.
  std::size_t max_run_length = 0;

  /// Run fuse_single_qubit_gates before forming runs.
  bool fuse = true;

  /// Merge consecutive runs into runs that pair across two qubits (see
  /// build_schedule). Off by default, so default options plan runs that
  /// pair across one qubit.
  bool merge_runs = false;

  /// Qubits with index >= first_rank_qubit lie in the rank segment; a
  /// merged run pairs across at most one of them. Read only with
  /// merge_runs.
  int first_rank_qubit = std::numeric_limits<int>::max();
};

// pair_qubit's two answers that are not a qubit index.
/// The op acts on each block alone.
inline constexpr int kPairsNoBlocks = -1;
/// A SWAP with both qubits outside the offset segment: its CX legs pair
/// blocks across two different qubits, so it splits into them.
inline constexpr int kSplitSwap = -2;

/// One schedule item: `count` consecutive ops of the scheduled circuit
/// starting at `first`, executed as one sweep — unless it is the single-op
/// item of a SWAP that splits into its legs. A merged run is one item, so
/// the simulator counts it as one run.
struct GateRun {
  std::size_t first = 0;
  std::size_t count = 0;
  /// Ops of the *source* circuit this item stands for (fusion can fold
  /// several source gates into one scheduled op). Summed over all items
  /// this equals the source circuit's size, which is what keeps the
  /// simulator's resume cursor counting in source-circuit units.
  std::size_t source_gates = 0;
  /// The qubit k every op of the run that pairs blocks pairs them across;
  /// kPairsNoBlocks when no op of the run pairs blocks (each acts on every
  /// block alone); kSplitSwap for the single-op item of a SWAP whose legs
  /// pair across two qubits. A merged run's first pairing qubit.
  int pair_qubit = kPairsNoBlocks;
  /// A merged run's other pairing qubit: each of its pairing ops pairs
  /// across pair_qubit or this one. kPairsNoBlocks for every other run.
  int second_pair_qubit = kPairsNoBlocks;
};

/// Figure 3's split: the one qubit `op` pairs amplitudes across blocks on.
/// k for a non-diagonal op whose target k lies outside the offset segment,
/// or for a SWAP with exactly one qubit k outside it (its two CX legs that
/// target k pair, and its leg that targets the offset qubit is a unit
/// kernel controlled by k); kSplitSwap for a SWAP with both qubits outside
/// it; kPairsNoBlocks for every other op. Controls never pair blocks,
/// wherever they lie. build_schedule, the simulator's per-op routing and
/// its kernel resolution all ask this one question, so they cannot
/// disagree.
int pair_qubit(const GateOp& op, int intra_qubits);

/// True when `ops` starts with CX(u,v), D, CX(u,v): both CXs the same op
/// with the single control u, D diagonal with target v and no control on
/// u, and v outside the offset segment. The triple multiplies each
/// amplitude by the factor of D that the parity of u's and v's bits picks,
/// so it pairs no blocks although each CX does. build_schedule and the
/// simulator's kernel resolution both ask this one question, so run
/// formation and execution cannot disagree about a triple.
bool starts_parity_phase(std::span<const GateOp> ops, int intra_qubits);

class Schedule {
 public:
  /// The scheduled (post-fusion) circuit the run indices refer to.
  const Circuit& circuit() const { return circuit_; }
  const std::vector<GateRun>& runs() const { return runs_; }

 private:
  friend Schedule build_schedule(const Circuit&, const SchedulerOptions&,
                                 const std::vector<std::size_t>*);
  explicit Schedule(Circuit circuit) : circuit_(std::move(circuit)) {}

  Circuit circuit_;
  std::vector<GateRun> runs_;
};

/// Every (rank, block) unit once, rank-major: the deterministic order the
/// block executor walks a sweep in. Sweeps over the whole state (ladder
/// recompression, the measurement collapse) use it as is; a run skips the
/// blocks none of its kernels changes but keeps this order.
std::vector<std::pair<int, int>> run_block_order(int num_ranks,
                                                 int blocks_per_rank);

/// Builds the run partition of `circuit`. Every op of the (post-fusion)
/// circuit belongs to exactly one GateRun and runs preserve program order.
/// Ops join the open run in program order: an op that pairs no blocks
/// always joins; an op with pair qubit k joins unless the run already pairs
/// across another qubit, in which case it opens the next run; a SWAP that
/// splits is an item of its own. Runs are maximal under
/// options.max_run_length.
///
/// With options.merge_runs, each of those runs then folds into the one
/// before it (a merged run) while the result pairs across at most two
/// qubits, at most one of them in the rank segment (so a cell spans two
/// ranks at most), and neither part is a split SWAP, a run that pairs no
/// blocks (one borders only a split SWAP or the circuit's ends) or a run
/// with a pairing op controlled by a block or rank qubit. So each pairing
/// op of a merged run acts on every block pair across its qubit: every
/// part would have swept every block, and the merged run sweeps each
/// once, with the same ops in the same order.
///
/// When `origin_counts` is non-null the circuit is taken as already
/// processed (the simulator fuses before plan_remaps, so relabels cannot
/// change which gates fuse): options.fuse is ignored,
/// no fusion runs, and each op's source-gate weight is read from the
/// array, which must hold one entry per op.
Schedule build_schedule(const Circuit& circuit,
                        const SchedulerOptions& options,
                        const std::vector<std::size_t>* origin_counts =
                            nullptr);

// ---------------------------------------------------------------------------
// SWAP relabeling.
//
// The simulator stores amplitudes in a physical layout described by a
// runtime::QubitMap, and rewrites every op's qubits through it. A SWAP
// that nothing later touches (no later op names either of its qubits, as
// target or control, a later such SWAP aside) only permutes amplitudes
// the rest of the circuit never reads again, so it is absorbed into the
// map instead of executed: its qubits' physical homes trade places and no
// amplitude moves. Every other SWAP runs as a gate. The ops that remain
// are the ones the circuit runs with every SWAP executed, rewritten to the
// same physical qubits, so they form the same runs less the relabeled
// SWAPs. The state is the same up to the sign of zero components, which
// the skipped CX kernels would have recomputed. The decision reads only
// the ops after the SWAP, so a run resumed from a checkpoint decides
// exactly as the uninterrupted run did.
// ---------------------------------------------------------------------------

/// `op` with every qubit rewritten through `map`: the target and any
/// non-negative control (SWAP's second qubit lives in controls[0], so it
/// is covered). Shared by plan_remaps and the simulator's ad-hoc apply()
/// so the two translation paths cannot diverge.
GateOp translated_through(const GateOp& op, const runtime::QubitMap& map);

/// One flag per op of `circuit`, set for each SWAP at or after op `begin`
/// that nothing later touches. One backward pass.
std::vector<bool> trailing_swaps(const Circuit& circuit,
                                 std::size_t begin = 0);

struct RemapStats {
  std::size_t swaps_relabeled = 0;  ///< SWAP gates absorbed into the map
};

/// The planned program: executed strictly in order by the simulator,
/// which mirrors every kRelabel item into its persistent map.
struct RemapItem {
  enum class Kind { kRelabel, kGates };
  Kind kind = Kind::kGates;
  int relabel_a = 0, relabel_b = 0;     ///< kRelabel: logical qubit pair
  std::size_t relabel_source_gates = 1;  ///< kRelabel: cursor weight
  /// kGates: physical-index ops. (Initialized to a 1-qubit placeholder;
  /// Circuit refuses zero-qubit construction.)
  Circuit ops{1};
  /// kGates: source-gate weight per op (all 1 unless the caller fused the
  /// circuit before planning and passed origin counts).
  std::vector<std::size_t> source_gates;
};

struct RemapProgram {
  std::vector<RemapItem> items;
  RemapStats stats;
};

/// Plans `circuit` from `map`: every op is rewritten through `map`, except
/// the SWAPs `relabel` flags (one flag per op, as trailing_swaps gives
/// them), which become kRelabel items after the one kGates item. No later
/// op names a flagged SWAP's qubits, so moving its relabel behind them
/// rewrites none of them differently, and keeps the ops in one stretch
/// that the scheduler batches as if the SWAP were not there.
/// `origin_counts` (one entry per op) carries source-gate weights when the
/// caller fused the circuit first; null means every op weighs 1.
RemapProgram plan_remaps(const Circuit& circuit,
                         const runtime::QubitMap& map,
                         const std::vector<bool>& relabel,
                         const std::vector<std::size_t>* origin_counts =
                             nullptr);

}  // namespace cqs::qsim
