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
// QAOA writes each ZZ term as CX(u,v) . D . CX(u,v) with D diagonal on v.
// CX only permutes amplitudes, so the triple multiplies each amplitude by
// the factor of D that the parity of u's and v's bits picks: one diagonal
// that pairs no blocks, even when v (and so each CX) lies outside the
// offset segment. starts_parity_phase recognises the triple; runs keep it
// whole, and the simulator applies it as one kernel.
#pragma once

#include <cstddef>
#include <cstdint>
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
};

// pair_qubit's two answers that are not a qubit index.
/// The op acts on each block alone.
inline constexpr int kPairsNoBlocks = -1;
/// A SWAP with both qubits outside the offset segment: its CX legs pair
/// blocks across two different qubits, so it splits into them.
inline constexpr int kSplitSwap = -2;

/// One schedule item: `count` consecutive ops of the scheduled circuit
/// starting at `first`, executed as one sweep — unless it is the single-op
/// item of a SWAP that splits into its legs.
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
  /// pair across two qubits.
  int pair_qubit = kPairsNoBlocks;
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
/// When `origin_counts` is non-null the circuit is taken as already
/// processed (the remap pre-pass fuses before planning so segment
/// boundaries cannot change which gates fuse): options.fuse is ignored,
/// no fusion runs, and each op's source-gate weight is read from the
/// array, which must hold one entry per op.
Schedule build_schedule(const Circuit& circuit,
                        const SchedulerOptions& options,
                        const std::vector<std::size_t>* origin_counts =
                            nullptr);

// ---------------------------------------------------------------------------
// Remap pre-pass: logical->physical rewriting + cross-rank avoidance.
//
// The simulator stores amplitudes in a physical layout described by a
// runtime::QubitMap. Before gates are scheduled into runs, this pass walks
// the logical circuit in order and
//   - rewrites every op's qubits through the evolving map,
//   - absorbs SWAP gates into the map as free relabels,
//   - and, when a non-diagonal gate's physical target lands in the rank
//     segment (the only case that forces compressed-block exchanges
//     through Comm), either emits a RemapStep — one physical exchange
//     sweep that trades the hot rank position for a cold offset-segment
//     position — or pays the single exchange in place.
// The choice plans with the remaining circuit: a hot rank target remaps
// only when a truly cold offset resident exists (zero remaining
// non-diagonal target uses, preferring the furthest next use) and the hot
// qubit has a future at all, so every emitted remap deletes all of the hot
// qubit's future exchange sweeps and adds none; otherwise — including for
// a last-touch gate — the single sweep is paid in place, which is never
// worse than the identity layout. Deterministic given (map, remaining
// ops), so a checkpoint-resumed suffix plans exactly like the
// uninterrupted run planned its tail. Diagonal gates and gates whose
// rank-segment involvement is control-only are routed locally by the
// simulator already and never trigger a remap.
// ---------------------------------------------------------------------------

/// `op` with every qubit rewritten through `map`: the target and any
/// non-negative control (SWAP's second qubit lives in controls[0], so it
/// is covered). Shared by the remap pre-pass and the simulator's ad-hoc
/// apply() so the two translation paths cannot diverge.
GateOp translated_through(const GateOp& op, const runtime::QubitMap& map);

struct RemapOptions {
  /// When false, the pass only rewrites ops through the map (needed
  /// whenever the map is non-identity, e.g. after resuming a remapped
  /// checkpoint) and emits no remaps or relabels. When true, SWAPs become
  /// relabels: semantically exact, but the skipped X-kernel arithmetic
  /// means signed zeros in moved amplitudes can differ from the expanded
  /// three-CX path.
  bool enabled = false;
  int num_qubits = 0;
  int offset_bits = 0;  ///< physical [0, offset_bits) = block-local
  int block_bits = 0;   ///< next block_bits = same-rank; rest = rank segment
};

/// One physical exchange sweep: every block pair across rank bit
/// `phys_hot` swaps its offset-bit-`phys_cold` halves, after which the
/// logical occupants of the two positions have traded places.
struct RemapStep {
  int phys_hot = 0;   ///< rank-segment physical position being vacated
  int phys_cold = 0;  ///< offset-segment physical position moving up
};

struct RemapStats {
  std::size_t remaps = 0;            ///< RemapSteps emitted
  std::size_t swaps_relabeled = 0;   ///< SWAP gates absorbed into the map
  /// Non-diagonal gates whose *logical* target sits in the rank segment
  /// (they would pay an exchange sweep under the identity layout) that
  /// executed block- or rank-locally thanks to the map.
  std::size_t rank_targets_localized = 0;
  /// Non-diagonal gates that still executed with a rank-segment physical
  /// target (last-touch in-place applications and unavoidable residue).
  std::size_t rank_targets_in_place = 0;
};

/// The remapped program: executed strictly in order by the simulator,
/// which mirrors every kRemap/kRelabel item into its persistent map.
struct RemapItem {
  enum class Kind { kRemap, kRelabel, kGates };
  Kind kind = Kind::kGates;
  RemapStep remap{};                    ///< kRemap
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

/// Plans the remapped form of `circuit` starting from `map`.
/// `origin_counts` (one entry per op) carries source-gate weights when the
/// caller fused the circuit first; null means every op weighs 1.
RemapProgram plan_remaps(const Circuit& circuit,
                         const runtime::QubitMap& map,
                         const RemapOptions& options,
                         const std::vector<std::size_t>* origin_counts =
                             nullptr);

}  // namespace cqs::qsim
