#include "qsim/scheduler.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace cqs::qsim {

int pair_qubit(const GateOp& op, int intra_qubits) {
  if (op.kind == GateKind::kSwap) {
    // SWAP stores its two qubits in target/controls[0]; its CX legs target
    // both of them.
    const int a = op.target;
    const int b = op.controls[0];
    if (a >= intra_qubits && b >= intra_qubits) return kSplitSwap;
    if (a >= intra_qubits) return a;
    return b >= intra_qubits ? b : kPairsNoBlocks;
  }
  return !is_diagonal(op.kind) && op.target >= intra_qubits ? op.target
                                                             : kPairsNoBlocks;
}

bool starts_parity_phase(std::span<const GateOp> ops, int intra_qubits) {
  if (ops.size() < 3) return false;
  const GateOp& cx = ops[0];
  const GateOp& d = ops[1];
  const GateOp& back = ops[2];
  const int u = cx.controls[0];
  const int v = cx.target;
  return cx.kind == GateKind::kCX && cx.controls[1] < 0 &&
         back.kind == GateKind::kCX && back.target == v &&
         back.controls == cx.controls && v >= intra_qubits &&
         is_diagonal(d.kind) && d.target == v && d.controls[0] != u &&
         d.controls[1] != u;
}

std::vector<std::pair<int, int>> run_block_order(int num_ranks,
                                                 int blocks_per_rank) {
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<std::size_t>(num_ranks) * blocks_per_rank);
  for (int r = 0; r < num_ranks; ++r) {
    for (int b = 0; b < blocks_per_rank; ++b) order.emplace_back(r, b);
  }
  return order;
}

Schedule build_schedule(const Circuit& circuit,
                        const SchedulerOptions& options,
                        const std::vector<std::size_t>* origin_counts) {
  if (options.intra_qubits < 0) {
    throw std::invalid_argument("build_schedule: negative intra_qubits");
  }
  if (origin_counts != nullptr && origin_counts->size() != circuit.size()) {
    throw std::invalid_argument(
        "build_schedule: origin counts must cover every op");
  }
  std::vector<std::size_t> origins;
  const bool fuse_here = options.fuse && origin_counts == nullptr;
  Schedule schedule(fuse_here
                        ? fuse_single_qubit_gates(circuit, nullptr, &origins)
                        : circuit);
  if (origin_counts != nullptr) {
    origins = *origin_counts;
  } else if (!fuse_here) {
    origins.assign(circuit.size(), 1);
  }

  const auto& ops = schedule.circuit_.ops();
  GateRun current;  // open run (count == 0 when closed)
  auto close = [&] {
    if (current.count == 0) return;
    schedule.runs_.push_back(current);
    current = GateRun{};
  };

  const std::size_t cap = options.max_run_length;
  for (std::size_t i = 0; i < ops.size();) {
    const bool triple =
        starts_parity_phase(std::span(ops).subspan(i), options.intra_qubits);
    const std::size_t width = triple ? 3 : 1;
    const int k =
        triple ? kPairsNoBlocks : pair_qubit(ops[i], options.intra_qubits);
    if (k == kSplitSwap) {
      close();
      schedule.runs_.push_back(GateRun{.first = i, .count = 1,
                                       .source_gates = origins[i],
                                       .pair_qubit = kSplitSwap});
      ++i;
      continue;
    }
    // A run pairs across one qubit at most, and closes early rather than
    // split a folded triple.
    const bool other_qubit =
        k >= 0 && current.pair_qubit >= 0 && current.pair_qubit != k;
    if (current.count > 0 &&
        (other_qubit || (cap > 0 && current.count + width > cap))) {
      close();
    }
    if (current.count == 0) current = GateRun{.first = i};
    if (k >= 0) current.pair_qubit = k;
    for (std::size_t j = 0; j < width; ++j) {
      current.source_gates += origins[i + j];
    }
    current.count += width;
    i += width;
    if (cap > 0 && current.count >= cap) close();
  }
  close();
  return schedule;
}

GateOp translated_through(const GateOp& op, const runtime::QubitMap& map) {
  GateOp out = op;
  out.target = map.physical(op.target);
  for (int& c : out.controls) {
    if (c >= 0) c = map.physical(c);
  }
  return out;
}

namespace {

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// Positions at which each logical qubit is the target of a non-diagonal
/// gate — the only events that can force an exchange sweep and therefore
/// the only ones the planner looks ahead to. SWAPs are relabels, free of
/// any sweep, so they are never events.
struct TargetEvents {
  std::vector<std::vector<std::size_t>> at;  // per logical qubit, ascending
  std::vector<std::size_t> next;             // scan cursor per qubit

  TargetEvents(const Circuit& circuit, int num_qubits)
      : at(num_qubits), next(num_qubits, 0) {
    const auto& ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const GateOp& op = ops[i];
      if (op.kind != GateKind::kSwap && !is_diagonal(op.kind)) {
        at[op.target].push_back(i);
      }
    }
  }

  /// First event of `logical` strictly after position `i` (kNever if none).
  std::size_t next_after(int logical, std::size_t i) {
    auto& cursor = next[logical];
    const auto& events = at[logical];
    while (cursor < events.size() && events[cursor] <= i) ++cursor;
    return cursor < events.size() ? events[cursor] : kNever;
  }

  /// Events of `logical` strictly after position `i` — the sweeps the
  /// qubit would pay over the rest of the circuit if it sat at rank the
  /// whole time, which is the planner's cost proxy.
  std::size_t remaining_after(int logical, std::size_t i) {
    next_after(logical, i);  // advance the cursor past <= i
    return at[logical].size() - next[logical];
  }
};

}  // namespace

RemapProgram plan_remaps(const Circuit& circuit,
                         const runtime::QubitMap& map,
                         const RemapOptions& options,
                         const std::vector<std::size_t>* origin_counts) {
  if (options.num_qubits != circuit.num_qubits() ||
      options.num_qubits != map.size()) {
    throw std::invalid_argument("plan_remaps: qubit count mismatch");
  }
  if (origin_counts != nullptr && origin_counts->size() != circuit.size()) {
    throw std::invalid_argument(
        "plan_remaps: origin counts must cover every op");
  }
  if (options.offset_bits < 1 ||
      options.offset_bits + options.block_bits > options.num_qubits) {
    throw std::invalid_argument("plan_remaps: bad segment split");
  }
  const int rank_start = options.offset_bits + options.block_bits;

  RemapProgram program;
  runtime::QubitMap working = map;
  TargetEvents events(circuit, options.num_qubits);

  auto append_gate = [&](const GateOp& op, std::size_t weight) {
    if (program.items.empty() ||
        program.items.back().kind != RemapItem::Kind::kGates) {
      RemapItem item;
      item.kind = RemapItem::Kind::kGates;
      item.ops = Circuit(options.num_qubits);
      program.items.push_back(std::move(item));
    }
    program.items.back().ops.append(op);
    program.items.back().source_gates.push_back(weight);
  };

  /// Best eviction victim: the offset-segment physical position whose
  /// logical occupant would pay the fewest future sweeps at rank — the
  /// fewest remaining non-diagonal targets (dead qubits first), with the
  /// furthest next use breaking ties. Remaining ties break toward the
  /// lowest physical position so plans are deterministic.
  struct Victim {
    int position = 0;
    std::size_t remaining = 0;  ///< future sweeps the victim would pay
    std::size_t next_use = 0;
  };
  auto pick_cold = [&](std::size_t i) {
    Victim best;
    for (int p = 0; p < options.offset_bits; ++p) {
      const int resident = working.logical(p);
      const std::size_t remaining = events.remaining_after(resident, i);
      const std::size_t when = events.next_after(resident, i);
      if (p == 0 || remaining < best.remaining ||
          (remaining == best.remaining && when > best.next_use)) {
        best.position = p;
        best.remaining = remaining;
        best.next_use = when;
      }
    }
    return best;
  };

  auto emit_remap = [&](int phys_hot, int phys_cold) {
    RemapItem item;
    item.kind = RemapItem::Kind::kRemap;
    item.remap = RemapStep{phys_hot, phys_cold};
    working.swap_physical(item.remap.phys_hot, item.remap.phys_cold);
    program.items.push_back(item);
    ++program.stats.remaps;
  };

  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const GateOp& op = ops[i];
    const std::size_t weight =
        origin_counts != nullptr ? (*origin_counts)[i] : 1;

    if (options.enabled && op.kind == GateKind::kSwap) {
      RemapItem item;
      item.kind = RemapItem::Kind::kRelabel;
      item.relabel_a = op.target;
      item.relabel_b = op.controls[0];
      item.relabel_source_gates = weight;
      working.relabel(item.relabel_a, item.relabel_b);
      program.items.push_back(item);
      ++program.stats.swaps_relabeled;
      continue;
    }

    GateOp phys = translated_through(op, working);
    if (options.enabled) {
      if (!is_diagonal(op.kind) && phys.target >= rank_start) {
        // Trade-gain rule: remapping costs the same single sweep as
        // applying in place, then hands the hot position's future to the
        // evicted resident. The planner therefore only trades when a truly
        // cold victim exists — zero remaining targets, so the remap
        // deletes every future sweep of the hot qubit and adds none —
        // and the hot qubit has a future at all (a last-touch gate pays
        // its one sweep in place). Evicting a merely-cooler qubit is a
        // loss in bytes even when it wins on counts: its deferred sweeps
        // land on a denser, worse-compressing state.
        const std::size_t hot_remaining =
            events.remaining_after(op.target, i);
        const Victim victim = pick_cold(i);
        if (victim.remaining == 0 && hot_remaining > 0) {
          emit_remap(phys.target, victim.position);
          phys = translated_through(op, working);
        } else {
          ++program.stats.rank_targets_in_place;
        }
      }
      if (!is_diagonal(op.kind) && phys.target < rank_start &&
          op.target >= rank_start) {
        ++program.stats.rank_targets_localized;
      }
    }
    append_gate(phys, weight);
  }
  return program;
}

}  // namespace cqs::qsim
