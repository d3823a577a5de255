#include "qsim/scheduler.hpp"

#include <algorithm>
#include <iterator>
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

namespace {

/// Whether `op`, which pairs blocks, has a control in the block or rank
/// segment. A SWAP's pairing legs are controlled by its offset qubit.
bool block_controlled(const GateOp& op, int intra_qubits) {
  return op.kind != GateKind::kSwap &&
         std::ranges::any_of(op.controls,
                             [&](int c) { return c >= intra_qubits; });
}

/// build_schedule's merge pass over the one-qubit runs; `controlled` flags
/// the runs with a block- or rank-controlled pairing op.
std::vector<GateRun> merged_runs(const std::vector<GateRun>& runs,
                                 const std::vector<bool>& controlled,
                                 int first_rank_qubit) {
  std::vector<GateRun> out;
  bool open = false;  // out.back() may take the next run
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const GateRun& run = runs[r];
    const bool mergeable = run.pair_qubit >= 0 && !controlled[r];
    if (open && mergeable) {
      GateRun& last = out.back();
      const int k = run.pair_qubit;
      const bool two_rank = k >= first_rank_qubit &&
                            last.pair_qubit >= first_rank_qubit;
      if (k != last.pair_qubit && last.second_pair_qubit < 0 && !two_rank) {
        last.second_pair_qubit = k;
      }
      if (k == last.pair_qubit || k == last.second_pair_qubit) {
        last.count += run.count;
        last.source_gates += run.source_gates;
        continue;
      }
    }
    out.push_back(run);
    open = mergeable;
  }
  return out;
}

}  // namespace

Schedule build_schedule(const Circuit& circuit,
                        const SchedulerOptions& options,
                        const std::vector<std::size_t>* origin_counts) {
  if (options.intra_qubits < 0) {
    throw std::invalid_argument("build_schedule: negative intra_qubits");
  }
  if (options.merge_runs && options.first_rank_qubit < options.intra_qubits) {
    throw std::invalid_argument(
        "build_schedule: the rank segment starts below the block segment");
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
  bool current_controlled = false;
  std::vector<bool> controlled;  // per run: a block-controlled pairing op
  auto close = [&] {
    if (current.count == 0) return;
    schedule.runs_.push_back(current);
    controlled.push_back(current_controlled);
    current = GateRun{};
    current_controlled = false;
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
      controlled.push_back(false);
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
    if (k >= 0) {
      current.pair_qubit = k;
      current_controlled = current_controlled ||
                           block_controlled(ops[i], options.intra_qubits);
    }
    for (std::size_t j = 0; j < width; ++j) {
      current.source_gates += origins[i + j];
    }
    current.count += width;
    i += width;
    if (cap > 0 && current.count >= cap) close();
  }
  close();
  if (options.merge_runs) {
    schedule.runs_ = merged_runs(schedule.runs_, controlled,
                                 options.first_rank_qubit);
  }
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

std::vector<bool> trailing_swaps(const Circuit& circuit, std::size_t begin) {
  const auto& ops = circuit.ops();
  std::vector<bool> relabel(ops.size(), false);
  // Qubits some later op names, relabeled SWAPs aside.
  std::vector<bool> named(circuit.num_qubits(), false);
  for (std::size_t i = ops.size(); i-- > begin;) {
    const GateOp& op = ops[i];
    if (op.kind == GateKind::kSwap && !named[op.target] &&
        !named[op.controls[0]]) {
      relabel[i] = true;
      continue;
    }
    named[op.target] = true;
    for (int c : op.controls) {
      if (c >= 0) named[c] = true;
    }
  }
  return relabel;
}

RemapProgram plan_remaps(const Circuit& circuit,
                         const runtime::QubitMap& map,
                         const std::vector<bool>& relabel,
                         const std::vector<std::size_t>* origin_counts) {
  if (circuit.num_qubits() != map.size()) {
    throw std::invalid_argument("plan_remaps: qubit count mismatch");
  }
  if (relabel.size() != circuit.size() ||
      (origin_counts != nullptr && origin_counts->size() != circuit.size())) {
    throw std::invalid_argument(
        "plan_remaps: relabel flags and origin counts must cover every op");
  }
  RemapItem gates;
  gates.ops = Circuit(circuit.num_qubits());
  std::vector<RemapItem> relabels;
  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t weight =
        origin_counts != nullptr ? (*origin_counts)[i] : 1;
    if (relabel[i] && ops[i].kind == GateKind::kSwap) {
      RemapItem& item = relabels.emplace_back();
      item.kind = RemapItem::Kind::kRelabel;
      item.relabel_a = ops[i].target;
      item.relabel_b = ops[i].controls[0];
      item.relabel_source_gates = weight;
      continue;
    }
    gates.ops.append(translated_through(ops[i], map));
    gates.source_gates.push_back(weight);
  }
  RemapProgram program;
  if (!gates.source_gates.empty()) program.items.push_back(std::move(gates));
  program.stats.swaps_relabeled = relabels.size();
  program.items.insert(program.items.end(),
                       std::make_move_iterator(relabels.begin()),
                       std::make_move_iterator(relabels.end()));
  return program;
}

}  // namespace cqs::qsim
