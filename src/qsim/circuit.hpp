// Circuit IR: an ordered list of GateOps over n qubits plus a fluent
// builder API. Circuits are the unit handed to both the dense reference
// simulator and the compressed simulator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qsim/gates.hpp"

namespace cqs::qsim {

/// Checks `op` against a register of `num_qubits` qubits: throws
/// std::out_of_range when its target or a control (a negative control is
/// absent) lies outside it, and std::invalid_argument when a control
/// equals the target or both controls name one qubit.
void check_op(const GateOp& op, int num_qubits);

class Circuit {
 public:
  explicit Circuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<GateOp>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }

  /// Appends a pre-built op after check_op.
  Circuit& append(GateOp op);

  // Single-qubit gates.
  Circuit& h(int q) { return append({GateKind::kH, q}); }
  Circuit& x(int q) { return append({GateKind::kX, q}); }
  Circuit& y(int q) { return append({GateKind::kY, q}); }
  Circuit& z(int q) { return append({GateKind::kZ, q}); }
  Circuit& s(int q) { return append({GateKind::kS, q}); }
  Circuit& sdg(int q) { return append({GateKind::kSdg, q}); }
  Circuit& t(int q) { return append({GateKind::kT, q}); }
  Circuit& tdg(int q) { return append({GateKind::kTdg, q}); }
  Circuit& sx(int q) { return append({GateKind::kSqrtX, q}); }
  Circuit& sy(int q) { return append({GateKind::kSqrtY, q}); }
  Circuit& sw(int q) { return append({GateKind::kSqrtW, q}); }
  Circuit& rx(int q, double theta);
  Circuit& ry(int q, double theta);
  Circuit& rz(int q, double theta);
  Circuit& phase(int q, double theta);
  Circuit& u3(int q, double theta, double phi, double lambda);

  // Two-qubit gates.
  Circuit& cx(int control, int target);
  Circuit& cz(int control, int target);
  Circuit& cphase(int control, int target, double theta);
  Circuit& swap(int a, int b);

  // Three-qubit.
  Circuit& ccx(int c0, int c1, int target);

  /// Circuit depth: number of layers when ops are greedily packed so no
  /// layer touches a qubit twice.
  int depth() const;

  /// Gates by mnemonic, e.g. {"h": 5, "cx": 4}.
  std::vector<std::pair<std::string, std::size_t>> gate_histogram() const;

  /// Multi-line textual rendering (one op per line).
  std::string to_string() const;

 private:
  int num_qubits_;
  std::vector<GateOp> ops_;
};

}  // namespace cqs::qsim
