#include "qsim/circuit.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

namespace cqs::qsim {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > 62) {
    throw std::invalid_argument("Circuit: qubit count must be in [1, 62]");
  }
}

void check_op(const GateOp& op, int num_qubits) {
  auto check = [num_qubits](int q) {
    if (q < 0 || q >= num_qubits) {
      throw std::out_of_range("gate: qubit index out of range");
    }
  };
  check(op.target);
  for (int c : op.controls) {
    if (c >= 0) {
      check(c);
      if (c == op.target) {
        throw std::invalid_argument("gate: control equals target");
      }
    }
  }
  if (op.controls[0] >= 0 && op.controls[0] == op.controls[1]) {
    throw std::invalid_argument("gate: duplicate control");
  }
}

Circuit& Circuit::append(GateOp op) {
  check_op(op, num_qubits_);
  ops_.push_back(op);
  return *this;
}

Circuit& Circuit::rx(int q, double theta) {
  return append({GateKind::kRx, q, {-1, -1}, {theta, 0, 0}});
}
Circuit& Circuit::ry(int q, double theta) {
  return append({GateKind::kRy, q, {-1, -1}, {theta, 0, 0}});
}
Circuit& Circuit::rz(int q, double theta) {
  return append({GateKind::kRz, q, {-1, -1}, {theta, 0, 0}});
}
Circuit& Circuit::phase(int q, double theta) {
  return append({GateKind::kPhase, q, {-1, -1}, {theta, 0, 0}});
}
Circuit& Circuit::u3(int q, double theta, double phi, double lambda) {
  return append({GateKind::kU3, q, {-1, -1}, {theta, phi, lambda}});
}
Circuit& Circuit::cx(int control, int target) {
  return append({GateKind::kCX, target, {control, -1}});
}
Circuit& Circuit::cz(int control, int target) {
  return append({GateKind::kCZ, target, {control, -1}});
}
Circuit& Circuit::cphase(int control, int target, double theta) {
  return append({GateKind::kCPhase, target, {control, -1}, {theta, 0, 0}});
}
Circuit& Circuit::swap(int a, int b) {
  return append({GateKind::kSwap, a, {b, -1}});
}
Circuit& Circuit::ccx(int c0, int c1, int target) {
  return append({GateKind::kCCX, target, {c0, c1}});
}

int Circuit::depth() const {
  std::vector<int> qubit_depth(num_qubits_, 0);
  int depth = 0;
  for (const GateOp& op : ops_) {
    int level = qubit_depth[op.target];
    for (int c : op.controls) {
      if (c >= 0) level = std::max(level, qubit_depth[c]);
    }
    ++level;
    qubit_depth[op.target] = level;
    for (int c : op.controls) {
      if (c >= 0) qubit_depth[c] = level;
    }
    depth = std::max(depth, level);
  }
  return depth;
}

std::vector<std::pair<std::string, std::size_t>> Circuit::gate_histogram()
    const {
  std::map<std::string, std::size_t> counts;
  for (const GateOp& op : ops_) ++counts[gate_name(op.kind)];
  return {counts.begin(), counts.end()};
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  for (const GateOp& op : ops_) {
    os << gate_name(op.kind);
    for (int c : op.controls) {
      if (c >= 0) os << ' ' << c;
    }
    os << ' ' << op.target;
    if (op.kind == GateKind::kRx || op.kind == GateKind::kRy ||
        op.kind == GateKind::kRz || op.kind == GateKind::kPhase ||
        op.kind == GateKind::kCPhase) {
      os << " (" << op.params[0] << ")";
    } else if (op.kind == GateKind::kU3) {
      os << " (" << op.params[0] << ", " << op.params[1] << ", "
         << op.params[2] << ")";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cqs::qsim
