// Logical->physical qubit map (the relabeling distributed simulators such
// as Intel-QS apply, here over Section 3.3's partitioning). The simulator
// stores amplitudes in a *physical* bit layout; a QubitMap is the
// permutation that says where each logical qubit's index bit currently
// lives. Relabeling two qubits — swapping their physical homes — costs
// one map update instead of moving amplitudes. The simulator relabels the
// SWAPs nothing later touches (qsim::trailing_swaps), so a circuit's
// output permutation, QFT's bit reversal say, costs no exchange sweep.
//
// The map is a permutation over [0, n): physical(l) is the physical bit
// of logical qubit l, logical(p) its inverse. Both directions are stored
// so queries are O(1); every mutation keeps them consistent.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::runtime {

class QubitMap {
 public:
  /// Empty map (size 0). Stands for "identity over however many qubits" in
  /// contexts that carry the count elsewhere (a checkpoint header whose
  /// map count is zero).
  QubitMap() = default;

  /// Identity over `num_qubits` qubits.
  explicit QubitMap(int num_qubits);

  static QubitMap identity(int num_qubits) { return QubitMap(num_qubits); }

  /// Builds a map from an explicit physical-of-logical table. Throws
  /// std::invalid_argument unless the table is a permutation of [0, n).
  static QubitMap from_physical(std::vector<int> physical_of_logical);

  int size() const { return static_cast<int>(physical_.size()); }
  bool empty() const { return physical_.empty(); }
  bool is_identity() const;

  int physical(int logical) const { return physical_[logical]; }
  int logical(int physical) const { return logical_[physical]; }
  const std::vector<int>& physical_table() const { return physical_; }

  /// Relabels the two *logical* qubits: their physical homes swap. This is
  /// the zero-cost SWAP gate — no amplitude moves.
  void relabel(int logical_a, int logical_b);

  // --- Index translation ---

  /// Physical amplitude index of a logical basis state: bit l of `logical`
  /// moves to bit physical(l).
  std::uint64_t to_physical_index(std::uint64_t logical_index) const;

  /// Inverse of to_physical_index.
  std::uint64_t to_logical_index(std::uint64_t physical_index) const;

  // --- Serialized form (checkpoint header) ---

  /// Appends varint(n) followed by n varint physical positions.
  void serialize(Bytes& out) const;

  /// Reads a serialized map at `offset`, advancing it. Throws
  /// std::runtime_error on truncation or when the decoded table is not a
  /// permutation.
  static QubitMap deserialize(ByteSpan in, std::size_t& offset);

  bool operator==(const QubitMap& other) const {
    return physical_ == other.physical_;
  }

 private:
  std::vector<int> physical_;  ///< physical_[logical]
  std::vector<int> logical_;   ///< logical_[physical], kept in sync
};

}  // namespace cqs::runtime
