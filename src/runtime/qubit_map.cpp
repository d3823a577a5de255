#include "runtime/qubit_map.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace cqs::runtime {

QubitMap::QubitMap(int num_qubits) {
  if (num_qubits < 0) {
    throw std::invalid_argument("qubit map: negative qubit count");
  }
  physical_.resize(num_qubits);
  logical_.resize(num_qubits);
  std::iota(physical_.begin(), physical_.end(), 0);
  std::iota(logical_.begin(), logical_.end(), 0);
}

QubitMap QubitMap::from_physical(std::vector<int> physical_of_logical) {
  const int n = static_cast<int>(physical_of_logical.size());
  QubitMap map;
  map.physical_ = std::move(physical_of_logical);
  map.logical_.assign(n, -1);
  for (int l = 0; l < n; ++l) {
    const int p = map.physical_[l];
    if (p < 0 || p >= n || map.logical_[p] != -1) {
      throw std::invalid_argument(
          "qubit map: table is not a permutation of [0, n)");
    }
    map.logical_[p] = l;
  }
  return map;
}

bool QubitMap::is_identity() const {
  for (int l = 0; l < size(); ++l) {
    if (physical_[l] != l) return false;
  }
  return true;
}

void QubitMap::relabel(int logical_a, int logical_b) {
  std::swap(physical_[logical_a], physical_[logical_b]);
  logical_[physical_[logical_a]] = logical_a;
  logical_[physical_[logical_b]] = logical_b;
}

std::uint64_t QubitMap::to_physical_index(std::uint64_t logical_index) const {
  std::uint64_t out = 0;
  for (int l = 0; l < size(); ++l) {
    out |= ((logical_index >> l) & 1u) << physical_[l];
  }
  return out;
}

std::uint64_t QubitMap::to_logical_index(std::uint64_t physical_index) const {
  std::uint64_t out = 0;
  for (int l = 0; l < size(); ++l) {
    out |= ((physical_index >> physical_[l]) & 1u) << l;
  }
  return out;
}

void QubitMap::serialize(Bytes& out) const {
  put_varint(out, static_cast<std::uint64_t>(size()));
  for (int p : physical_) put_varint(out, static_cast<std::uint64_t>(p));
}

QubitMap QubitMap::deserialize(ByteSpan in, std::size_t& offset) {
  const std::uint64_t n = get_varint(in, offset);
  // A map can never be wider than the 40-qubit partition ceiling; a huge
  // count here is corruption, not a big simulation.
  if (n > 64) {
    throw std::runtime_error("qubit map: implausible qubit count");
  }
  std::vector<int> table(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t entry = get_varint(in, offset);
    // Range-check before narrowing: a corrupt entry that wraps modulo
    // 2^32 to a small value must not masquerade as a valid position.
    if (entry >= n) {
      throw std::runtime_error(
          "qubit map: table is not a permutation of [0, n)");
    }
    table[i] = static_cast<int>(entry);
  }
  try {
    return from_physical(std::move(table));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());  // corruption, not caller error
  }
}

}  // namespace cqs::runtime
