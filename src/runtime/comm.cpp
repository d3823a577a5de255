#include "runtime/comm.hpp"

#include <chrono>
#include <stdexcept>

namespace cqs::runtime {

Comm::Received Comm::exchange(int rank_a, int rank_b, ByteSpan from_a,
                              ByteSpan from_b) {
  if (rank_a < 0 || rank_a >= num_ranks_ || rank_b < 0 ||
      rank_b >= num_ranks_ || rank_a == rank_b) {
    throw std::invalid_argument("Comm::exchange: bad rank pair");
  }
  const auto start = std::chrono::steady_clock::now();
  Received received{Bytes(from_b.begin(), from_b.end()),
                    Bytes(from_a.begin(), from_a.end())};
  bytes_moved_.fetch_add(from_a.size() + from_b.size(),
                         std::memory_order_relaxed);
  messages_.fetch_add(2, std::memory_order_relaxed);
  nanos_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  return received;
}

CommStats Comm::stats() const {
  return {bytes_moved_.load(std::memory_order_relaxed),
          messages_.load(std::memory_order_relaxed),
          nanos_.load(std::memory_order_relaxed)};
}

void Comm::reset() {
  bytes_moved_ = 0;
  messages_ = 0;
  nanos_ = 0;
}

}  // namespace cqs::runtime
