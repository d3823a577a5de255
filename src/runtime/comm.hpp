// Cross-rank communicator: the MPI stand-in. Every logical rank lives in
// this process, so an exchange is a staged copy of each compressed
// payload toward its partner. Every cross-rank transfer is routed through
// Comm so traffic is observable (bytes, message count, time) exactly
// where Intel-QS would issue MPI_Sendrecv. Table 2's communication-time
// row and the Figure 16 scaling study read these counters.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bytes.hpp"

namespace cqs::runtime {

/// Logical communication accounting. Wall time is kept as an atomic
/// nanosecond counter and derived into seconds once, at read time — never
/// accumulated as floating point.
struct CommStats {
  std::uint64_t bytes_moved = 0;
  std::uint64_t messages = 0;
  /// Nanoseconds spent inside exchange calls.
  std::uint64_t nanos = 0;

  double seconds() const { return static_cast<double>(nanos) * 1e-9; }
};

class Comm {
 public:
  explicit Comm(int num_ranks) : num_ranks_(num_ranks) {}

  int num_ranks() const { return num_ranks_; }

  /// Payloads delivered by an exchange.
  struct Received {
    Bytes to_a;  ///< what rank a received (= from_b)
    Bytes to_b;  ///< what rank b received (= from_a)
  };

  /// The paired sendrecv of one compressed block in each direction: copies
  /// each payload toward its partner, counts 2 messages and the bytes of
  /// both payloads, and times itself. Thread-safe.
  Received exchange(int rank_a, int rank_b, ByteSpan from_a, ByteSpan from_b);

  CommStats stats() const;
  void reset();

 private:
  int num_ranks_;
  std::atomic<std::uint64_t> bytes_moved_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> nanos_{0};
};

}  // namespace cqs::runtime
