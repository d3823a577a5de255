// Cross-rank communicator: the MPI stand-in. Comm is a thin accounting
// shim over a pluggable Transport (runtime/transport.hpp) — every
// cross-rank transfer is routed through it so traffic is observable
// (bytes, message count, wire time, overlap time) exactly where Intel-QS
// would issue MPI_Sendrecv. Table 2's communication-time row and the
// Figure 16 scaling study read these counters.
//
// The begin/wait split mirrors MPI_Isend/MPI_Wait: exchange_begin puts
// both payloads on the wire and returns, the caller overlaps codec work,
// then exchange_wait collects the received payloads. The
// gap between begin returning and wait being called is credited as
// overlap time, so the report can state how much wire latency the sweep
// hid behind useful work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "runtime/transport.hpp"

namespace cqs::runtime {

/// Logical communication accounting. Byte/message counts are charged at
/// exchange_begin (when the payloads hit the wire); wall time is kept as
/// an atomic nanosecond counter and derived into seconds once, at read
/// time — never accumulated as floating point.
struct CommStats {
  std::uint64_t bytes_moved = 0;
  std::uint64_t messages = 0;
  /// Nanoseconds spent blocked on the wire (begin + wait calls).
  std::uint64_t wire_nanos = 0;
  /// Nanoseconds of useful work between begin returning and wait being
  /// called — wire latency hidden behind codec work.
  std::uint64_t overlap_nanos = 0;

  double seconds() const { return static_cast<double>(wire_nanos) * 1e-9; }

  /// Fraction of each exchange's lifetime spent overlapped with compute
  /// rather than blocked on the wire. 0 when no exchange happened.
  double overlap_utilization() const {
    const std::uint64_t total = wire_nanos + overlap_nanos;
    return total == 0 ? 0.0
                      : static_cast<double>(overlap_nanos) /
                            static_cast<double>(total);
  }
};

class Comm {
 public:
  /// Convenience: in-process loopback transport over `num_ranks` ranks
  /// (the pre-transport behavior, and the default).
  explicit Comm(int num_ranks);
  /// Full form: Comm accounts, `transport` moves the bytes.
  explicit Comm(std::unique_ptr<Transport> transport);
  ~Comm();

  int num_ranks() const { return transport_->num_ranks(); }
  const Transport& transport() const { return *transport_; }
  Transport& transport() { return *transport_; }

  /// One in-flight exchange plus the timestamp that anchors its overlap
  /// accounting. Obtain from exchange_begin; settle with exchange_wait.
  struct Pending {
    PendingExchange wire;
    std::uint64_t begin_ns = 0;  ///< steady-clock stamp at begin-return
  };

  /// Payloads delivered by a completed exchange.
  struct Received {
    Bytes to_a;  ///< what rank a received (= from_b)
    Bytes to_b;  ///< what rank b received (= from_a)
  };

  /// Starts the paired sendrecv of one compressed block in each direction
  /// and returns while the payloads are in flight. Charges bytes/messages
  /// immediately; the codec ids ride the frame headers on wire backends.
  Pending exchange_begin(int rank_a, int rank_b, ByteSpan from_a,
                         ByteSpan from_b, std::uint8_t codec_a = 0,
                         std::uint8_t codec_b = 0);

  /// Completes a pending exchange. The span between begin's return and
  /// this call is credited as overlap; time inside begin/wait as wire.
  Received exchange_wait(Pending& pending);

  /// Blocking convenience: begin + immediate wait, with the received
  /// payloads swapped back into the arguments. Identical observable
  /// behavior to the historical staged-copy exchange.
  void exchange(int rank_a, int rank_b, Bytes& block_from_a,
                Bytes& block_from_b);

  CommStats stats() const;
  /// Physical wire traffic of the underlying transport (socket backend:
  /// payload_bytes == 2x bytes_moved, the out-and-back identity).
  WireStats wire_stats() const { return transport_->wire_stats(); }

  void reset();

 private:
  std::unique_ptr<Transport> transport_;
  std::atomic<std::uint64_t> bytes_moved_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> wire_nanos_{0};
  std::atomic<std::uint64_t> overlap_nanos_{0};
};

}  // namespace cqs::runtime
