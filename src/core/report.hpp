// SimulationReport: everything Table 2 prints for one run — memory
// requirement vs. used, time breakdown by phase, time per gate, fidelity
// lower bound, and the minimum compression ratio observed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/timer.hpp"

namespace cqs::core {

/// Sweep sharing (Section 3.4's block cache, kept inside one sweep): the
/// units of a gate sweep that compute from equal inputs form a group, the
/// first unit computes and every other member stores a copy.
struct CacheStats {
  std::uint64_t hits = 0;    ///< members that stored a copy
  std::uint64_t misses = 0;  ///< units that computed (one per group)

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

struct SimulationReport {
  // Configuration echoes.
  int num_qubits = 0;
  int num_ranks = 0;
  int blocks_per_rank = 0;
  std::string codec;

  // Workload.
  std::uint64_t gates = 0;

  // Timing.
  double total_seconds = 0.0;
  PhaseTimers phases;  ///< summed across workers (>= wall time when parallel)

  // Memory.
  std::uint64_t memory_requirement_bytes = 0;  ///< 2^{n+4}, uncompressed
  std::size_t peak_compressed_bytes = 0;       ///< max over gates of Eq. 8 sum
  std::size_t scratch_bytes = 0;               ///< decompression buffers
  std::size_t budget_bytes = 0;                ///< 0 = unlimited
  bool budget_exceeded = false;  ///< over budget even at the last ladder level

  // Out-of-core tiering. resident_bytes + spilled_bytes is the end-state
  // compressed total (the Eq. 8 sum split by tier); the peaks are sampled
  // at every block mutation, not at gate boundaries. spill/fault counts
  // are deterministic across worker counts; readahead_hits is timing-
  // dependent (advise races the read) — report-only, never pinned.
  bool spill_enabled = false;
  std::size_t resident_budget_bytes = 0;
  std::size_t resident_bytes = 0;       ///< end-state in-memory tier
  std::size_t spilled_bytes = 0;        ///< end-state spill-file tier
  std::size_t peak_resident_bytes = 0;  ///< max in-memory tier occupancy
  std::uint64_t spill_events = 0;       ///< resident -> spilled moves
  std::uint64_t fault_events = 0;       ///< reads served from the spill tier
  std::uint64_t readahead_issued = 0;   ///< WILLNEED advisories issued
  std::uint64_t readahead_hits = 0;     ///< faults that had been advised

  // Fault tolerance. `degraded` means a mid-run ENOSPC disabled further
  // spilling and the run continued resident (spill_degrade_on_enospc);
  // the autosave counters cover SimConfig::checkpoint_interval_gates
  // saves; recoveries / recovery_backoff_ms are stamped by run_resilient
  // onto the simulator that finally completed the circuit.
  bool degraded = false;
  std::uint64_t spill_write_failures = 0;  ///< ENOSPC writes ridden out
  std::uint64_t checkpoint_interval_gates = 0;  ///< config echo; 0 = off
  std::uint64_t autosaves = 0;
  std::uint64_t autosave_failures = 0;  ///< failed saves survived (counted)
  double autosave_seconds = 0.0;        ///< wall time spent saving
  std::uint64_t recoveries = 0;         ///< fault-respawn-resume cycles
  std::uint64_t recovery_backoff_ms = 0;  ///< total backoff slept

  // Compression.
  double min_compression_ratio = 0.0;  ///< min over gates (Table 2 last row)
  int final_ladder_level = 0;          ///< 0 = still lossless

  // Codec arbiter (per-block codec selection; runtime/codec_arbiter.hpp).
  std::string codec_policy;                  ///< "fixed" or "adaptive"
  std::uint64_t codec_lossless_choices = 0;  ///< passes routed to lossless zx
  std::uint64_t codec_lossy_choices = 0;     ///< passes routed to the codec
  std::uint64_t codec_switches = 0;  ///< per-block flips (post-hysteresis)
  std::uint64_t final_lossless_blocks = 0;  ///< end-state census by BlockMeta
  std::uint64_t final_lossy_blocks = 0;
  std::size_t final_lossless_bytes = 0;  ///< compressed bytes of those blocks
  std::size_t final_lossy_bytes = 0;
  std::size_t block_raw_bytes = 0;  ///< uncompressed bytes of one block

  // Gate-run scheduler (run batching).
  std::uint64_t batched_runs = 0;   ///< scheduled runs (one codec pass each)
  std::uint64_t batched_gates = 0;  ///< scheduled ops applied inside runs
  std::uint64_t compress_invocations = 0;    ///< codec compress calls
  std::uint64_t decompress_invocations = 0;  ///< codec decompress calls

  // Codec hot-path attribution: invocations and wall seconds split by
  // codec class (lossless zx vs the configured lossy codec), so benches
  // can attribute (de)compression time per codec. Counts are deterministic
  // across worker counts with the cache on or off (sharing groups are
  // planned before each sweep starts); the seconds are wall-clock
  // measurements.
  std::uint64_t lossless_compress_invocations = 0;
  std::uint64_t lossy_compress_invocations = 0;
  std::uint64_t lossless_decompress_invocations = 0;
  std::uint64_t lossy_decompress_invocations = 0;
  double lossless_compress_seconds = 0.0;
  double lossy_compress_seconds = 0.0;
  double lossless_decompress_seconds = 0.0;
  double lossy_decompress_seconds = 0.0;
  /// Share of scratch_bytes held by the per-worker codec pools
  /// (CodecScratch high-water marks; the rest is the block buffers).
  std::size_t codec_scratch_bytes = 0;

  // Fidelity.
  double fidelity_bound = 1.0;
  std::uint64_t lossy_passes = 0;

  // Communication (cross-rank gates only).
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_messages = 0;
  /// Transport backend the exchanges ran on ("loopback" or "socket").
  std::string transport;
  /// Seconds blocked on the wire (begin + wait), derived once from Comm's
  /// atomic nanosecond counter at report time.
  double comm_seconds = 0.0;
  /// Fraction of exchange lifetime spent overlapped with codec work
  /// instead of blocked on the wire. Timing-dependent — report-only, never
  /// part of determinism pins.
  double comm_overlap_utilization = 0.0;
  // Physical wire traffic (the transport's view; loopback stages payloads
  // once with no framing, the socket backend moves each exchanged payload
  // out-and-back so wire_payload_bytes == 2 x comm_bytes).
  std::uint64_t wire_payload_bytes = 0;
  std::uint64_t wire_frame_bytes = 0;
  std::uint64_t wire_frames = 0;

  // Qubit remapping (logical->physical relabeling; runtime/qubit_map.hpp).
  bool qubit_remap_enabled = false;
  std::uint64_t remap_sweeps = 0;      ///< RemapOps executed (one exchange
                                       ///< sweep of all block pairs each)
  std::uint64_t swaps_relabeled = 0;   ///< SWAP gates absorbed into the map
  std::uint64_t rank_gates_localized = 0;  ///< rank-target gates made local
  std::uint64_t rank_gates_in_place = 0;   ///< still executed cross-rank
  /// Cross-rank block-pair exchanges the identity layout would have paid
  /// that the remapped run did not (remap sweeps already deducted).
  /// Upper-bound estimate: avoided sweeps are costed as full sweeps, so
  /// avoided gates with rank/block-segment controls — whose identity
  /// sweeps only touch the control-satisfying units — are overcounted.
  /// Comm's own counters carry the exact actuals.
  std::uint64_t remap_exchanges_avoided = 0;

  /// Kernel backend dispatch actually ran with: "scalar", "avx2", "neon".
  std::string simd_kernel;

  CacheStats cache;

  double seconds_per_gate() const {
    return gates == 0 ? 0.0 : total_seconds / static_cast<double>(gates);
  }

  /// Mean scheduled ops per run — the codec amortization factor the
  /// batching scheduler achieved.
  double gates_per_run() const {
    return batched_runs == 0 ? 0.0
                             : static_cast<double>(batched_gates) /
                                   static_cast<double>(batched_runs);
  }

  /// Compression ratio of the end-state blocks each codec class holds
  /// (raw/compressed; 0 when that class holds no blocks). Their spread is
  /// the per-codec ratio delta the Fig. 9-14 studies measure.
  double lossless_block_ratio() const;
  double lossy_block_ratio() const;
  double codec_ratio_delta() const {
    return lossless_block_ratio() - lossy_block_ratio();
  }

  /// Fraction of summed phase time spent in `p` (the percentage rows of
  /// Table 2).
  double phase_fraction(Phase p) const;

  /// Table 2-style one-run summary.
  void print(std::ostream& os) const;
};

std::ostream& operator<<(std::ostream& os, const SimulationReport& report);

}  // namespace cqs::core
