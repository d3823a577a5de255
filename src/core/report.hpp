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
  /// Decompression buffers (two per worker, four where runs merge) and
  /// codec pools, plus the Z rows that expectation_pauli_z has filled (8
  /// bytes per one- or two-bit offset mask per block; none before the
  /// first such query).
  std::size_t scratch_bytes = 0;
  std::size_t budget_bytes = 0;                ///< 0 = unlimited
  bool budget_exceeded = false;  ///< over budget even at the last ladder level

  // Out-of-core tiering. resident_bytes + spilled_bytes is the end-state
  // compressed total (the Eq. 8 sum split by tier); the peaks are sampled
  // at every block mutation, not at gate boundaries. spill/fault counts
  // are deterministic across worker counts.
  bool spill_enabled = false;
  std::size_t resident_budget_bytes = 0;
  std::size_t resident_bytes = 0;       ///< end-state in-memory tier
  std::size_t spilled_bytes = 0;        ///< end-state spill-file tier
  std::size_t peak_resident_bytes = 0;  ///< max in-memory tier occupancy
  std::uint64_t spill_events = 0;       ///< resident -> spilled moves
  std::uint64_t fault_events = 0;       ///< reads served from the spill tier

  // Fault tolerance. `degraded` means a mid-run ENOSPC disabled further
  // spilling and the run continued resident (spill_degrade_on_enospc);
  // the autosave counters cover SimConfig::checkpoint_interval_gates saves.
  bool degraded = false;
  std::uint64_t spill_write_failures = 0;  ///< ENOSPC writes ridden out
  std::uint64_t checkpoint_interval_gates = 0;  ///< config echo; 0 = off
  std::uint64_t autosaves = 0;
  std::uint64_t autosave_failures = 0;  ///< failed saves survived (counted)
  double autosave_seconds = 0.0;        ///< wall time spent saving

  // Compression.
  /// Min over run boundaries (Table 2 last row), each sampled before the
  /// sweep that pays a level raised there: the worst ratio the state
  /// reached at a boundary.
  double min_compression_ratio = 0.0;
  int final_ladder_level = 0;          ///< 0 = still lossless

  // Codec classes. The ladder level picks each compression's codec: zx at
  // level 0, `codec` above it.
  /// Computed blocks whose codec class differs from the payload they
  /// replace, that is lossless blocks rewritten at a lossy level: every
  /// block the sweep that pays the first escalation from level 0 computes,
  /// and the lossless blocks of a mixed image an earlier version saved.
  /// Shared copies count none.
  std::uint64_t codec_switches = 0;
  std::uint64_t final_lossless_blocks = 0;  ///< end-state census by BlockMeta
  std::uint64_t final_lossy_blocks = 0;
  std::size_t final_lossless_bytes = 0;  ///< compressed bytes of those blocks
  std::size_t final_lossy_bytes = 0;
  std::size_t block_raw_bytes = 0;  ///< uncompressed bytes of one block

  // Gate-run scheduler (run batching).
  /// Scheduled runs, one codec pass each. A merged run (one that pairs
  /// blocks across two qubits) counts once; a split SWAP (both qubits
  /// outside the offset segment) counts as its three CX legs, each a run
  /// of one op.
  std::uint64_t batched_runs = 0;
  std::uint64_t batched_gates = 0;  ///< ops applied inside those runs
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
  /// (CodecScratch high-water marks; the rest is the block buffers and the
  /// Z rows).
  std::size_t codec_scratch_bytes = 0;

  // Fidelity.
  double fidelity_bound = 1.0;
  std::uint64_t lossy_passes = 0;

  // Communication (cross-rank gates only).
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_messages = 0;
  /// Seconds spent inside exchange calls, derived once from Comm's
  /// atomic nanosecond counter at report time.
  double comm_seconds = 0.0;

  /// SWAP gates absorbed into the qubit map (runtime/qubit_map.hpp)
  /// because nothing after them touched their qubits.
  std::uint64_t swaps_relabeled = 0;

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
