// Configuration of the compressed-state simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cqs::core {

struct SimConfig {
  int num_qubits = 8;

  /// Logical MPI-style ranks (power of two). The state vector is divided
  /// equally across ranks (Section 3.1).
  int num_ranks = 1;

  /// Compressed blocks per rank (power of two). The paper uses blocks of
  /// 2^20 amplitudes (16 MB); at reduced qubit counts we use more, smaller
  /// blocks so the blocking machinery is still exercised.
  int blocks_per_rank = 4;

  /// Lossy codec name (make_compressor key): "qzc" (Solution C, the
  /// paper's default), "qzc-shuffle" (D), "sz" (A), "sz-complex" (B),
  /// "zfp", "fpzip". "zstd" forces a lossless-only simulation.
  std::string codec = "qzc";

  /// Per-block codec policy. "fixed" compresses every block with `codec`
  /// at any lossy ladder level (the paper's single-codec runs). "adaptive"
  /// lets the codec arbiter (runtime/codec_arbiter.hpp) inspect each
  /// block's statistics at every recompression and keep sparse/spiky
  /// blocks on the lossless zero-suppressing path even at a lossy level —
  /// the Figs. 9-14 observation that state structure dictates which codec
  /// wins. The thresholds it applies are ArbiterConfig's defaults.
  std::string codec_policy = "fixed";

  /// Error-bound ladder (Section 3.7): level 0 is lossless Zstd; level k
  /// compresses with pointwise relative bound ladder[k-1]. Whenever the
  /// memory budget is exceeded the level escalates to the next entry.
  std::vector<double> error_ladder = {1e-5, 1e-4, 1e-3, 1e-2, 1e-1};

  /// Total bytes the compressed state may occupy (the sum term of Eq. 8,
  /// excluding scratch). 0 = unlimited (stay lossless).
  std::size_t memory_budget_bytes = 0;

  /// Ladder level to start at (0 = lossless-first hybrid, the paper's
  /// default; >0 starts lossy, used by some ablations).
  int initial_level = 0;

  /// Worker threads (0 = hardware concurrency).
  int threads = 0;

  /// Compressed block cache (Section 3.4), kept inside one sweep: the
  /// units of a gate sweep that compute from equal inputs (rank, codec and
  /// payload bytes of each block read, and every kernel's selection there)
  /// share one output, so only the first decodes, computes and encodes.
  /// Nothing outlives the sweep, and states are bit-identical either way.
  /// Off: every unit computes its own output.
  bool enable_cache = true;

  /// Gate-run batching: the scheduler groups consecutive gates into maximal
  /// runs in which every gate that pairs blocks (a non-diagonal target in
  /// the block or rank segment) pairs them across the same qubit, and each
  /// block pays one decompress -> apply-run -> recompress round (and the
  /// run, at a lossy level, one fidelity pass) per run instead of per gate.
  /// Under a memory budget runs stop at 16 ops, so ladder escalation stays
  /// responsive mid-stretch.
  bool enable_run_batching = true;

  /// Compose fuse_single_qubit_gates as a scheduler pre-pass (only takes
  /// effect when enable_run_batching is on; the per-gate path applies
  /// circuits verbatim).
  bool enable_fusion_prepass = true;

  /// Logical->physical qubit remapping (Intel-QS-style relabeling over
  /// Section 3.3's partitioning). When on, the scheduler's remap pre-pass
  /// rewrites gates through the current qubit map, absorbs SWAPs into the
  /// map (exact up to the sign of zero components the skipped X kernels
  /// would have recomputed), and trades each hot rank-segment qubit into
  /// the offset segment with a single exchange sweep so later gates on it
  /// route block-locally — instead of one compressed-block exchange per
  /// gate. The trade plans with the remaining circuit: last-touch rank
  /// gates are paid in place, and a remap evicts only a resident that is
  /// never targeted again. Off by default: the identity layout reproduces
  /// the paper's communication behavior.
  bool enable_qubit_remap = false;

  /// Runtime-dispatched SIMD apply kernels (AVX2/NEON). Bit-identical to
  /// the scalar reference by construction; off forces the scalar path.
  bool enable_simd_kernels = true;

  /// Cross-rank transport backend (runtime/transport.hpp). "loopback"
  /// keeps all ranks in-process (the staged-copy model, the default);
  /// "socket" runs each rank as a real OS process joined by a stream
  /// socket — exchanged payloads traverse the wire as checksummed frames
  /// and states stay bit-identical to loopback. "socket" requires the
  /// CQS_TRANSPORT_SOCKET build and num_ranks >= 2.
  std::string transport = "loopback";

  /// Deadline (milliseconds) for every blocking wire operation on process
  /// transports: connect, send, recv. A rank that dies, stalls, or
  /// corrupts frames fails the exchange with a typed TransportError
  /// within this bound — an exchange can never hang. Must be positive.
  int rank_timeout_ms = 5000;

  /// Socket-transport endpoint flavor: "local" = a pre-connected
  /// Unix-domain socketpair per rank process; "tcp" = rank processes
  /// connect back to an ephemeral 127.0.0.1 listener.
  std::string socket_endpoint = "local";

  /// Out-of-core spill tier. Non-empty enables it: cold compressed blocks
  /// move to an unlinked scratch file created at this path (one segment
  /// per block, mmap readback) whenever the resident tier exceeds
  /// resident_budget_bytes. Tier moves are byte-preserving, so results
  /// are bit-identical to a spill-off run. Requires a resident budget.
  std::string spill_path;

  /// Compressed bytes the *resident* (in-memory) tier may hold when the
  /// spill tier is enabled; the excess is written behind to the spill
  /// file. With spilling on, memory_budget_bytes (the Eq. 8 enforcement)
  /// also governs the resident tier — bytes parked on NVMe no longer
  /// count against the in-memory budget. Must be > 0 when spill_path is
  /// set, 0 otherwise.
  std::size_t resident_budget_bytes = 0;

  /// Spilled blocks to advise (madvise WILLNEED) ahead of the executor's
  /// cursor, keyed on the scheduler's block order — the plan-driven
  /// readahead window. 0 disables readahead. In [0, 4096].
  int readahead_blocks = 4;

  /// Auto-checkpointing: the executors consume circuits in chunks of
  /// this many source gates (boundaries at absolute multiples of the
  /// interval) and save an atomic checkpoint to auto_checkpoint_path
  /// after each chunk. The interval is a scheduling cut: fused ops and
  /// gate runs never span a boundary, so a resume from the autosave
  /// re-chunks identically and is bit-identical to the uninterrupted
  /// autosaved run. (Like any scheduling knob, changing the interval
  /// reassociates fusion arithmetic relative to an autosave-off run.)
  /// 0 disables autosaving. Both knobs must be set together.
  std::uint64_t checkpoint_interval_gates = 0;
  std::string auto_checkpoint_path;

  /// Mid-run ENOSPC degradation: when a spill write fails with ENOSPC,
  /// settle what's already on disk, disable further spilling, and keep
  /// running with the whole working set resident — the Eq. 8 memory
  /// budget still governs via the error ladder, and only if the state
  /// cannot fit even at the last ladder level does the run fail with the
  /// original typed SpillError. Off by default (a disk-full spill fails
  /// the run immediately); run_resilient() forces it on. The report's
  /// `degraded` flag records that the fallback engaged.
  bool spill_degrade_on_enospc = false;
};

}  // namespace cqs::core
