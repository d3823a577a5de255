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

  /// Error-bound ladder (Section 3.7). The level alone picks the codec:
  /// level 0 compresses every block with lossless zx (registry key
  /// "zstd"), level k with `codec` at pointwise relative bound
  /// ladder[k-1]. The budget is checked after each gate run (at most 16
  /// ops under a budget), each per-gate op and each measure(); when the
  /// state is over it there, the level rises one entry, and the next gate
  /// sweep re-encodes every block at it, the blocks its kernels skip
  /// included, in that sweep's one lossy pass. Where no sweep follows (the
  /// end of each apply_circuit or resume_circuit chunk, apply() and
  /// measure()), a sweep of its own re-encodes every block, records a pass
  /// and checks the budget again. The state can exceed the budget inside a
  /// run, and from a raise until the sweep that pays it.
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
  /// responsive mid-stretch. Without one, and for blocks of at most 64 KiB,
  /// consecutive runs merge into runs across two qubits, swept as cells
  /// of four blocks (qsim/scheduler.hpp).
  bool enable_run_batching = true;

  /// Compose fuse_single_qubit_gates as a scheduler pre-pass (only takes
  /// effect when enable_run_batching is on; the per-gate path applies
  /// circuits verbatim).
  bool enable_fusion_prepass = true;

  /// Runtime-dispatched SIMD apply kernels (AVX2/NEON). Bit-identical to
  /// the scalar reference by construction; off forces the scalar path.
  bool enable_simd_kernels = true;

  /// Out-of-core spill tier. Non-empty enables it: cold compressed blocks
  /// move to an unlinked scratch file created at this path (one segment
  /// per block, mmap readback) whenever the resident tier exceeds
  /// resident_budget_bytes. Tier moves are byte-preserving, so results
  /// are bit-identical to a spill-off run. Requires a resident budget.
  std::string spill_path;

  /// Compressed bytes the *resident* (in-memory) tier may hold when the
  /// spill tier is enabled; the excess is spilled synchronously, evicted
  /// at gate boundaries or streamed as blocks are rewritten. With spilling
  /// on, memory_budget_bytes (the Eq. 8 enforcement) also governs the
  /// resident tier — bytes parked on NVMe no longer count against the
  /// in-memory budget. Must be > 0 when spill_path is set, 0 otherwise.
  std::size_t resident_budget_bytes = 0;

  /// Auto-checkpointing: the executors consume circuits in chunks of
  /// this many source gates (boundaries at absolute multiples of the
  /// interval) and save an atomic checkpoint to auto_checkpoint_path
  /// after each chunk. The interval is a scheduling cut: fused ops and
  /// gate runs never span a boundary, and a ladder level raised at a
  /// chunk's end is paid there, before the save, so a resume from the
  /// autosave re-chunks identically and is bit-identical to the
  /// uninterrupted autosaved run. (Like any scheduling knob, changing the
  /// interval reassociates fusion arithmetic relative to an autosave-off
  /// run, and under a budget can add a lossy pass where a chunk ends.)
  /// 0 disables autosaving. Both knobs must be set together.
  std::uint64_t checkpoint_interval_gates = 0;
  std::string auto_checkpoint_path;

  /// Mid-run ENOSPC degradation: when a spill write fails with ENOSPC,
  /// leave that block resident, disable further spilling (blocks already
  /// on disk stay readable), and keep running resident — the Eq. 8 memory
  /// budget still governs via the error ladder, and only if the state
  /// cannot fit even at the last ladder level does the run fail with the
  /// original typed SpillError. Any other spill error (EIO, say) still
  /// fails the run. Off by default (a disk-full spill fails the run
  /// immediately); run_resilient() forces it on. The report's `degraded`
  /// flag records that the fallback engaged.
  bool spill_degrade_on_enospc = false;
};

}  // namespace cqs::core
