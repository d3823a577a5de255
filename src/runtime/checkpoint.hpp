// Simulation checkpointing (Section 3.5): the compressed blocks plus the
// little state needed to resume (gate index, ladder level, fidelity bound)
// are written to a file before a wall-time limit and reloaded by the next
// job. Because blocks are saved in compressed form, checkpoints are the
// same size as the in-memory footprint, not the raw state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/block_store.hpp"
#include "runtime/qubit_map.hpp"

namespace cqs::runtime {

struct CheckpointHeader {
  int num_qubits = 0;
  int num_ranks = 0;
  int blocks_per_rank = 0;
  std::uint32_t ladder_level = 0;
  std::uint64_t next_gate_index = 0;
  /// Digest of the circuit the gate index counts into: its qubit count and
  /// the ops before next_gate_index (see CompressedStateSimulator). 0 means
  /// unknown — v5/v6 images, or a state that left its circuit through an
  /// ad-hoc gate or a measurement — and resumes unchecked.
  std::uint64_t circuit_digest = 0;
  double fidelity_bound = 1.0;
  /// Lossy passes accumulated before the save.
  std::uint64_t lossy_passes = 0;
  std::string codec_name;
  /// Logical->physical layout of the saved blocks. Empty means the
  /// identity layout; the simulator derives it.
  QubitMap qubit_map;
};

/// Writes header + every rank's compressed blocks to `path` in format v7:
/// each block carries its ladder level, the codec id that produced its
/// payload, and which tier it occupied at save time, and the header
/// carries the lossy-pass count, the circuit digest and the
/// logical->physical qubit map the blocks are laid out under. Spilled
/// payloads are read back through the spill mapping, so an out-of-core
/// state checkpoints without being faulted into memory first. v7 is v5's
/// layout plus the 8-byte circuit digest after the gate index.
///
/// Durability: the image is written to `<path>.tmp`, fsynced, and
/// atomically renamed over `path` — a crash (or I/O failure) mid-save
/// leaves any previous checkpoint at `path` intact. Throws
/// std::runtime_error on I/O failure (the temporary is removed).
void save_checkpoint(const std::string& path, const CheckpointHeader& header,
                     const std::vector<BlockStore>& ranks);

/// A loaded checkpoint: every block is materialized resident (the loader
/// has no spill file); `spilled[r][b]` records which blocks occupied the
/// spill tier at save time so the resuming simulator can re-tier them
/// under its own budget.
struct LoadedCheckpoint {
  CheckpointHeader header;
  std::vector<BlockStore> ranks;
  std::vector<std::vector<std::uint8_t>> spilled;
};

/// Reads a checkpoint written by save_checkpoint, or a v5 or v6 image
/// written before v7 (same layout without the digest, which loads as 0).
/// A v1-v4 magic fails with std::runtime_error naming the version before
/// anything else is parsed. A qubit map that is not a permutation is
/// rejected with std::runtime_error. Block codec ids are validated against
/// the format version: a v5 image claiming an id beyond the v5 registry
/// (> 6) is corrupt and rejected, and a v6 or v7 id must exist in this
/// build's registry. The image's rank count and each rank's block count
/// must equal the header's num_ranks and blocks_per_rank and fit the bytes
/// left; any other count throws std::runtime_error before it sizes
/// anything.
LoadedCheckpoint load_checkpoint_full(const std::string& path);

}  // namespace cqs::runtime
