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
  double fidelity_bound = 1.0;
  /// Lossy passes accumulated before the save.
  std::uint64_t lossy_passes = 0;
  std::string codec_name;
  /// Logical->physical layout of the saved blocks. Empty means the
  /// identity layout; the simulator derives it.
  QubitMap qubit_map;
};

/// Writes header + every rank's compressed blocks to `path` in format
/// v5/v6: each block carries its ladder level, the codec id that produced
/// its payload, and which tier it occupied at save time, and the header
/// carries the lossy-pass count and the logical->physical qubit map the
/// blocks are laid out under. Spilled payloads are read back through the
/// spill mapping, so an out-of-core state checkpoints without being
/// faulted into memory first. v6 is byte-identical to v5 in layout and is
/// written only when some block's codec id is beyond the v5 registry
/// (ids > 6, e.g. "zfp-rans"), so images that v5 readers could load keep
/// the v5 magic byte-for-byte.
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

/// Reads a checkpoint written by save_checkpoint. Accepts formats v5 and
/// v6 only: a v1-v4 magic fails with std::runtime_error naming the version
/// before anything else is parsed. A qubit map that is not a permutation
/// is rejected with std::runtime_error. Block codec ids are validated
/// against the format version: a v5 image claiming an id beyond the v5
/// registry (> 6) is corrupt and rejected, and a v6 id must exist in this
/// build's registry. The image's rank count and each rank's block count
/// must equal the header's num_ranks and blocks_per_rank and fit the bytes
/// left; any other count throws std::runtime_error before it sizes
/// anything.
LoadedCheckpoint load_checkpoint_full(const std::string& path);

/// load_checkpoint_full without the tier flags — the historical interface,
/// for callers that re-tier from scratch (or never spill).
std::pair<CheckpointHeader, std::vector<BlockStore>> load_checkpoint(
    const std::string& path);

}  // namespace cqs::runtime
