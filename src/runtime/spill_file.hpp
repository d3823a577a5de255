// SpillFile: the cold tier behind the tiered BlockStore. Compressed block
// payloads are written to one unlinked scratch file (one segment per
// block) and read back through a single fixed memory-mapped view, so a
// spilled payload is a zero-copy ByteSpan into the page cache instead of
// a heap allocation.
//
// Design constraints the implementation encodes:
//   - Writes go through pwrite, never through the mapping: running out of
//     disk surfaces as a typed SpillError (ENOSPC and friends), not as a
//     SIGBUS on a store instruction.
//   - The read mapping is one PROT_READ reservation created at open time
//     and never remapped; the file grows underneath it, so views handed
//     out earlier can never dangle after a later write extends the file.
//   - Freed segments enter a by-offset free list that coalesces with both
//     neighbors, and allocation is first-fit from that list — the file
//     stays compacted instead of growing monotonically.
//   - The file is unlinked immediately after creation: the kernel reclaims
//     the space when the process exits (cleanly or not), and no stale
//     spill files survive a crash.
//   - Synthetic disk-full faults come from the process-wide FaultInjector
//     (site "spill.write", runtime/fault_injection.hpp) — tests and chaos
//     runs script ENOSPC without filling a disk.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::runtime {

/// Typed failure of the spill tier (open, write, map). `code` carries the
/// errno of the failing syscall (0 when the failure is not errno-shaped).
class SpillError : public std::runtime_error {
 public:
  SpillError(const std::string& what, int code = 0)
      : std::runtime_error(what), code_(code) {}
  int code() const { return code_; }

 private:
  int code_ = 0;
};

/// One block's home in the spill file. size == 0 means "no segment".
struct SpillSegment {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

class SpillFile {
 public:
  /// Creates (truncating) and unlinks the backing file at `path`, then
  /// establishes the fixed read-only reservation. Throws SpillError when
  /// the path cannot be created or mapped.
  explicit SpillFile(const std::string& path);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Writes `payload` into a free (or freshly grown) segment and returns
  /// it. Thread-safe; throws SpillError on any write failure (the
  /// reserved segment is returned to the free list first).
  SpillSegment write(ByteSpan payload);

  /// Zero-copy view of a segment's bytes through the fixed mapping.
  /// Valid until the segment is freed (a freed segment's bytes may be
  /// overwritten by a later write).
  ByteSpan view(const SpillSegment& segment) const;

  /// Returns a segment to the free list, coalescing with adjacent free
  /// neighbors. Thread-safe. No-op for empty segments.
  void free_segment(const SpillSegment& segment);

  /// High-water file size (bytes the file has ever grown to).
  std::uint64_t file_bytes() const;
  /// Bytes currently held by live (allocated) segments.
  std::uint64_t live_bytes() const;
  std::uint64_t live_segments() const;

 private:
  std::uint64_t allocate_locked(std::uint64_t size);

  /// Creation path, kept (though the file is unlinked) so every later
  /// error names the disk it happened on.
  std::string path_;
  int fd_ = -1;
  std::byte* map_ = nullptr;
  std::uint64_t reservation_ = 0;

  mutable std::mutex mutex_;
  std::vector<SpillSegment> free_;  ///< sorted by offset, coalesced
  std::uint64_t end_ = 0;           ///< file high-water mark
  std::uint64_t live_bytes_ = 0;
  std::uint64_t live_segments_ = 0;
};

}  // namespace cqs::runtime
