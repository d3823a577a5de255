#include "runtime/spill_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "runtime/fault_injection.hpp"

namespace cqs::runtime {
namespace {

// Virtual address space reserved for the read mapping. The file may grow
// up to this size; 64-bit address space makes the reservation free, and
// PROT_READ + MAP_NORESERVE means no memory or swap is committed for it.
constexpr std::uint64_t kReservationBytes = std::uint64_t{1} << 36;  // 64 GiB

std::string errno_text(const std::string& prefix, int err) {
  return prefix + ": " + std::strerror(err);
}

}  // namespace

SpillFile::SpillFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (fd_ < 0) {
    throw SpillError(
        errno_text("spill: cannot create spill file '" + path + "'", errno),
        errno);
  }
  // Unlink immediately: the fd keeps the inode alive, the namespace entry
  // is gone, and the kernel reclaims the blocks when the process exits —
  // even on a crash. (Failure to unlink is not fatal; the file merely
  // stays visible.)
  ::unlink(path.c_str());

  reservation_ = kReservationBytes;
  void* map = ::mmap(nullptr, reservation_, PROT_READ,
                     MAP_SHARED | MAP_NORESERVE, fd_, 0);
  if (map == MAP_FAILED) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw SpillError(
        errno_text("spill: cannot map spill file '" + path + "'", err), err);
  }
  map_ = static_cast<std::byte*>(map);
}

SpillFile::~SpillFile() {
  if (map_ != nullptr) ::munmap(map_, reservation_);
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t SpillFile::allocate_locked(std::uint64_t size) {
  // First-fit over the coalesced, offset-sorted free list; splitting the
  // hole keeps the remainder in place. Falling through grows the file.
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].size < size) continue;
    const std::uint64_t offset = free_[i].offset;
    free_[i].offset += size;
    free_[i].size -= size;
    if (free_[i].size == 0) {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return offset;
  }
  const std::uint64_t offset = end_;
  end_ += size;
  return offset;
}

SpillSegment SpillFile::write(ByteSpan payload) {
  if (payload.empty()) return {};
  SpillSegment segment;
  segment.size = payload.size();
  bool over_reservation = false;
  {
    std::lock_guard lock(mutex_);
    segment.offset = allocate_locked(segment.size);
    live_bytes_ += segment.size;
    ++live_segments_;
    over_reservation = segment.offset + segment.size > reservation_;
  }
  if (over_reservation) {
    free_segment(segment);
    throw SpillError("spill: file '" + path_ +
                     "' would exceed the mapped reservation");
  }

  // Injected disk-full: the scripted fault behaves exactly like a real
  // short write — the reserved segment goes back first, then the typed
  // error surfaces with the same errno a full disk would produce.
  if (auto hit = FaultInjector::instance().on_call(fault_sites::kSpillWrite)) {
    const int err = hit->action == "eio" ? EIO : ENOSPC;
    free_segment(segment);
    throw SpillError(errno_text("spill: write to '" + path_ +
                                    "' failed (injected " + hit->action + ")",
                                err),
                     err);
  }

  const std::byte* src = payload.data();
  std::uint64_t written = 0;
  while (written < segment.size) {
    const ssize_t n =
        ::pwrite(fd_, src + written, segment.size - written,
                 static_cast<off_t>(segment.offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      free_segment(segment);
      throw SpillError(
          errno_text("spill: write to '" + path_ + "' failed", err), err);
    }
    if (n == 0) {
      free_segment(segment);
      throw SpillError(
          errno_text("spill: write to '" + path_ + "' failed", ENOSPC),
          ENOSPC);
    }
    written += static_cast<std::uint64_t>(n);
  }
  return segment;
}

ByteSpan SpillFile::view(const SpillSegment& segment) const {
  if (segment.size == 0) return {};
  return {map_ + segment.offset, segment.size};
}

void SpillFile::free_segment(const SpillSegment& segment) {
  if (segment.size == 0) return;
  std::lock_guard lock(mutex_);
  live_bytes_ -= segment.size;
  --live_segments_;
  // Insert by offset, then coalesce with the previous and next holes so
  // the free list stays compact and future fits stay large.
  auto it = std::lower_bound(
      free_.begin(), free_.end(), segment.offset,
      [](const SpillSegment& s, std::uint64_t off) { return s.offset < off; });
  it = free_.insert(it, segment);
  if (it != free_.begin()) {
    auto prev = it - 1;
    if (prev->offset + prev->size == it->offset) {
      prev->size += it->size;
      it = free_.erase(it) - 1;
    }
  }
  if (it + 1 != free_.end() && it->offset + it->size == (it + 1)->offset) {
    it->size += (it + 1)->size;
    it = free_.erase(it + 1) - 1;
  }
  // A trailing hole at the high-water mark shrinks the file's logical end
  // so regrowth reuses it even after the list empties.
  if (it->offset + it->size == end_) {
    end_ = it->offset;
    free_.erase(it);
  }
}

std::uint64_t SpillFile::file_bytes() const {
  std::lock_guard lock(mutex_);
  return end_;
}

std::uint64_t SpillFile::live_bytes() const {
  std::lock_guard lock(mutex_);
  return live_bytes_;
}

std::uint64_t SpillFile::live_segments() const {
  std::lock_guard lock(mutex_);
  return live_segments_;
}

}  // namespace cqs::runtime
