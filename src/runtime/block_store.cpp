#include "runtime/block_store.hpp"

#include <stdexcept>
#include <utility>

namespace cqs::runtime {
namespace {

// Relaxed atomic helpers for Slot tier fields (see the Slot comment: a
// racing advise() may read them from any worker).
template <typename T>
T tier_load(const T& field) {
  return std::atomic_ref(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}
template <typename T>
void tier_store(T& field, T value) {
  std::atomic_ref(field).store(value, std::memory_order_relaxed);
}

void fetch_max(std::atomic<std::size_t>& peak, std::size_t value) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (seen < value &&
         !peak.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

void add_delta(std::atomic<std::size_t>& counter, std::ptrdiff_t delta) {
  if (delta >= 0) {
    counter.fetch_add(static_cast<std::size_t>(delta),
                      std::memory_order_relaxed);
  } else {
    counter.fetch_sub(static_cast<std::size_t>(-delta),
                      std::memory_order_relaxed);
  }
}

}  // namespace

void TierStats::note_delta(std::ptrdiff_t resident_delta,
                           std::ptrdiff_t spilled_delta) {
  add_delta(resident_bytes, resident_delta);
  add_delta(spilled_bytes, spilled_delta);
  // Sampled at every mutation, the peaks bound actual occupancy — the
  // gate-boundary sampling they replace missed transient maxima while a
  // sweep held both exchange partners resident.
  const std::size_t resident = resident_bytes.load(std::memory_order_relaxed);
  fetch_max(peak_resident_bytes, resident);
  fetch_max(peak_total_bytes,
            resident + spilled_bytes.load(std::memory_order_relaxed));
}

void TierStats::reset() {
  resident_bytes.store(0, std::memory_order_relaxed);
  spilled_bytes.store(0, std::memory_order_relaxed);
  peak_resident_bytes.store(0, std::memory_order_relaxed);
  peak_total_bytes.store(0, std::memory_order_relaxed);
  spill_events.store(0, std::memory_order_relaxed);
  fault_events.store(0, std::memory_order_relaxed);
  readahead_issued.store(0, std::memory_order_relaxed);
  readahead_hits.store(0, std::memory_order_relaxed);
}

BlockStore::BlockStore(BlockStore&& other) noexcept
    : slots_(std::move(other.slots_)),
      meta_(std::move(other.meta_)),
      resident_bytes_(other.resident_bytes_),
      spilled_bytes_(other.spilled_bytes_),
      stats_(other.stats_),
      spill_(other.spill_) {
  other.slots_.clear();
  other.resident_bytes_ = 0;
  other.spilled_bytes_ = 0;
  other.stats_ = nullptr;
  other.spill_ = nullptr;
}

BlockStore& BlockStore::operator=(BlockStore&& other) noexcept {
  if (this == &other) return *this;
  release_segments();
  slots_ = std::move(other.slots_);
  meta_ = std::move(other.meta_);
  resident_bytes_ = other.resident_bytes_;
  spilled_bytes_ = other.spilled_bytes_;
  stats_ = other.stats_;
  spill_ = other.spill_;
  other.slots_.clear();
  other.resident_bytes_ = 0;
  other.spilled_bytes_ = 0;
  other.stats_ = nullptr;
  other.spill_ = nullptr;
  return *this;
}

BlockStore::~BlockStore() { release_segments(); }

void BlockStore::release_segments() {
  // Destruction only returns spill segments; the shared TierStats is left
  // alone — a replaced store set (checkpoint restore) resets and refolds
  // the stats explicitly, and subtracting here would corrupt that.
  if (spill_ == nullptr) return;
  for (Slot& slot : slots_) {
    if (tier_load(slot.spilled) != 0) {
      spill_->free_segment(slot.segment);
      tier_store<std::uint8_t>(slot.spilled, 0);
      slot.segment = {};
    }
  }
}

void BlockStore::attach(TierStats* stats, SpillFile* spill) {
  stats_ = stats;
  spill_ = spill;
  if (stats_ != nullptr) {
    const std::ptrdiff_t resident =
        static_cast<std::ptrdiff_t>(resident_bytes());
    const std::ptrdiff_t spilled =
        static_cast<std::ptrdiff_t>(spilled_bytes());
    if (resident != 0 || spilled != 0) stats_->note_delta(resident, spilled);
  }
}

void BlockStore::account(std::ptrdiff_t resident_delta,
                         std::ptrdiff_t spilled_delta) {
  if (resident_delta != 0) {
    std::atomic_ref<std::size_t> resident(resident_bytes_);
    if (resident_delta >= 0) {
      resident.fetch_add(static_cast<std::size_t>(resident_delta),
                         std::memory_order_relaxed);
    } else {
      resident.fetch_sub(static_cast<std::size_t>(-resident_delta),
                         std::memory_order_relaxed);
    }
  }
  if (spilled_delta != 0) {
    std::atomic_ref<std::size_t> spilled(spilled_bytes_);
    if (spilled_delta >= 0) {
      spilled.fetch_add(static_cast<std::size_t>(spilled_delta),
                        std::memory_order_relaxed);
    } else {
      spilled.fetch_sub(static_cast<std::size_t>(-spilled_delta),
                        std::memory_order_relaxed);
    }
  }
  if (stats_ != nullptr) stats_->note_delta(resident_delta, spilled_delta);
}

const Bytes& BlockStore::block(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (tier_load(slot.spilled) != 0) {
    throw std::logic_error(
        "BlockStore::block: block is spilled; read it through "
        "payload_view");
  }
  return slot.payload;
}

ByteSpan BlockStore::payload_view(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (tier_load(slot.spilled) == 0) return ByteSpan(slot.payload);
  if (stats_ != nullptr) {
    stats_->fault_events.fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<std::uint8_t> advised(slot.advised);
    if (advised.exchange(0, std::memory_order_relaxed) != 0) {
      stats_->readahead_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return spill_->view(slot.segment);
}

ByteSpan BlockStore::raw_view(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (tier_load(slot.spilled) == 0) return ByteSpan(slot.payload);
  return spill_->view(slot.segment);
}

std::size_t BlockStore::block_size(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  return tier_load(slot.spilled) != 0
             ? static_cast<std::size_t>(slot.segment.size)
             : slot.payload.size();
}

void BlockStore::set_block(int index, Bytes payload, BlockMeta meta) {
  if (index < 0 || index >= num_blocks()) {
    throw std::out_of_range("BlockStore: block index out of range");
  }
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  std::ptrdiff_t resident_delta = 0;
  std::ptrdiff_t spilled_delta = 0;
  if (tier_load(slot.spilled) != 0) {
    // Unpublish the tier flag before the segment goes back to the free
    // list, so a racing advise never hints at a recycled range.
    tier_store<std::uint8_t>(slot.spilled, 0);
    spill_->free_segment(slot.segment);
    spilled_delta -= static_cast<std::ptrdiff_t>(slot.segment.size);
    tier_store<std::uint64_t>(slot.segment.offset, 0);
    tier_store<std::uint64_t>(slot.segment.size, 0);
  } else {
    resident_delta -= static_cast<std::ptrdiff_t>(slot.payload.size());
  }
  resident_delta += static_cast<std::ptrdiff_t>(payload.size());
  slot.payload = std::move(payload);
  std::atomic_ref<std::uint8_t>(slot.advised)
      .store(0, std::memory_order_relaxed);
  meta_[static_cast<std::size_t>(index)] = meta;
  account(resident_delta, spilled_delta);
}

void BlockStore::spill_block(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (tier_load(slot.spilled) != 0 || slot.payload.empty() ||
      spill_ == nullptr) {
    return;
  }
  const SpillSegment segment = spill_->write(slot.payload);  // may throw
  const auto size = static_cast<std::ptrdiff_t>(slot.payload.size());
  tier_store(slot.segment.offset, segment.offset);
  tier_store(slot.segment.size, segment.size);
  tier_store<std::uint8_t>(slot.spilled, 1);  // publish after the segment
  slot.payload = Bytes();  // frees the buffer; clear() would keep it
  account(-size, size);
  if (stats_ != nullptr) {
    stats_->spill_events.fetch_add(1, std::memory_order_relaxed);
  }
}

void BlockStore::advise(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (spill_ == nullptr || tier_load(slot.spilled) == 0) return;
  const SpillSegment segment{tier_load(slot.segment.offset),
                             tier_load(slot.segment.size)};
  if (segment.size == 0) return;  // raced a tier transition; nothing to do
  spill_->advise_willneed(segment);
  std::atomic_ref<std::uint8_t>(slot.advised)
      .store(1, std::memory_order_relaxed);
  if (stats_ != nullptr) {
    stats_->readahead_issued.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace cqs::runtime
