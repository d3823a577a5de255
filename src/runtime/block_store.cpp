#include "runtime/block_store.hpp"

#include <stdexcept>
#include <utility>

namespace cqs::runtime {
namespace {

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
}

BlockStore::BlockStore(BlockStore&& other) noexcept
    : slots_(std::move(other.slots_)),
      meta_(std::move(other.meta_)),
      stats_(other.stats_),
      spill_(other.spill_) {
  other.slots_.clear();
  other.stats_ = nullptr;
  other.spill_ = nullptr;
}

BlockStore& BlockStore::operator=(BlockStore&& other) noexcept {
  if (this == &other) return *this;
  release_segments();
  slots_ = std::move(other.slots_);
  meta_ = std::move(other.meta_);
  stats_ = other.stats_;
  spill_ = other.spill_;
  other.slots_.clear();
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
    if (slot.spilled) {
      spill_->free_segment(slot.segment);
      slot.spilled = false;
      slot.segment = {};
    }
  }
}

void BlockStore::attach(TierStats* stats, SpillFile* spill) {
  stats_ = stats;
  spill_ = spill;
  if (stats_ == nullptr) return;
  std::ptrdiff_t resident = 0;
  std::ptrdiff_t spilled = 0;
  for (int b = 0; b < num_blocks(); ++b) {
    const auto size = static_cast<std::ptrdiff_t>(block_size(b));
    (is_spilled(b) ? spilled : resident) += size;
  }
  if (resident != 0 || spilled != 0) stats_->note_delta(resident, spilled);
}

ByteSpan BlockStore::payload_view(int index) const {
  if (stats_ != nullptr && is_spilled(index)) {
    stats_->fault_events.fetch_add(1, std::memory_order_relaxed);
  }
  return raw_view(index);
}

ByteSpan BlockStore::raw_view(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (!slot.spilled) return ByteSpan(slot.payload);
  return spill_->view(slot.segment);
}

std::size_t BlockStore::block_size(int index) const {
  const Slot& slot = slots_[static_cast<std::size_t>(index)];
  return slot.spilled ? static_cast<std::size_t>(slot.segment.size)
                      : slot.payload.size();
}

void BlockStore::set_block(int index, Bytes payload, BlockMeta meta) {
  if (index < 0 || index >= num_blocks()) {
    throw std::out_of_range("BlockStore: block index out of range");
  }
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  std::ptrdiff_t resident_delta = static_cast<std::ptrdiff_t>(payload.size());
  std::ptrdiff_t spilled_delta = 0;
  if (slot.spilled) {
    spill_->free_segment(slot.segment);
    spilled_delta -= static_cast<std::ptrdiff_t>(slot.segment.size);
    slot.spilled = false;
    slot.segment = {};
  } else {
    resident_delta -= static_cast<std::ptrdiff_t>(slot.payload.size());
  }
  slot.payload = std::move(payload);
  meta_[static_cast<std::size_t>(index)] = meta;
  if (stats_ != nullptr) stats_->note_delta(resident_delta, spilled_delta);
}

void BlockStore::spill_block(int index) {
  Slot& slot = slots_[static_cast<std::size_t>(index)];
  if (slot.spilled || slot.payload.empty() || spill_ == nullptr) return;
  slot.segment = spill_->write(slot.payload);  // may throw
  slot.spilled = true;
  const auto size = static_cast<std::ptrdiff_t>(slot.payload.size());
  slot.payload = Bytes();  // frees the buffer; clear() would keep it
  if (stats_ != nullptr) {
    stats_->note_delta(-size, size);
    stats_->spill_events.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace cqs::runtime
