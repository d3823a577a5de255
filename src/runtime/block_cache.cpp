#include "runtime/block_cache.hpp"

namespace cqs::runtime {

BlockCache::BlockCache(std::size_t lines,
                       std::uint64_t disable_after_misses)
    : capacity_(lines), disable_after_misses_(disable_after_misses) {}

namespace {

/// The descriptor count, then each descriptor with its length.
std::uint64_t hash_descriptors(std::span<const Bytes> op_descriptors) {
  std::uint64_t h = fnv1a_u64(op_descriptors.size(), 0xcbf29ce484222325ull);
  for (const Bytes& d : op_descriptors) {
    h = fnv1a(d, h);
    h = fnv1a_u64(d.size(), h);
  }
  return h;
}

std::uint64_t hash_block(ByteSpan cb, std::uint8_t codec, std::uint64_t h) {
  h = fnv1a(cb, h);
  h = fnv1a_u64(cb.size(), h);
  return fnv1a_u64(codec, h);
}

}  // namespace

std::uint64_t BlockCache::make_key(std::span<const Bytes> op_descriptors,
                                   ByteSpan cb1, ByteSpan cb2,
                                   std::uint8_t cb1_codec,
                                   std::uint8_t cb2_codec,
                                   std::uint64_t map_generation) {
  std::uint64_t h = hash_descriptors(op_descriptors);
  h = hash_block(cb1, cb1_codec, h);
  h = hash_block(cb2, cb2_codec, h);
  if (map_generation != 0) h = fnv1a_u64(map_generation, h);
  return h;
}

std::uint64_t BlockCache::make_run_key(std::span<const Bytes> op_descriptors,
                                       ByteSpan cb1, std::uint8_t cb1_codec,
                                       std::uint64_t map_generation) {
  std::uint64_t h =
      hash_block(cb1, cb1_codec, hash_descriptors(op_descriptors));
  if (map_generation != 0) h = fnv1a_u64(map_generation, h);
  return h;
}

bool BlockCache::lookup(std::uint64_t key, Bytes& out1, Bytes& out2,
                        std::uint8_t* codec1, std::uint8_t* codec2) {
  std::lock_guard lock(mutex_);
  if (stats_.disabled) {
    // Disabled lookups short-circuit but still count: stats must account
    // for every lookup so hits + misses equals the number of calls.
    ++stats_.misses;
    return false;
  }
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    maybe_disable_locked();
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  out1 = it->second->out1;
  if (codec1 != nullptr) *codec1 = it->second->codec1;
  if (!it->second->out2.empty()) {
    out2 = it->second->out2;
    if (codec2 != nullptr) *codec2 = it->second->codec2;
  }
  return true;
}

void BlockCache::insert(std::uint64_t key, const Bytes& out1,
                        const Bytes& out2, std::uint8_t codec1,
                        std::uint8_t codec2) {
  std::lock_guard lock(mutex_);
  if (stats_.disabled || capacity_ == 0) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->out1 = out1;
    it->second->out2 = out2;
    it->second->codec1 = codec1;
    it->second->codec2 = codec2;
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front({key, out1, out2, codec1, codec2});
  index_[key] = lru_.begin();
}

CacheStats BlockCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

bool BlockCache::enabled() const {
  std::lock_guard lock(mutex_);
  return !stats_.disabled;
}

void BlockCache::maybe_disable_locked() {
  if (stats_.hits == 0 && stats_.misses >= disable_after_misses_) {
    stats_.disabled = true;
    lru_.clear();
    index_.clear();
  }
}

}  // namespace cqs::runtime
