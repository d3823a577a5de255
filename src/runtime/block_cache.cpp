#include "runtime/block_cache.hpp"

namespace cqs::runtime {

std::uint64_t BlockCache::make_run_key(std::span<const Bytes> op_descriptors,
                                       ByteSpan cb1, std::uint8_t cb1_codec) {
  std::uint64_t h = fnv1a_u64(op_descriptors.size(), 0xcbf29ce484222325ull);
  for (const Bytes& d : op_descriptors) {
    h = fnv1a(d, h);
    h = fnv1a_u64(d.size(), h);
  }
  h = fnv1a(cb1, h);
  h = fnv1a_u64(cb1.size(), h);
  return fnv1a_u64(cb1_codec, h);
}

}  // namespace cqs::runtime
