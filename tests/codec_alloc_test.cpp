// Allocation-counting hook: global operator new/delete replacements count
// every heap allocation in this binary, proving the scratch-pooled codec
// paths reach a zero-allocation steady state — the *_into entry points
// allocate nothing once warm, and the Compressor scratch overloads
// allocate exactly the one exact-sized payload they hand back.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "compression/codec_scratch.hpp"
#include "compression/golden_blobs.hpp"
#include "lossless/zx.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max<std::size_t>(
                             static_cast<std::size_t>(align), sizeof(void*)),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cqs::compression {
namespace {

/// Allocations performed by `fn`.
template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(CodecAllocTest, ZxIntoPathsAreAllocationFreeWhenWarm) {
  const auto& data = golden_fixture("spiky");
  const ByteSpan input = as_bytes_span<double>(data);
  lossless::ZxScratch scratch;
  Bytes compressed;
  Bytes decompressed;
  for (int warm = 0; warm < 3; ++warm) {
    compressed.clear();
    lossless::zx_compress_into(input, {}, scratch, compressed);
    lossless::zx_decompress_into(compressed, scratch, decompressed);
  }
  const std::uint64_t compress_allocs = count_allocations([&] {
    compressed.clear();
    lossless::zx_compress_into(input, {}, scratch, compressed);
  });
  EXPECT_EQ(compress_allocs, 0u);
  const std::uint64_t decompress_allocs = count_allocations([&] {
    lossless::zx_decompress_into(compressed, scratch, decompressed);
  });
  EXPECT_EQ(decompress_allocs, 0u);
  ASSERT_EQ(decompressed.size(), input.size());
}

TEST(CodecAllocTest, ScratchCompressorsReachSteadyState) {
  // Every registry codec is scratch-aware; on every fixture: decompress
  // allocates nothing, compress allocates exactly the returned payload.
  CodecScratch scratch;
  for (const auto& name : compressor_names()) {
    const auto codec = make_compressor(name);
    const ErrorBound bound =
        codec->supports(BoundMode::kPointwiseRelative)
            ? ErrorBound::relative(kGoldenRelativeBound)
            : ErrorBound::lossless();
    for (const char* fixture : {"spiky", "dense", "sparse"}) {
      const auto& data = golden_fixture(fixture);
      std::vector<double> out(data.size());
      Bytes compressed;
      for (int warm = 0; warm < 3; ++warm) {
        compressed = codec->compress(data, bound, scratch);
        codec->decompress(compressed, out, scratch);
      }
      std::uint64_t compress_allocs = 0;
      Bytes payload;
      compress_allocs = count_allocations(
          [&] { payload = codec->compress(data, bound, scratch); });
      EXPECT_LE(compress_allocs, 1u)
          << name << "/" << fixture
          << ": steady-state compress must only allocate the payload";
      EXPECT_FALSE(payload.empty()) << name << "/" << fixture;
      const std::uint64_t decompress_allocs = count_allocations(
          [&] { codec->decompress(payload, out, scratch); });
      EXPECT_EQ(decompress_allocs, 0u) << name << "/" << fixture;
    }
  }
}

TEST(CodecAllocTest, Lz77ScratchReuseIsConstantCost) {
  // The stamped head table must not be re-zero-filled per call: tokenizing
  // a tiny input with a warm scratch allocates nothing and leaves the
  // 2^18-entry table alone (a 1 MiB fill would dominate every small
  // block).
  lossless::Lz77Scratch scratch;
  const Bytes tiny(64, std::byte{7});
  Bytes tokens;
  for (int warm = 0; warm < 2; ++warm) {
    tokens.clear();
    lossless::lz77_tokenize(tiny, tokens, {}, scratch);
  }
  const std::uint64_t allocs = count_allocations([&] {
    for (int i = 0; i < 100; ++i) {
      tokens.clear();
      lossless::lz77_tokenize(tiny, tokens, {}, scratch);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(lossless::lz77_detokenize(tokens, tiny.size()), tiny);
}

}  // namespace
}  // namespace cqs::compression
