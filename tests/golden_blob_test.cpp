// Golden-blob regression: the SHA-256 of every registry codec's compressed
// output on the shared spiky/dense/sparse fixtures must match the digests
// recorded before the codec hot-path overhaul. Checkpoints persist
// these containers, so any drift here means persisted state silently
// broke.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "compression/codec_scratch.hpp"
#include "compression/golden_blobs.hpp"

namespace cqs::compression {
namespace {

TEST(GoldenBlobTest, ScratchlessPathMatchesRecordedDigests) {
  for (const GoldenBlob& blob : kGoldenBlobs) {
    EXPECT_EQ(golden_blob_hash(blob), blob.sha256)
        << blob.codec << "/" << blob.mode << "/" << blob.fixture
        << ": compressed bitstream drifted from the pre-overhaul bytes";
  }
}

TEST(GoldenBlobTest, ScratchPathProducesIdenticalBytes) {
  // One scratch reused across every codec and fixture: pooled state must
  // never leak one pass's contents into the next container.
  CodecScratch scratch;
  for (const GoldenBlob& blob : kGoldenBlobs) {
    EXPECT_EQ(golden_blob_hash(blob, &scratch), blob.sha256)
        << blob.codec << "/" << blob.mode << "/" << blob.fixture
        << ": scratch-pooled compress diverged from the scratch-less path";
  }
}

TEST(GoldenBlobTest, ScratchDecompressMatchesScratchless) {
  CodecScratch scratch;
  for (const GoldenBlob& blob : kGoldenBlobs) {
    const auto codec = make_compressor(blob.codec);
    const auto& data = golden_fixture(blob.fixture);
    const Bytes compressed =
        codec->compress(data, golden_bound(blob.mode), scratch);
    std::vector<double> plain(data.size());
    std::vector<double> pooled(data.size());
    codec->decompress(compressed, plain);
    codec->decompress(compressed, pooled, scratch);
    ASSERT_EQ(plain.size(), pooled.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      // Bit-identical, including signed zeros and NaN payloads.
      ASSERT_EQ(std::memcmp(&plain[i], &pooled[i], sizeof(double)), 0)
          << blob.codec << "/" << blob.mode << "/" << blob.fixture
          << " index " << i;
    }
  }
}

TEST(GoldenBlobTest, EveryRegistryCodecIsPinned) {
  // A codec added to the registry must gain golden digests, otherwise its
  // wire format is unguarded.
  std::set<std::string> pinned;
  for (const GoldenBlob& blob : kGoldenBlobs) pinned.insert(blob.codec);
  for (const auto& name : compressor_names()) {
    EXPECT_TRUE(pinned.count(name))
        << "codec '" << name << "' has no golden-blob digests";
  }
}

TEST(GoldenBlobTest, EverySupportedModeIsPinned) {
  for (const auto& name : compressor_names()) {
    const auto codec = make_compressor(name);
    const auto has = [&](const char* mode) {
      for (const GoldenBlob& blob : kGoldenBlobs) {
        if (name == blob.codec && std::string(mode) == blob.mode) return true;
      }
      return false;
    };
    EXPECT_EQ(codec->supports(BoundMode::kLossless), has("lossless")) << name;
    EXPECT_EQ(codec->supports(BoundMode::kAbsolute), has("abs")) << name;
    EXPECT_EQ(codec->supports(BoundMode::kPointwiseRelative), has("rel"))
        << name;
  }
}

}  // namespace
}  // namespace cqs::compression
