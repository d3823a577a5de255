// Unit tests for the distributed runtime substrate: partitioning math,
// block store, run-key hash, comm accounting, scratch arena, checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compression/compressor.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/block_store.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/comm.hpp"
#include "runtime/partition.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace cqs::runtime {
namespace {

bool same_payload(const BlockStore& a, const BlockStore& b, int index) {
  const ByteSpan x = a.raw_view(index);
  const ByteSpan y = b.raw_view(index);
  return std::ranges::equal(x, y);
}

TEST(PartitionTest, SegmentsMatchFigure3) {
  // 10 qubits, 4 ranks, 8 blocks/rank -> offset 5 bits, block 3, rank 2.
  const Partition p = make_partition(10, 4, 8);
  EXPECT_EQ(p.offset_bits, 5);
  EXPECT_EQ(p.block_bits, 3);
  EXPECT_EQ(p.rank_bits, 2);
  EXPECT_EQ(p.amplitudes_per_block(), 32u);
  EXPECT_EQ(p.segment_of(0), Partition::Segment::kOffset);
  EXPECT_EQ(p.segment_of(4), Partition::Segment::kOffset);
  EXPECT_EQ(p.segment_of(5), Partition::Segment::kBlock);
  EXPECT_EQ(p.segment_of(7), Partition::Segment::kBlock);
  EXPECT_EQ(p.segment_of(8), Partition::Segment::kRank);
  EXPECT_EQ(p.segment_of(9), Partition::Segment::kRank);
  EXPECT_EQ(p.local_bit(6), 1);
  EXPECT_EQ(p.local_bit(9), 1);
}

TEST(PartitionTest, GlobalIndexComposition) {
  const Partition p = make_partition(10, 4, 8);
  // rank 2, block 5, offset 9 -> 10 0101 01001.
  EXPECT_EQ(p.global_index(2, 5, 9), (2u << 8) | (5u << 5) | 9u);
}

TEST(PartitionTest, RejectsBadShapes) {
  EXPECT_THROW(make_partition(8, 3, 4), std::invalid_argument);   // not pow2
  EXPECT_THROW(make_partition(8, 4, 3), std::invalid_argument);   // not pow2
  EXPECT_THROW(make_partition(4, 16, 16), std::invalid_argument);  // too small
  EXPECT_NO_THROW(make_partition(8, 4, 8));
}

TEST(BlockStoreTest, TracksTotalBytes) {
  TierStats stats;
  BlockStore store(4);
  store.attach(&stats, nullptr);
  EXPECT_EQ(stats.resident_bytes.load(), 0u);
  store.set_block(0, Bytes(100), {1});
  store.set_block(1, Bytes(50), {0});
  EXPECT_EQ(stats.resident_bytes.load(), 150u);
  store.set_block(0, Bytes(10), {2});
  EXPECT_EQ(stats.resident_bytes.load(), 60u);
  EXPECT_EQ(stats.spilled_bytes.load(), 0u);
  EXPECT_EQ(store.meta(0).level, 2);
  EXPECT_THROW(store.set_block(4, Bytes(1), {}), std::out_of_range);
}

TEST(BlockStoreTest, TotalBytesAccountingAcrossReplacements) {
  // Regression coverage for set_block's byte deltas: replace-smaller,
  // replace-larger, and empty payloads must all keep the ledger exact.
  TierStats stats;
  BlockStore store(3);
  store.attach(&stats, nullptr);
  auto total = [&] { return stats.resident_bytes.load(); };
  store.set_block(0, Bytes(100), {0});
  store.set_block(1, Bytes(200), {0});
  store.set_block(2, Bytes(300), {0});
  ASSERT_EQ(total(), 600u);

  store.set_block(1, Bytes(50), {1});  // replace with smaller
  EXPECT_EQ(total(), 450u);

  store.set_block(1, Bytes(500), {2});  // replace with larger
  EXPECT_EQ(total(), 900u);

  store.set_block(0, Bytes{}, {3});  // replace with empty payload
  EXPECT_EQ(total(), 800u);
  EXPECT_TRUE(store.raw_view(0).empty());

  store.set_block(0, Bytes{}, {3});  // empty -> empty is a no-op in bytes
  EXPECT_EQ(total(), 800u);

  store.set_block(0, Bytes(1), {0});  // and back from empty
  EXPECT_EQ(total(), 801u);
  EXPECT_EQ(stats.peak_total_bytes.load(), 900u);
}

TEST(BlockStoreTest, MetaLevelTracksEveryReplacement) {
  BlockStore store(2);
  store.set_block(0, Bytes(10), {5});
  EXPECT_EQ(store.meta(0).level, 5);
  store.set_block(0, Bytes{}, {7});  // empty payloads still carry meta
  EXPECT_EQ(store.meta(0).level, 7);
  EXPECT_EQ(store.meta(1).level, 0);  // untouched block keeps default
}

TEST(BlockCacheTest, RunKeyIsDeterministicAndBoundaryAware) {
  const Bytes ab{std::byte{'a'}, std::byte{'b'}};
  const Bytes a{std::byte{'a'}};
  const Bytes b{std::byte{'b'}};
  const Bytes c{std::byte{'c'}};
  const Bytes block(16, std::byte{7});

  const std::vector<Bytes> split{a, b, c};
  const std::vector<Bytes> merged{ab, c};
  EXPECT_EQ(BlockCache::make_run_key(split, block),
            BlockCache::make_run_key(split, block));
  // Descriptor boundaries are part of the identity: {"a","b"} != {"ab"}.
  EXPECT_NE(BlockCache::make_run_key(split, block),
            BlockCache::make_run_key(merged, block));
  // Gate order within the run matters.
  const std::vector<Bytes> reversed{c, b, a};
  EXPECT_NE(BlockCache::make_run_key(split, block),
            BlockCache::make_run_key(reversed, block));
  // And so does the input block the run reads.
  const Bytes other_block(16, std::byte{8});
  EXPECT_NE(BlockCache::make_run_key(split, block),
            BlockCache::make_run_key(split, other_block));
}

// Comm::exchange is the in-process loopback: every rank lives in this
// process, so an exchange stages a copy of each payload toward its partner.
Bytes make_payload(std::size_t size, unsigned seed) {
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return payload;
}

TEST(LoopbackTransportTest, ExchangeDeliversCrossedPayloads) {
  Comm comm(4);
  const Bytes from_a = make_payload(100, 1);
  const Bytes from_b = make_payload(200, 2);
  const auto received = comm.exchange(0, 2, from_a, from_b);
  EXPECT_EQ(received.to_a, from_b);
  EXPECT_EQ(received.to_b, from_a);
  // The delivery is a copy: the senders' buffers are left as they were.
  EXPECT_EQ(from_a, make_payload(100, 1));
  EXPECT_EQ(from_b, make_payload(200, 2));
}

TEST(LoopbackTransportTest, WireStatsCountEachPayloadOnce) {
  // The staged copy is charged exactly once per direction, with no
  // framing bytes on top of the payloads.
  Comm comm(2);
  comm.exchange(0, 1, make_payload(64, 1), make_payload(64, 2));
  const auto stats = comm.stats();
  EXPECT_EQ(stats.bytes_moved, 128u);
  EXPECT_EQ(stats.messages, 2u);
}

TEST(CommTest, ExchangeSwapsPayloadsAndCounts) {
  Comm comm(4);
  const Bytes a(100, std::byte{1});
  const Bytes b(200, std::byte{2});
  const auto received = comm.exchange(0, 2, a, b);
  EXPECT_EQ(received.to_a, b);
  EXPECT_EQ(received.to_b, a);
  EXPECT_EQ(comm.stats().bytes_moved, 300u);
  EXPECT_EQ(comm.stats().messages, 2u);
}

TEST(CommTest, ExchangeModelsOneBufferedSendrecvPerPair) {
  // The simulator routes every cross-rank block pair through exactly one
  // exchange: 2 messages (one each way) and the sum of both compressed
  // inputs. N pairs therefore cost exactly 2N messages.
  Comm comm(4);
  const std::size_t pairs = 5;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Bytes from_a(40 + i, std::byte{1});
    const Bytes from_b(60 + i, std::byte{2});
    comm.exchange(1, 3, from_a, from_b);
  }
  EXPECT_EQ(comm.stats().messages, 2 * pairs);
  EXPECT_EQ(comm.stats().bytes_moved, 5u * (40 + 60) + 2u * (0 + 1 + 2 + 3 + 4));
}

TEST(CommTest, SecondsIsDerivedFromNanosAtReadTime) {
  // CommStats.seconds is a pure function of the atomic nanosecond counter
  // — computed once at read time, never accumulated as floating point.
  EXPECT_EQ(CommStats{}.seconds(), 0.0);
  Comm comm(2);
  const Bytes a(4096, std::byte{1});
  const Bytes b(4096, std::byte{2});
  for (int i = 0; i < 8; ++i) comm.exchange(0, 1, a, b);
  const auto stats = comm.stats();
  EXPECT_DOUBLE_EQ(stats.seconds(), static_cast<double>(stats.nanos) * 1e-9);
  CommStats synthetic;
  synthetic.nanos = 1'500'000'000ULL;
  EXPECT_DOUBLE_EQ(synthetic.seconds(), 1.5);
}

TEST(CommTest, ResetClearsAllCounters) {
  Comm comm(2);
  const Bytes a(64, std::byte{5});
  const Bytes b(64, std::byte{6});
  comm.exchange(0, 1, a, b);
  EXPECT_EQ(comm.stats().bytes_moved, 128u);
  comm.reset();
  EXPECT_EQ(comm.stats().bytes_moved, 0u);
  EXPECT_EQ(comm.stats().messages, 0u);
  EXPECT_EQ(comm.stats().nanos, 0u);
}

TEST(CommTest, RejectsBadRanks) {
  Comm comm(2);
  EXPECT_THROW(comm.exchange(0, 0, {}, {}), std::invalid_argument);
  EXPECT_THROW(comm.exchange(0, 5, {}, {}), std::invalid_argument);
  EXPECT_THROW(comm.exchange(-1, 1, {}, {}), std::invalid_argument);
}

TEST(ScratchTest, CodecPoolsEnterByteAccounting) {
  // A fresh arena charges only the block buffers; once a worker's codec
  // pool warms up, its high-water mark joins the Eq. 8 footprint.
  ScratchArena arena(2, 64);
  EXPECT_EQ(arena.codec_scratch_bytes(), 0u);
  EXPECT_EQ(arena.bytes(), arena.block_buffer_bytes());
  arena.codec_scratch(1).inner.reserve(1024);
  EXPECT_GE(arena.codec_scratch_bytes(), 1024u);
  EXPECT_EQ(arena.bytes(),
            arena.block_buffer_bytes() + arena.codec_scratch_bytes());
}

TEST(ScratchTest, SlotsAreDisjoint) {
  for (const std::size_t buffers : {2, 4}) {
    ScratchArena arena(3, 64, buffers);
    EXPECT_EQ(arena.buffers(), buffers);
    EXPECT_EQ(arena.bytes(), 3u * buffers * 64 * sizeof(double));
    for (std::size_t w = 0; w < 3; ++w) {
      for (std::size_t i = 0; i < buffers; ++i) {
        auto buffer = arena.block_buffer(w, i);
        EXPECT_EQ(buffer.size(), 64u);
        buffer[0] = static_cast<double>(w * buffers + i);
        buffer[63] = -static_cast<double>(w * buffers + i);
      }
    }
    for (std::size_t w = 0; w < 3; ++w) {
      for (std::size_t i = 0; i < buffers; ++i) {
        EXPECT_EQ(arena.block_buffer(w, i)[0],
                  static_cast<double>(w * buffers + i));
        EXPECT_EQ(arena.block_buffer(w, i)[63],
                  -static_cast<double>(w * buffers + i));
      }
    }
  }
}

TEST(ScratchTest, FourBuffersPayWithShortLinks) {
  // Each worker codes the same 64 KiB block: four buffers with 16-bit
  // chain links hold exactly the bytes two buffers with 32-bit links do.
  constexpr std::size_t kDoubles = 8192;
  const std::vector<double> block =
      test::dense_supremacy_like(kDoubles, 17);
  const auto zx = compression::make_compressor("zstd");
  ScratchArena pairs(2, kDoubles);
  ScratchArena cells(2, kDoubles, 4);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(zx->compress(block, compression::ErrorBound::lossless(),
                           cells.codec_scratch(w)),
              zx->compress(block, compression::ErrorBound::lossless(),
                           pairs.codec_scratch(w)));
    EXPECT_FALSE(pairs.codec_scratch(w).zx.lz.short_links);
    EXPECT_TRUE(cells.codec_scratch(w).zx.lz.short_links);
  }
  EXPECT_EQ(cells.block_buffer_bytes(), 2 * pairs.block_buffer_bytes());
  EXPECT_EQ(pairs.codec_scratch_bytes() - cells.codec_scratch_bytes(),
            2 * 2 * kDoubles * sizeof(double));
  EXPECT_EQ(cells.bytes(), pairs.bytes());
}

using TempDirFixtureTest = test::TempDirFixture;

TEST_F(TempDirFixtureTest, DirectoryNameCarriesTheProcessId) {
  // Two processes running the same test at once (two build trees' ctest
  // runs on one host) must not share, and delete, one directory.
  const std::filesystem::path dir =
      std::filesystem::path(path("file")).parent_path();
  EXPECT_EQ(dir.filename().string(),
            "cqs_TempDirFixtureTest_DirectoryNameCarriesTheProcessId_" +
                std::to_string(::getpid()));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

using CheckpointTest = test::TempDirFixture;

TEST_F(CheckpointTest, RoundTrip) {
  const std::string path = this->path("checkpoint.bin");
  CheckpointHeader header;
  header.num_qubits = 12;
  header.num_ranks = 2;
  header.blocks_per_rank = 4;
  header.ladder_level = 3;
  header.next_gate_index = 42;
  header.fidelity_bound = 0.987;
  header.codec_name = "qzc";

  std::vector<BlockStore> ranks;
  for (int r = 0; r < 2; ++r) ranks.emplace_back(4);
  for (int r = 0; r < 2; ++r) {
    for (int b = 0; b < 4; ++b) {
      Bytes payload(static_cast<std::size_t>(10 + r * 4 + b),
                    static_cast<std::byte>(r * 4 + b));
      ranks[r].set_block(b, std::move(payload),
                         {static_cast<std::uint8_t>(b % 3)});
    }
  }
  save_checkpoint(path, header, ranks);

  const auto [loaded_header, loaded_ranks, tiers] = load_checkpoint_full(path);
  EXPECT_EQ(loaded_header.num_qubits, 12);
  EXPECT_EQ(loaded_header.num_ranks, 2);
  EXPECT_EQ(loaded_header.blocks_per_rank, 4);
  EXPECT_EQ(loaded_header.ladder_level, 3u);
  EXPECT_EQ(loaded_header.next_gate_index, 42u);
  EXPECT_DOUBLE_EQ(loaded_header.fidelity_bound, 0.987);
  EXPECT_EQ(loaded_header.codec_name, "qzc");
  ASSERT_EQ(loaded_ranks.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_TRUE(same_payload(loaded_ranks[r], ranks[r], b));
      EXPECT_EQ(loaded_ranks[r].meta(b).level, ranks[r].meta(b).level);
    }
  }
}

TEST_F(CheckpointTest, BlockMetaLevelAndCodecSurviveRoundTrip) {
  // Every distinct ladder level — including the full uint8 range ends and
  // empty payloads — and every per-block codec id must survive save/load
  // unchanged; a block's codec id is what tells the loader which codec
  // decompresses it (format v3).
  const std::string path = this->path("levels.bin");
  CheckpointHeader header;
  header.num_qubits = 8;
  header.num_ranks = 1;
  header.blocks_per_rank = 6;
  header.codec_name = "qzc";

  const std::uint8_t levels[] = {0, 1, 2, 5, 254, 255};
  const std::uint8_t codecs[] = {0, 3, 0, 3, 1, 6};  // deliberately mixed
  std::vector<BlockStore> ranks;
  ranks.emplace_back(6);
  for (int b = 0; b < 6; ++b) {
    // Block 3 is deliberately empty: meta must survive payload-free blocks.
    Bytes payload(b == 3 ? 0 : 4 + b, static_cast<std::byte>(b));
    ranks[0].set_block(b, std::move(payload), {levels[b], codecs[b]});
  }
  save_checkpoint(path, header, ranks);

  auto [loaded_header, loaded_ranks, tiers] = load_checkpoint_full(path);
  ASSERT_EQ(loaded_ranks.size(), 1u);
  ASSERT_EQ(loaded_ranks[0].num_blocks(), 6);
  for (int b = 0; b < 6; ++b) {
    EXPECT_EQ(loaded_ranks[0].meta(b).level, levels[b]) << "block " << b;
    EXPECT_EQ(loaded_ranks[0].meta(b).codec, codecs[b]) << "block " << b;
    EXPECT_TRUE(same_payload(loaded_ranks[0], ranks[0], b)) << "block " << b;
  }
  TierStats saved;
  TierStats loaded;
  ranks[0].attach(&saved, nullptr);
  loaded_ranks[0].attach(&loaded, nullptr);
  EXPECT_EQ(loaded.resident_bytes.load(), saved.resident_bytes.load());
}

TEST_F(CheckpointTest, LossyPassCountRoundTrips) {
  // Regression: the pass count used to be collapsed into one synthetic
  // pass on load, so report().lossy_passes lied after a resume.
  const std::string path = this->path("passes.bin");
  CheckpointHeader header;
  header.num_qubits = 8;
  header.num_ranks = 1;
  header.blocks_per_rank = 1;
  header.fidelity_bound = 0.9991;
  header.lossy_passes = 37;
  header.codec_name = "qzc";
  std::vector<BlockStore> ranks;
  ranks.emplace_back(1);
  ranks[0].set_block(0, Bytes(4, std::byte{1}), {1});
  save_checkpoint(path, header, ranks);

  const CheckpointHeader loaded = load_checkpoint_full(path).header;
  EXPECT_EQ(loaded.lossy_passes, 37u);
  EXPECT_DOUBLE_EQ(loaded.fidelity_bound, 0.9991);
}

TEST_F(CheckpointTest, RejectsCorruptFile) {
  const std::string path = this->path("corrupt.bin");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint_full(path), std::runtime_error);
  EXPECT_THROW(load_checkpoint_full("/nonexistent/nope"), std::runtime_error);
}

}  // namespace
}  // namespace cqs::runtime
