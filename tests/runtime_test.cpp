// Unit tests for the distributed runtime substrate: partitioning math,
// block store, run-key hash, comm accounting, scratch arena, checkpointing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/block_cache.hpp"
#include "runtime/block_store.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/comm.hpp"
#include "runtime/partition.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace cqs::runtime {
namespace {

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
  BlockStore store(4);
  EXPECT_EQ(store.total_bytes(), 0u);
  store.set_block(0, Bytes(100), {1});
  store.set_block(1, Bytes(50), {0});
  EXPECT_EQ(store.total_bytes(), 150u);
  store.set_block(0, Bytes(10), {2});
  EXPECT_EQ(store.total_bytes(), 60u);
  EXPECT_EQ(store.meta(0).level, 2);
  EXPECT_THROW(store.set_block(4, Bytes(1), {}), std::out_of_range);
}

TEST(BlockStoreTest, TotalBytesAccountingAcrossReplacements) {
  // Regression coverage for set_block's running total: replace-smaller,
  // replace-larger, and empty payloads must all keep total_bytes exact.
  BlockStore store(3);
  store.set_block(0, Bytes(100), {0});
  store.set_block(1, Bytes(200), {0});
  store.set_block(2, Bytes(300), {0});
  ASSERT_EQ(store.total_bytes(), 600u);

  store.set_block(1, Bytes(50), {1});  // replace with smaller
  EXPECT_EQ(store.total_bytes(), 450u);

  store.set_block(1, Bytes(500), {2});  // replace with larger
  EXPECT_EQ(store.total_bytes(), 900u);

  store.set_block(0, Bytes{}, {3});  // replace with empty payload
  EXPECT_EQ(store.total_bytes(), 800u);
  EXPECT_TRUE(store.block(0).empty());

  store.set_block(0, Bytes{}, {3});  // empty -> empty is a no-op in bytes
  EXPECT_EQ(store.total_bytes(), 800u);

  store.set_block(0, Bytes(1), {0});  // and back from empty
  EXPECT_EQ(store.total_bytes(), 801u);
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

TEST(CommTest, ExchangeSwapsPayloadsAndCounts) {
  Comm comm(4);
  Bytes a(100, std::byte{1});
  Bytes b(200, std::byte{2});
  comm.exchange(0, 2, a, b);
  EXPECT_EQ(a.size(), 200u);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a[0], std::byte{2});
  EXPECT_EQ(comm.stats().bytes_moved, 300u);
  EXPECT_EQ(comm.stats().messages, 2u);
}

TEST(CommTest, ExchangeModelsOneBufferedSendrecvPerPair) {
  // The simulator routes every cross-rank block pair through exactly one
  // exchange: 2 messages (one each way) and the sum of both compressed
  // inputs on the wire. N pairs therefore cost exactly 2N messages.
  Comm comm(4);
  const std::size_t pairs = 5;
  for (std::size_t i = 0; i < pairs; ++i) {
    Bytes from_a(40 + i, std::byte{1});
    Bytes from_b(60 + i, std::byte{2});
    comm.exchange(1, 3, from_a, from_b);
  }
  EXPECT_EQ(comm.stats().messages, 2 * pairs);
  EXPECT_EQ(comm.stats().bytes_moved, 5u * (40 + 60) + 2u * (0 + 1 + 2 + 3 + 4));
}

TEST(CommTest, ResetClearsAllCounters) {
  Comm comm(2);
  Bytes a(64, std::byte{5});
  Bytes b(64, std::byte{6});
  comm.exchange(0, 1, a, b);
  EXPECT_EQ(comm.stats().bytes_moved, 128u);
  comm.reset();
  EXPECT_EQ(comm.stats().bytes_moved, 0u);
  EXPECT_EQ(comm.stats().messages, 0u);
  EXPECT_EQ(comm.stats().wire_nanos, 0u);
  EXPECT_EQ(comm.stats().overlap_nanos, 0u);
}

TEST(CommTest, RejectsBadRanks) {
  Comm comm(2);
  Bytes a;
  Bytes b;
  EXPECT_THROW(comm.exchange(0, 0, a, b), std::invalid_argument);
  EXPECT_THROW(comm.exchange(0, 5, a, b), std::invalid_argument);
  EXPECT_THROW(comm.exchange(-1, 1, a, b), std::invalid_argument);
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
  ScratchArena arena(3, 64);
  EXPECT_EQ(arena.bytes(), 3u * 2 * 64 * sizeof(double));
  for (std::size_t w = 0; w < 3; ++w) {
    auto x = arena.vector_x(w);
    auto y = arena.vector_y(w);
    EXPECT_EQ(x.size(), 64u);
    EXPECT_EQ(y.size(), 64u);
    x[0] = static_cast<double>(w) + 1.0;
    y[0] = -(static_cast<double>(w) + 1.0);
  }
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(arena.vector_x(w)[0], static_cast<double>(w) + 1.0);
    EXPECT_EQ(arena.vector_y(w)[0], -(static_cast<double>(w) + 1.0));
  }
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

  const auto [loaded_header, loaded_ranks] = load_checkpoint(path);
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
      EXPECT_EQ(loaded_ranks[r].block(b), ranks[r].block(b));
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

  const auto [loaded_header, loaded_ranks] = load_checkpoint(path);
  ASSERT_EQ(loaded_ranks.size(), 1u);
  ASSERT_EQ(loaded_ranks[0].num_blocks(), 6);
  for (int b = 0; b < 6; ++b) {
    EXPECT_EQ(loaded_ranks[0].meta(b).level, levels[b]) << "block " << b;
    EXPECT_EQ(loaded_ranks[0].meta(b).codec, codecs[b]) << "block " << b;
    EXPECT_EQ(loaded_ranks[0].block(b), ranks[0].block(b)) << "block " << b;
  }
  EXPECT_EQ(loaded_ranks[0].total_bytes(), ranks[0].total_bytes());
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

  const auto [loaded, stores] = load_checkpoint(path);
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
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  EXPECT_THROW(load_checkpoint("/nonexistent/nope"), std::runtime_error);
}

}  // namespace
}  // namespace cqs::runtime
