// Failure-injection tests: every codec and container parser must reject
// truncated or obviously corrupted inputs with an exception — never crash,
// hang, or silently return the wrong element count. (Bit-flip corruption
// inside entropy-coded payloads may legitimately decode to garbage values;
// these tests only demand memory-safe, exception-or-success behaviour.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/bits.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "compression/compressor.hpp"
#include "lossless/huffman.hpp"
#include "lossless/zx.hpp"
#include "runtime/checkpoint.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

std::vector<double> test_data() {
  Rng rng(77);
  std::vector<double> data(2048);
  for (auto& d : data) d = rng.next_normal();
  return data;
}

compression::ErrorBound bound_for(const compression::Compressor& codec) {
  return codec.supports(compression::BoundMode::kPointwiseRelative)
             ? compression::ErrorBound::relative(1e-3)
             : compression::ErrorBound::lossless();
}

class CodecCorruptionTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecCorruptionTest, TruncationAlwaysThrows) {
  const auto codec = compression::make_compressor(GetParam());
  const auto data = test_data();
  const Bytes compressed = codec->compress(data, bound_for(*codec));
  std::vector<double> out(data.size());
  // Cut the container at a spread of points, including pathological ones.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        compressed.size() / 4, compressed.size() / 2,
        compressed.size() - 1}) {
    const ByteSpan cut(compressed.data(), keep);
    EXPECT_THROW(codec->decompress(cut, out), std::exception)
        << GetParam() << " keep=" << keep;
  }
}

TEST_P(CodecCorruptionTest, EmptyInputThrows) {
  const auto codec = compression::make_compressor(GetParam());
  std::vector<double> out(16);
  EXPECT_THROW(codec->decompress({}, out), std::exception);
  EXPECT_THROW(codec->element_count({}), std::exception);
}

TEST_P(CodecCorruptionTest, WrongMagicThrows) {
  const auto codec = compression::make_compressor(GetParam());
  Bytes bogus(64, std::byte{0x5a});
  std::vector<double> out(16);
  EXPECT_THROW(codec->decompress(bogus, out), std::exception);
}

TEST_P(CodecCorruptionTest, HeaderByteFlipsAreSafe) {
  // Flipping bytes in the header region must either throw or decode into
  // the provided buffer — never crash. (Payload flips can decode to
  // garbage values; that is acceptable for a compression container
  // without checksums, as in the paper's pipeline.)
  const auto codec = compression::make_compressor(GetParam());
  const auto data = test_data();
  const Bytes original = codec->compress(data, bound_for(*codec));
  for (std::size_t pos = 0; pos < std::min<std::size_t>(8, original.size());
       ++pos) {
    for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes corrupted = original;
      corrupted[pos] ^= static_cast<std::byte>(flip);
      std::vector<double> out(data.size());
      try {
        codec->decompress(corrupted, out);
      } catch (const std::exception&) {
        // Expected for most header corruptions.
      }
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecCorruptionTest,
                         ::testing::ValuesIn(compression::compressor_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// --- Side-stream counts of the relative-mode containers ------------------
//
// sz and zfp store sign and special-value bitmasks, special values and (sz)
// quantization codes and outliers behind varint counts inside a zx stream.
// A forged count must be rejected with a typed error before any buffer is
// sized from it: never std::bad_alloc or std::length_error, and never a
// silent decode.

/// A relative-mode container split at the start of its zx side stream:
/// `head` is everything before it, `sides` the decoded stream, and
/// `counts` the offsets in `sides` of the varint counts a decoder reads.
/// The first count of each codec holds the element count.
struct SideStream {
  Bytes head;
  Bytes sides;
  std::vector<std::pair<std::string, std::size_t>> counts;
  std::uint64_t element_count = 0;
};

/// Records the two bitmasks and the special-value count starting at `pos`.
void note_masks(SideStream& s, std::size_t pos) {
  for (const char* name : {"negative mask", "special mask"}) {
    s.counts.emplace_back(name, pos);
    const std::uint64_t bits = get_varint(s.sides, pos);
    pos += (bits + 7) / 8;
  }
  s.counts.emplace_back("special values", pos);
}

SideStream split_sz(const Bytes& container) {
  SideStream s;
  std::size_t offset = 3;
  s.element_count = get_varint(container, offset);
  const auto bins = static_cast<std::size_t>(get_varint(container, offset));
  get_scalar<double>(container, offset);  // quantum
  s.head.assign(container.begin(), container.begin() + offset);
  s.sides = lossless::zx_decompress(ByteSpan(container).subspan(offset));
  std::size_t pos = 0;
  lossless::HuffmanDecoder decoder;
  decoder.parse_table(s.sides, pos, bins);
  s.counts.emplace_back("codes", pos);
  const std::uint64_t codes = get_varint(s.sides, pos);
  BitReader reader(ByteSpan(s.sides).subspan(pos));
  for (std::uint64_t i = 0; i < codes; ++i) decoder.decode(reader);
  pos += (reader.position() + 7) / 8;
  s.counts.emplace_back("outliers", pos);
  pos += get_varint(s.sides, pos) * sizeof(double);
  note_masks(s, pos);
  return s;
}

SideStream split_zfp(const Bytes& container) {
  SideStream s;
  std::size_t offset = 3;
  s.element_count = get_varint(container, offset);
  offset += get_varint(container, offset);  // the zfp-coded logs
  s.head.assign(container.begin(), container.begin() + offset);
  s.sides = lossless::zx_decompress(ByteSpan(container).subspan(offset));
  note_masks(s, 0);
  return s;
}

/// The container with the count at sides[at] rewritten to `value` and,
/// when `keep` is set, only `keep` bytes of the field after it.
Bytes forged(const SideStream& s, std::size_t at, std::uint64_t value,
             std::optional<std::size_t> keep = std::nullopt) {
  std::size_t end = at;
  const std::uint64_t old = get_varint(s.sides, end);
  Bytes sides(s.sides.begin(), s.sides.begin() + at);
  put_varint(sides, value);
  std::size_t rest = end;
  if (keep.has_value()) {
    sides.insert(sides.end(), s.sides.begin() + end,
                 s.sides.begin() + end + *keep);
    rest = end + (old + 7) / 8;
  }
  sides.insert(sides.end(), s.sides.begin() + rest, s.sides.end());
  Bytes out = s.head;
  const Bytes packed = lossless::zx_compress(sides);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

void expect_typed_rejection(const compression::Compressor& codec,
                            const Bytes& container, std::size_t count,
                            const std::string& what) {
  std::vector<double> out(count);
  try {
    codec.decompress(container, out);
    ADD_FAILURE() << what << ": decoded a forged count";
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << typeid(e).name() << " ("
                  << e.what() << ")";
  }
}

TEST(SideStreamCorruptionTest, ForgedCountsThrowTypedErrors) {
  const auto data = test_data();
  for (const std::string name : {"sz", "sz-complex", "zfp", "zfp-rans"}) {
    const auto codec = compression::make_compressor(name);
    // zfp-rans decodes through the zfp reader: each forged zfp container
    // goes into a raw-flagged zfp-rans header.
    const bool rans = name == "zfp-rans";
    const Bytes container =
        compression::make_compressor(rans ? "zfp" : name)
            ->compress(data, compression::ErrorBound::relative(1e-3));
    const SideStream s =
        name.starts_with("sz") ? split_sz(container) : split_zfp(container);
    ASSERT_EQ(s.element_count, data.size()) << name;
    auto wrap = [&](Bytes inner) {
      if (!rans) return inner;
      Bytes out{std::byte{'Z'}, std::byte{'R'}, std::byte{1}};
      put_varint(out, data.size());
      out.insert(out.end(), inner.begin(), inner.end());
      return out;
    };
    // Rewriting a count with its own value must decode, or the cases
    // below prove nothing.
    std::vector<double> out(data.size());
    ASSERT_NO_THROW(codec->decompress(
        wrap(forged(s, s.counts.front().second, data.size())), out))
        << name;
    for (const auto& [field, at] : s.counts) {
      const std::string what = name + " " + field;
      expect_typed_rejection(*codec,
                             wrap(forged(s, at, std::uint64_t{1} << 40)),
                             data.size(), what + " of 2^40");
      if (field.ends_with("mask")) {
        // A well-formed mask, shorter than the block.
        expect_typed_rejection(*codec, wrap(forged(s, at, 1000, 125)),
                               data.size(), what + " of 1000 bits");
      }
    }
  }
}

TEST(ZxCorruptionTest, ModeByteOutOfRange) {
  Bytes container;
  container.push_back(std::byte{'Z'});
  container.push_back(std::byte{'X'});
  container.push_back(std::byte{7});  // unknown mode
  container.push_back(std::byte{0});  // size varint 0
  EXPECT_THROW(lossless::zx_decompress(container), std::runtime_error);
}

TEST(ZxCorruptionTest, RawModeSizeMismatch) {
  Bytes container;
  container.push_back(std::byte{'Z'});
  container.push_back(std::byte{'X'});
  container.push_back(std::byte{0});   // raw mode
  container.push_back(std::byte{10});  // claims 10 bytes
  container.push_back(std::byte{1});   // provides 1
  EXPECT_THROW(lossless::zx_decompress(container), std::runtime_error);
}

TEST(ZxCorruptionTest, HugeSizeClaimThrowsCqsErrorNotBadAlloc) {
  // 20 bytes claiming 2^45: no decoder may size a buffer from the claim.
  Bytes container{std::byte{'Z'}, std::byte{'X'}, std::byte{2}};  // LZ mode
  put_varint(container, std::uint64_t{1} << 45);
  put_varint(container, 8);  // eight literals, then the terminator
  for (int i = 0; i < 8; ++i) container.push_back(std::byte{0x42});
  put_varint(container, 0);
  ASSERT_EQ(container.size(), 20u);
  const auto expect_cqs_error = [](auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << "decoded a lying container";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("cqs:", 0), 0u) << e.what();
    }
  };
  expect_cqs_error([&] { lossless::zx_decompress(container); });
  const auto codec = compression::make_compressor("zstd");
  std::vector<double> out(1);
  expect_cqs_error([&] { codec->decompress(container, out); });
}

TEST(ZxCorruptionTest, HuffmanSymbolCountBeyondPayloadThrows) {
  // One used symbol of length 1, a claimed 2^40 symbols, one payload byte:
  // each symbol needs a bit, so the count is rejected before allocation.
  Bytes container{std::byte{'Z'}, std::byte{'X'}, std::byte{3}};  // LZ+Huff
  put_varint(container, 16);
  put_varint(container, 1);  // used symbols
  put_varint(container, 0);  // symbol 0
  container.push_back(std::byte{1});  // length 1
  put_varint(container, std::uint64_t{1} << 40);
  container.push_back(std::byte{0});
  EXPECT_THROW(lossless::zx_decompress(container), std::out_of_range);
}

using CheckpointCorruptionTest = test::TempDirFixture;

TEST_F(CheckpointCorruptionTest, TruncatedFilesThrow) {
  // Build a valid checkpoint in memory via the API, then truncate on disk.
  const std::string path = this->path("corrupt_ckpt.bin");
  runtime::CheckpointHeader header;
  header.num_qubits = 8;
  header.num_ranks = 1;
  header.blocks_per_rank = 2;
  header.codec_name = "qzc";
  std::vector<runtime::BlockStore> ranks;
  ranks.emplace_back(2);
  ranks[0].set_block(0, Bytes(100, std::byte{1}), {0});
  ranks[0].set_block(1, Bytes(100, std::byte{2}), {1});
  runtime::save_checkpoint(path, header, ranks);

  // Truncate progressively (strictly decreasing: growing a truncated file
  // back would zero-fill, which parses as an empty-but-valid checkpoint).
  for (long keep : {150L, 60L, 20L, 8L}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(runtime::load_checkpoint_full(path), std::exception)
        << "keep=" << keep;
  }
}

/// A v5 image written by hand up to, not including, the rank count: one
/// rank of `blocks_per_rank` blocks of one qubit, lossless, codec "qzc",
/// identity map.
Bytes forged_image_prefix(std::uint64_t blocks_per_rank = 1) {
  const char magic[8] = {'C', 'Q', 'S', 'C', 'K', 'P', 'T', '5'};
  Bytes image(reinterpret_cast<const std::byte*>(magic),
              reinterpret_cast<const std::byte*>(magic) + 8);
  put_varint(image, 1);  // num_qubits
  put_varint(image, 1);  // num_ranks
  put_varint(image, blocks_per_rank);
  put_varint(image, 0);  // ladder_level
  put_varint(image, 0);  // next_gate_index
  put_scalar(image, 1.0);  // fidelity_bound
  put_varint(image, 0);  // lossy_passes
  put_varint(image, 3);  // codec name
  for (char ch : {'q', 'z', 'c'}) {
    image.push_back(static_cast<std::byte>(ch));
  }
  put_varint(image, 0);  // qubit map: identity
  return image;
}

void write_image(const std::string& path, const Bytes& image) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
}

/// Loading `path` must throw std::runtime_error whose message names
/// `field`, so the test knows which check caught the forgery.
void expect_load_error(const std::string& path, const std::string& field) {
  try {
    runtime::load_checkpoint_full(path);
    ADD_FAILURE() << path << " loaded; expected an error naming " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointCorruptionTest, HugeBlockSizeVarintThrows) {
  // A corrupt block-size varint near UINT64_MAX used to wrap the
  // truncation check `offset + block_size > buffer.size()` and drive a
  // huge out-of-bounds read; the bound must reject it cleanly instead.
  Bytes image = forged_image_prefix();
  put_varint(image, 1);  // rank count
  put_varint(image, 1);  // block count
  image.push_back(std::byte{0});  // meta.level
  image.push_back(std::byte{0});  // meta.codec
  image.push_back(std::byte{0});  // tier: resident
  put_varint(image, std::numeric_limits<std::uint64_t>::max());
  // A few trailing bytes keep offset < size, so only the wrapping bound
  // (not an end-of-buffer varint error) could let the read through.
  image.push_back(std::byte{0});
  image.push_back(std::byte{0});

  const std::string path = this->path("huge_block.ckpt");
  write_image(path, image);
  EXPECT_THROW(runtime::load_checkpoint_full(path), std::runtime_error);
}

TEST_F(CheckpointCorruptionTest, CountsThatDisagreeWithTheHeaderThrow) {
  // The loader used to size the state from the image's own rank and block
  // counts, so a header claiming more than the ranks hold loaded cleanly
  // and the simulator then read block metadata past the end of a rank.
  std::vector<runtime::BlockStore> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back(2);
    ranks[r].set_block(0, Bytes(10, std::byte{1}), {0});
    ranks[r].set_block(1, Bytes(10, std::byte{2}), {0});
  }
  runtime::CheckpointHeader header;
  header.num_qubits = 8;
  header.codec_name = "qzc";

  header.num_ranks = 2;
  header.blocks_per_rank = 4;
  const std::string more_blocks = path("more_blocks.ckpt");
  runtime::save_checkpoint(more_blocks, header, ranks);
  expect_load_error(more_blocks, "block count");

  header.num_ranks = 4;
  header.blocks_per_rank = 2;
  const std::string more_ranks = path("more_ranks.ckpt");
  runtime::save_checkpoint(more_ranks, header, ranks);
  expect_load_error(more_ranks, "rank count");
}

TEST_F(CheckpointCorruptionTest, HugeRankCountVarintThrows) {
  // 2^62 ranks used to reach reserve() and throw std::length_error.
  Bytes image = forged_image_prefix();
  put_varint(image, std::uint64_t{1} << 62);  // rank count
  put_varint(image, 1);  // block count
  const std::string path = this->path("huge_rank_count.ckpt");
  write_image(path, image);
  expect_load_error(path, "rank count");
}

TEST_F(CheckpointCorruptionTest, BlockCountsBeyondTheImageThrow) {
  // 2^31 blocks, negative as an int, used to reach the BlockStore
  // constructor and throw std::length_error.
  Bytes image = forged_image_prefix();
  put_varint(image, 1);  // rank count
  put_varint(image, std::uint64_t{1} << 31);  // block count
  const std::string huge = path("huge_block_count.ckpt");
  write_image(huge, image);
  expect_load_error(huge, "block count");

  // Counts that agree with the header are still bounded by the bytes
  // left: every block takes at least three meta bytes and a length
  // varint, so 1,000 blocks cannot fit in what follows.
  image = forged_image_prefix(1000);
  put_varint(image, 1);     // rank count
  put_varint(image, 1000);  // block count
  image.resize(image.size() + 100, std::byte{0});
  const std::string short_image = path("short_image.ckpt");
  write_image(short_image, image);
  expect_load_error(short_image, "bytes left");
}

}  // namespace
}  // namespace cqs
