// Property/fuzz suite for the logical->physical qubit map: relabels keep
// both directions in step, random permutations translate indices
// bijectively and round-trip their serialized form, and non-permutation
// inputs must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "runtime/qubit_map.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using runtime::QubitMap;

std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> table(n);
  std::iota(table.begin(), table.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.next_below(i + 1));
    std::swap(table[i], table[j]);
  }
  return table;
}

TEST(QubitMapTest, IdentityBasics) {
  const QubitMap map = QubitMap::identity(8);
  EXPECT_EQ(map.size(), 8);
  EXPECT_TRUE(map.is_identity());
  for (int q = 0; q < 8; ++q) {
    EXPECT_EQ(map.physical(q), q);
    EXPECT_EQ(map.logical(q), q);
  }
  EXPECT_TRUE(QubitMap().empty());
}

TEST(QubitMapTest, RelabelSwapsPhysicalHomes) {
  QubitMap map = QubitMap::identity(6);
  map.relabel(1, 4);
  EXPECT_EQ(map.physical(1), 4);
  EXPECT_EQ(map.physical(4), 1);
  EXPECT_EQ(map.logical(4), 1);
  EXPECT_EQ(map.logical(1), 4);
  EXPECT_FALSE(map.is_identity());
  map.relabel(1, 4);
  EXPECT_TRUE(map.is_identity());
}

TEST(QubitMapTest, FuzzIndexTranslationIsBijective) {
  Rng rng(0x51c6);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(15));
    const auto map = QubitMap::from_physical(random_permutation(n, rng));
    std::set<std::uint64_t> seen;
    for (int rep = 0; rep < 64; ++rep) {
      const std::uint64_t logical = rng.next_below(std::uint64_t{1} << n);
      const std::uint64_t physical = map.to_physical_index(logical);
      EXPECT_EQ(map.to_logical_index(physical), logical);
      // Bit l of the logical index must land at bit physical(l).
      for (int l = 0; l < n; ++l) {
        EXPECT_EQ((physical >> map.physical(l)) & 1, (logical >> l) & 1);
      }
      seen.insert(physical);
    }
    // No two distinct logical indices collided (bijective on the sample).
    std::set<std::uint64_t> logical_seen;
    for (std::uint64_t p : seen) logical_seen.insert(map.to_logical_index(p));
    EXPECT_EQ(logical_seen.size(), seen.size());
  }
}

TEST(QubitMapTest, FuzzSerializedRoundTrip) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(33));
    const auto map = QubitMap::from_physical(random_permutation(n, rng));
    Bytes buffer;
    map.serialize(buffer);
    std::size_t offset = 0;
    const auto decoded = QubitMap::deserialize(buffer, offset);
    EXPECT_EQ(decoded, map);
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(QubitMapTest, RejectsNonPermutationTables) {
  EXPECT_THROW(QubitMap::from_physical({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(QubitMap::from_physical({0, 3, 1}), std::invalid_argument);
  EXPECT_THROW(QubitMap::from_physical({-1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(QubitMap::from_physical({2, 2, 2}), std::invalid_argument);
}

TEST(QubitMapTest, DeserializeRejectsCorruption) {
  // Duplicate entry.
  Bytes dup;
  put_varint(dup, 3);
  for (int v : {0, 0, 1}) put_varint(dup, v);
  std::size_t offset = 0;
  EXPECT_THROW(QubitMap::deserialize(dup, offset), std::runtime_error);

  // Out-of-range entry.
  Bytes oob;
  put_varint(oob, 2);
  for (int v : {0, 7}) put_varint(oob, v);
  offset = 0;
  EXPECT_THROW(QubitMap::deserialize(oob, offset), std::runtime_error);

  // Truncated table.
  Bytes truncated;
  put_varint(truncated, 4);
  put_varint(truncated, 0);
  offset = 0;
  EXPECT_THROW(QubitMap::deserialize(truncated, offset), std::out_of_range);

  // Implausible count (corrupted length prefix).
  Bytes huge;
  put_varint(huge, 1u << 20);
  offset = 0;
  EXPECT_THROW(QubitMap::deserialize(huge, offset), std::runtime_error);

  // An entry that would wrap modulo 2^32 to a valid small position must
  // be rejected by the pre-narrowing range check, not silently accepted.
  Bytes wrap;
  put_varint(wrap, 3);
  put_varint(wrap, std::uint64_t{1} << 32);  // wraps to 0 if narrowed
  put_varint(wrap, 1);
  put_varint(wrap, 2);
  offset = 0;
  EXPECT_THROW(QubitMap::deserialize(wrap, offset), std::runtime_error);
}

}  // namespace
}  // namespace cqs
