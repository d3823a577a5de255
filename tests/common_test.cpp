// Unit tests for the common substrate: bit I/O, varints, FNV-1a, RNG,
// statistics, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/bits.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace cqs {
namespace {

TEST(BitsTest, WriteReadRoundTrip) {
  Bytes buffer;
  {
    BitWriter writer(buffer);
    writer.write(0b101, 3);
    writer.write(0xdeadbeef, 32);
    writer.write(1, 1);
    writer.flush();
  }
  BitReader reader(buffer);
  EXPECT_EQ(reader.read(3), 0b101u);
  EXPECT_EQ(reader.read(32), 0xdeadbeefu);
  EXPECT_EQ(reader.read(1), 1u);
}

TEST(BitsTest, SingleBitsAcrossByteBoundaries) {
  Bytes buffer;
  std::vector<int> pattern;
  {
    BitWriter writer(buffer);
    for (int i = 0; i < 100; ++i) {
      const int bit = (i * 7) % 3 == 0 ? 1 : 0;
      pattern.push_back(bit);
      writer.write_bit(bit);
    }
    writer.flush();
  }
  BitReader reader(buffer);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reader.read_bit(), static_cast<std::uint32_t>(pattern[i]))
        << "bit " << i;
  }
}

TEST(BitsTest, ReaderThrowsPastEnd) {
  Bytes buffer{std::byte{0xff}};
  BitReader reader(buffer);
  reader.read(8);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_THROW(reader.read_bit(), std::out_of_range);
}

TEST(BitsTest, LeadingZeroBytes) {
  EXPECT_EQ(leading_zero_bytes(0), 8);
  EXPECT_EQ(leading_zero_bytes(1), 7);
  EXPECT_EQ(leading_zero_bytes(0xffull << 56), 0);
  EXPECT_EQ(leading_zero_bytes(0x00ffull << 40), 2);
  EXPECT_EQ(leading_zero_bytes(0xffull << 48), 1);
}

TEST(VarintTest, RoundTripBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1u << 20, ~0ull, 42,   0x7fffffffffffffffull};
  Bytes buffer;
  for (auto v : values) put_varint(buffer, v);
  std::size_t offset = 0;
  for (auto v : values) {
    EXPECT_EQ(get_varint(buffer, offset), v);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(VarintTest, TruncatedThrows) {
  Bytes buffer;
  put_varint(buffer, 1u << 30);
  buffer.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(get_varint(buffer, offset), std::out_of_range);
}

TEST(ZigZagTest, RoundTripSignedRange) {
  const std::int64_t values[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX};
  for (auto v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(ScalarIoTest, RoundTrip) {
  Bytes buffer;
  put_scalar(buffer, 3.14159);
  put_scalar(buffer, std::uint32_t{0xabcd});
  std::size_t offset = 0;
  EXPECT_DOUBLE_EQ(get_scalar<double>(buffer, offset), 3.14159);
  EXPECT_EQ(get_scalar<std::uint32_t>(buffer, offset), 0xabcdu);
  EXPECT_THROW(get_scalar<double>(buffer, offset), std::out_of_range);
}

TEST(Fnv1aTest, CoversEveryByteAndEmptyHashesToTheSeed) {
  Bytes payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7 + 1);
  }
  const std::uint64_t sum = fnv1a(payload);
  payload.back() ^= std::byte{0x01};
  EXPECT_NE(fnv1a(payload), sum);
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a({}, 42), 42u);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, UniformDoublesInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowIsUnbiasedEnough) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(10)];
  for (int bucket : counts) {
    EXPECT_NEAR(bucket, trials / 10, trials / 100);
  }
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(99);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sum_squares += x * x;
  }
  const double mean = sum / kSamples;
  const double variance =
      (sum_squares - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(variance), 1.0, 0.02);
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  Rng rng(17);
  std::vector<double> samples(5000);
  for (auto& s : samples) s = rng.next_double();
  const auto cdf = empirical_cdf(samples, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].cumulative_fraction, cdf[i].cumulative_fraction);
  }
  EXPECT_NEAR(cdf.back().cumulative_fraction, 1.0, 1e-12);
  // Uniform samples: median quantile near 0.5.
  EXPECT_NEAR(cdf[24].value, 0.5, 0.05);
}

TEST(StatsTest, AutocorrelationDetectsStructure) {
  // Strongly correlated series: x_{i+1} = x_i.
  std::vector<double> constant_pairs;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_normal();
    constant_pairs.push_back(v);
    constant_pairs.push_back(v);
  }
  EXPECT_GT(autocorrelation(constant_pairs, 1), 0.4);

  // Independent noise: near zero.
  std::vector<double> noise(5000);
  for (auto& x : noise) x = rng.next_normal();
  EXPECT_NEAR(autocorrelation(noise, 1), 0.0, 0.05);
}

TEST(StatsTest, HistogramCountsAll) {
  std::vector<double> xs = {0.1, 0.2, 0.5, 0.9, 0.95};
  const auto h = histogram(xs, 0.0, 1.0, 10);
  std::size_t total = 0;
  for (auto c : h) total += c;
  EXPECT_EQ(total, xs.size());
  EXPECT_EQ(h[0], 0u);  // 0.1 lands in bin 1
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[9], 2u);
}

TEST(ThreadPoolTest, RunsAllIterations) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkerIdsAreDense) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> worker_mask{0};
  pool.parallel_for(10000, [&](std::size_t, std::size_t w) {
    ASSERT_LT(w, 3u);
    worker_mask |= 1ull << w;
  });
  // At least the calling distribution touched worker 0.
  EXPECT_NE(worker_mask.load(), 0u);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t, std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 5000);
}

TEST(PhaseTimersTest, AccumulatesAndMerges) {
  PhaseTimers a;
  a.add(Phase::kCompression, 1.0);
  a.add(Phase::kComputation, 2.0);
  PhaseTimers b;
  b.add(Phase::kCompression, 0.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get(Phase::kCompression), 1.5);
  EXPECT_DOUBLE_EQ(a.total(), 3.5);
}

}  // namespace
}  // namespace cqs
