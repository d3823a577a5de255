// SimConfig validation: every misconfiguration must be rejected at
// simulator construction with a clear std::invalid_argument, never
// deferred to a mid-run crash — and the error text must name the problem.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/simulator.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;

SimConfig base_config() {
  SimConfig config;
  config.num_qubits = 8;
  config.num_ranks = 2;
  config.blocks_per_rank = 2;
  return config;
}

/// Asserts construction throws std::invalid_argument whose message
/// contains `needle` (so failures point at the right knob).
void expect_rejected(const SimConfig& config, const std::string& needle) {
  try {
    CompressedStateSimulator sim(config);
    FAIL() << "config was accepted; expected message containing '" << needle
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ConfigValidationTest, AcceptsTheDefaults) {
  EXPECT_NO_THROW(CompressedStateSimulator{base_config()});
}

TEST(ConfigValidationTest, RejectsNonPowerOfTwoRanks) {
  for (int ranks : {3, 5, 6, 7, 12}) {
    SimConfig config = base_config();
    config.num_ranks = ranks;
    expect_rejected(config, "power of two");
  }
  SimConfig config = base_config();
  config.num_ranks = 0;
  expect_rejected(config, "power of two");
  config.num_ranks = -2;
  expect_rejected(config, "power of two");
}

TEST(ConfigValidationTest, RejectsNonPowerOfTwoBlocksPerRank) {
  for (int blocks : {3, 5, 6, 7, 12}) {
    SimConfig config = base_config();
    config.blocks_per_rank = blocks;
    expect_rejected(config, "power of two");
  }
  SimConfig config = base_config();
  config.blocks_per_rank = 0;
  expect_rejected(config, "power of two");
}

TEST(ConfigValidationTest, RejectsPartitionLargerThanTheState) {
  SimConfig config = base_config();
  config.num_ranks = 16;
  config.blocks_per_rank = 16;  // 8 qubits cannot fill 256 blocks
  expect_rejected(config, "exceeds state size");
}

TEST(ConfigValidationTest, RejectsEmptyErrorLadder) {
  SimConfig config = base_config();
  config.error_ladder.clear();
  expect_rejected(config, "ladder must not be empty");
}

TEST(ConfigValidationTest, RejectsOutOfRangeLadderBounds) {
  SimConfig config = base_config();
  config.error_ladder = {1e-5, 1.5};
  expect_rejected(config, "must be in (0,1)");
  config.error_ladder = {0.0, 1e-4};
  expect_rejected(config, "must be in (0,1)");
  config.error_ladder = {-1e-3};
  expect_rejected(config, "must be in (0,1)");
}

TEST(ConfigValidationTest, RejectsUnsortedErrorLadder) {
  SimConfig config = base_config();
  config.error_ladder = {1e-2, 1e-4};
  expect_rejected(config, "sorted ascending");
}

TEST(ConfigValidationTest, RejectsUnknownCodecName) {
  SimConfig config = base_config();
  config.codec = "lz4-turbo";
  expect_rejected(config, "unknown codec 'lz4-turbo'");
}

TEST(ConfigValidationTest, RejectsLossyStartWithLosslessCodec) {
  SimConfig config = base_config();
  config.codec = "zstd";
  config.initial_level = 1;
  expect_rejected(config, "cannot start at a lossy level");
}

TEST(ConfigValidationTest, RejectsQubitCountsOutsideSupportedRange) {
  SimConfig config = base_config();
  config.num_qubits = 0;
  expect_rejected(config, "qubits");
  config.num_qubits = 41;
  expect_rejected(config, "qubits");
}

}  // namespace
}  // namespace cqs
