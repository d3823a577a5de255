// Unified fault-injection harness coverage:
//   - plan-grammar parsing (valid forms, malformed entries, unknown
//     sites and actions, zero triggers, numbers past 2^64 - 1),
//   - firing semantics: once-at-Nth, every-call-from-Nth (@N+), a window
//     of consecutive calls (@NxC), independent per-site counters,
//   - seeded triggers (@~W): resolved into [1, W] at arm time as a pure
//     function of (seed, site, entry index) — same seed, same fire site,
//   - the FaultInjectionConcurrencyTest suite is the TSan target: a
//     site's Nth call fires exactly once no matter which thread lands it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault_injection.hpp"

namespace cqs::runtime {
namespace {

TEST(FaultPlanTest, ParsesSingleEntryWithDefaults) {
  const auto plan = FaultPlan::parse("spill.write@3");
  ASSERT_EQ(plan.specs.size(), 1u);
  EXPECT_EQ(plan.specs[0].site, "spill.write");
  EXPECT_EQ(plan.specs[0].nth, 3u);
  EXPECT_EQ(plan.specs[0].count, 1u);
  EXPECT_EQ(plan.specs[0].action, "fail");
  EXPECT_EQ(plan.seed, 0u);
}

TEST(FaultPlanTest, ParsesSeedActionsAuxAndMultipleEntries) {
  const auto plan = FaultPlan::parse(
      "seed=7; spill.write@~6:enospc, checkpoint.write@2+:eio=250;"
      "checkpoint.rename@1x3");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].site, "spill.write");
  EXPECT_EQ(plan.specs[0].nth, 0u);  // seeded: resolved at arm()
  EXPECT_EQ(plan.specs[0].window, 6u);
  EXPECT_EQ(plan.specs[0].action, "enospc");
  EXPECT_EQ(plan.specs[1].site, "checkpoint.write");
  EXPECT_EQ(plan.specs[1].nth, 2u);
  EXPECT_EQ(plan.specs[1].count, 0u);  // every call from the 2nd
  EXPECT_EQ(plan.specs[1].action, "eio");
  EXPECT_EQ(plan.specs[1].aux, 250u);
  EXPECT_EQ(plan.specs[2].nth, 1u);
  EXPECT_EQ(plan.specs[2].count, 3u);
}

TEST(FaultPlanTest, RejectsMalformedEntries) {
  EXPECT_THROW(FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@2x0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@~0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@2:frobnicate"),
               std::invalid_argument);
  // A misspelt site, an action no site defines and a site nothing
  // instruments must not run silently with no faults.
  EXPECT_THROW(FaultPlan::parse("spil.write@1:enospc"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spill.write@1:die"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("transport.send@1:die"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=banana;spill.write@1"),
               std::invalid_argument);
}

TEST(FaultPlanTest, RejectsNumbersAboveUint64Max) {
  // 2^64 used to wrap to 0 and 2^64 + 1 to 1, so a plan fired on a call
  // nobody asked for. Every numeric field rejects it instead.
  const std::string max = "18446744073709551615";
  const std::string over = "18446744073709551616";
  const std::vector<std::string> rejected = {
      "spill.write@" + over,        "spill.write@18446744073709551617",
      "spill.write@2x" + over,      "spill.write@~" + over,
      "seed=" + over + ";spill.write@1", "spill.write@1:eio=" + over,
      "spill.write@99999999999999999999999"};
  for (const std::string& text : rejected) {
    EXPECT_THROW(FaultPlan::parse(text), std::invalid_argument) << text;
  }
  const auto plan = FaultPlan::parse("seed=" + max + ";spill.write@" + max +
                                     ":eio=" + max + ",spill.write@1x" +
                                     max + ",spill.write@~" + max);
  EXPECT_EQ(plan.seed, UINT64_MAX);
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].nth, UINT64_MAX);
  EXPECT_EQ(plan.specs[0].aux, UINT64_MAX);
  EXPECT_EQ(plan.specs[1].count, UINT64_MAX);
  EXPECT_EQ(plan.specs[2].window, UINT64_MAX);
}

TEST(FaultInjectorTest, FiresOnceOnNthCall) {
  ScopedFaultPlan plan("spill.write@3:enospc");
  auto& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.on_call("spill.write"));
  EXPECT_FALSE(inj.on_call("spill.write"));
  const auto hit = inj.on_call("spill.write");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->call, 3u);
  EXPECT_EQ(hit->action, "enospc");
  EXPECT_FALSE(inj.on_call("spill.write"));
  EXPECT_EQ(inj.calls("spill.write"), 4u);
  ASSERT_EQ(inj.fired().size(), 1u);
  EXPECT_EQ(inj.fired()[0].call, 3u);
}

TEST(FaultInjectorTest, FromNthOnFiresEveryLaterCall) {
  ScopedFaultPlan plan("spill.write@2+:eio");
  auto& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.on_call("spill.write"));
  for (int i = 0; i < 5; ++i) {
    const auto hit = inj.on_call("spill.write");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->action, "eio");
  }
  EXPECT_EQ(inj.fired().size(), 5u);
}

TEST(FaultInjectorTest, WindowFiresExactlyCConsecutiveCalls) {
  ScopedFaultPlan plan("spill.write@2x3");
  auto& inj = FaultInjector::instance();
  int fired = 0;
  for (int i = 1; i <= 8; ++i) {
    if (inj.on_call("spill.write")) ++fired;
  }
  EXPECT_EQ(fired, 3);
  const auto ledger = FaultInjector::instance().fired();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger[0].call, 2u);
  EXPECT_EQ(ledger[2].call, 4u);
}

TEST(FaultInjectorTest, WindowWithTheLargestCountDoesNotWrap) {
  // nth + count wraps past 2^64 for this window; it must still fire on
  // every call from the 2nd.
  ScopedFaultPlan plan("spill.write@2x18446744073709551615");
  auto& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.on_call("spill.write"));
  EXPECT_TRUE(inj.on_call("spill.write"));
  EXPECT_TRUE(inj.on_call("spill.write"));
  const auto ledger = inj.fired();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].call, 2u);
  EXPECT_EQ(ledger[1].call, 3u);
}

TEST(FaultInjectorTest, SitesCountIndependently) {
  ScopedFaultPlan plan("spill.write@2;checkpoint.write@2");
  auto& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.on_call("spill.write"));
  EXPECT_FALSE(inj.on_call("checkpoint.write"));
  EXPECT_TRUE(inj.on_call("spill.write"));
  EXPECT_TRUE(inj.on_call("checkpoint.write"));
  EXPECT_EQ(inj.calls("spill.write"), 2u);
  EXPECT_EQ(inj.calls("checkpoint.write"), 2u);
  EXPECT_EQ(inj.calls("checkpoint.rename"), 0u);
}

TEST(FaultInjectorTest, DisarmedIsFreeAndCountsNothing) {
  {
    ScopedFaultPlan plan("spill.write@1");
  }  // disarmed on scope exit
  auto& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.on_call("spill.write"));
  EXPECT_EQ(inj.calls("spill.write"), 0u);
}

TEST(FaultInjectorTest, SeededTriggerResolvesDeterministically) {
  std::uint64_t first = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    ScopedFaultPlan plan("seed=42;spill.write@~10:enospc");
    const auto specs = FaultInjector::instance().resolved_specs();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_GE(specs[0].nth, 1u);
    EXPECT_LE(specs[0].nth, 10u);
    if (attempt == 0) {
      first = specs[0].nth;
    } else {
      EXPECT_EQ(specs[0].nth, first);  // same seed => same resolved call
    }
  }
  // A different seed is allowed to (and here does not have to) move the
  // trigger, but it must still land inside the window.
  ScopedFaultPlan plan("seed=43;spill.write@~10:enospc");
  const auto specs = FaultInjector::instance().resolved_specs();
  EXPECT_GE(specs[0].nth, 1u);
  EXPECT_LE(specs[0].nth, 10u);
}

// TSan target: the Nth-call contract holds under contention — exactly one
// thread observes the hit, and the ledger records call N.
TEST(FaultInjectionConcurrencyTest, NthCallFiresExactlyOnceAcrossThreads) {
  ScopedFaultPlan plan("spill.write@64:enospc");
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        if (FaultInjector::instance().on_call("spill.write")) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(FaultInjector::instance().calls("spill.write"), 128u);
  const auto ledger = FaultInjector::instance().fired();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].call, 64u);
}

}  // namespace
}  // namespace cqs::runtime
