// Unified, deterministic fault injection. One process-wide registry
// replaces the ad-hoc hooks that accumulated per subsystem (the spill
// tier's write-capacity static): code at a fault-prone boundary declares
// a named *site* and asks the injector on every call; a scripted *plan*
// decides which calls fail and how.
//
// Determinism contract: a site's Nth call fires regardless of which
// thread makes it, and seeded triggers resolve their N from the plan seed
// alone at arm time — so the set of fired (site, call) pairs is a pure
// function of the plan and the per-site call counts, never of timing.
// That is what lets recovery tests pin "same seed => same fire sites
// across thread counts".
//
// Plan grammar (entries separated by ';' or ','):
//   seed=K                 seed for '~' triggers (default 0)
//   site@N[:action[=aux]]  fire once, on the site's Nth call (1-based)
//   site@N+[:...]          fire on every call from the Nth on
//   site@NxC[:...]         fire on C consecutive calls starting at the Nth
//   site@~W[:...]          seeded: fire once, at a call in [1, W] derived
//                          from (seed, site, entry index)
// Actions: fail (when omitted), enospc, eio. `aux` is an action parameter
// (bytes of the torn chunk for checkpoint.write). A site outside the list
// below or any other action is rejected at parse time, so a misspelt plan
// never runs silently with no faults; so is any number above 2^64 - 1,
// which would otherwise wrap to a call nobody asked for. Example:
// "seed=7;spill.write@~6:enospc;checkpoint.rename@2".
//
// Instrumented sites (see fault_sites below):
//   spill.write        SpillFile::write — eio throws SpillError(EIO)
//                      before the pwrite; fail and enospc throw
//                      SpillError(ENOSPC).
//   checkpoint.write   one call per chunk of the checkpoint image written
//                      to the temporary — any action first writes `aux`
//                      bytes of that chunk (a torn temporary, as a crash
//                      would leave) and then aborts the save.
//   checkpoint.rename  the atomic-save publish step — any action aborts
//                      after the temp image is written but before the
//                      rename, standing in for a crash mid-save.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cqs::runtime {

namespace fault_sites {
inline constexpr const char* kSpillWrite = "spill.write";
inline constexpr const char* kCheckpointWrite = "checkpoint.write";
inline constexpr const char* kCheckpointRename = "checkpoint.rename";
}  // namespace fault_sites

/// One scripted fault: which site, which call(s), what to do.
struct FaultSpec {
  std::string site;
  /// 1-based index of the first firing call at the site. 0 means "seeded":
  /// resolved from (plan seed, site, entry index) into [1, window] at arm
  /// time.
  std::uint64_t nth = 1;
  std::uint64_t window = 0;  ///< seeded-trigger range; 0 unless nth == 0
  /// Consecutive firing calls starting at nth; 0 = every call from nth on.
  std::uint64_t count = 1;
  std::string action = "fail";
  std::uint64_t aux = 0;  ///< action parameter (bytes written)
};

/// A parsed, seedable fault script. Value type: tests build them inline,
/// `cqs_run --fault-plan` parses them from the command line.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> specs;

  /// Parses the grammar above. Throws std::invalid_argument on malformed
  /// entries, unknown sites or actions, or zero triggers.
  static FaultPlan parse(const std::string& text);
};

/// One fault that fired: the site, the 1-based call index that hit, and
/// the action the site was told to perform.
struct FaultHit {
  std::string site;
  std::uint64_t call = 0;
  std::string action;
  std::uint64_t aux = 0;
};

/// Process-wide fault registry. Disarmed (the default) it is a single
/// relaxed atomic load per instrumented call; armed, each call takes a
/// short critical section to bump the site counter and match specs.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Installs `plan`, resetting all call counters and the fired ledger.
  /// Seeded triggers are resolved here. Throws std::invalid_argument on
  /// specs with a zero trigger (nth == 0 and window == 0).
  void arm(const FaultPlan& plan);
  /// Deactivates injection (counters and ledger stay readable until the
  /// next arm).
  void disarm();
  bool armed() const;

  /// The instrumented-site entry point: bumps the site's call counter and
  /// returns the scripted action when this call should fault. Thread-safe.
  /// Returns nullopt (without counting) while disarmed.
  std::optional<FaultHit> on_call(const std::string& site);

  /// Calls observed at `site` since the last arm.
  std::uint64_t calls(const std::string& site) const;
  /// Every fault fired since the last arm, sorted by (site, call) so the
  /// ledger is comparable across runs regardless of thread interleaving.
  std::vector<FaultHit> fired() const;
  /// The armed specs with seeded triggers materialized — what `~W`
  /// resolved to for this plan.
  std::vector<FaultSpec> resolved_specs() const;

 private:
  FaultInjector() = default;

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::vector<FaultSpec> specs_;
  std::map<std::string, std::uint64_t> calls_;
  std::vector<FaultHit> fired_;
};

/// RAII plan installation for tests: arms on construction, disarms on
/// scope exit so no plan leaks into the next test.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultInjector::instance().arm(plan);
  }
  explicit ScopedFaultPlan(const std::string& text) {
    FaultInjector::instance().arm(FaultPlan::parse(text));
  }
  ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace cqs::runtime
