#include "runtime/fault_injection.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/bytes.hpp"

namespace cqs::runtime {
namespace {

const char* const kKnownSites[] = {fault_sites::kSpillWrite,
                                   fault_sites::kCheckpointWrite,
                                   fault_sites::kCheckpointRename};
const char* const kKnownActions[] = {"fail", "enospc", "eio"};

template <std::size_t N>
bool known(const char* const (&names)[N], const std::string& name) {
  return std::find(std::begin(names), std::end(names), name) !=
         std::end(names);
}

std::string trimmed(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// Parses a full decimal u64; `what` names the field in errors. A value
/// above UINT64_MAX is rejected rather than wrapped.
std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  if (text.empty()) {
    throw std::invalid_argument("fault plan: empty " + what);
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') {
      throw std::invalid_argument("fault plan: bad " + what + " '" + text +
                                  "'");
    }
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (kMax - digit) / 10) {
      throw std::invalid_argument("fault plan: " + what + " '" + text +
                                  "' exceeds 2^64 - 1");
    }
    value = value * 10 + digit;
  }
  return value;
}

/// One "site@trigger[:action[=aux]]" entry.
FaultSpec parse_entry(const std::string& entry) {
  FaultSpec spec;
  const std::size_t at = entry.find('@');
  if (at == std::string::npos || at == 0) {
    throw std::invalid_argument("fault plan: entry '" + entry +
                                "' is not site@trigger[:action[=aux]]");
  }
  spec.site = entry.substr(0, at);
  if (!known(kKnownSites, spec.site)) {
    throw std::invalid_argument("fault plan: unknown site '" + spec.site +
                                "' (expected spill.write, checkpoint.write, "
                                "or checkpoint.rename)");
  }
  std::string rest = entry.substr(at + 1);

  const std::size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    std::string action = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
    const std::size_t eq = action.find('=');
    if (eq != std::string::npos) {
      spec.aux = parse_u64(action.substr(eq + 1), "aux");
      action = action.substr(0, eq);
    }
    if (!known(kKnownActions, action)) {
      throw std::invalid_argument("fault plan: unknown action '" + action +
                                  "' (expected fail, enospc, or eio)");
    }
    spec.action = action;
  }

  if (!rest.empty() && rest.front() == '~') {
    spec.nth = 0;
    spec.window = parse_u64(rest.substr(1), "seeded window");
    if (spec.window == 0) {
      throw std::invalid_argument(
          "fault plan: seeded window must be positive in '" + entry + "'");
    }
    return spec;
  }
  if (!rest.empty() && rest.back() == '+') {
    spec.count = 0;
    rest.pop_back();
  } else {
    const std::size_t x = rest.find('x');
    if (x != std::string::npos) {
      spec.count = parse_u64(rest.substr(x + 1), "repeat count");
      if (spec.count == 0) {
        throw std::invalid_argument(
            "fault plan: repeat count must be positive (use N+ for 'every "
            "call from N') in '" + entry + "'");
      }
      rest = rest.substr(0, x);
    }
  }
  spec.nth = parse_u64(rest, "call index");
  if (spec.nth == 0) {
    throw std::invalid_argument(
        "fault plan: call indices are 1-based; '" + entry + "' asks for 0");
  }
  return spec;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find_first_of(";,", begin);
    if (end == std::string::npos) end = text.size();
    const std::string entry = trimmed(text.substr(begin, end - begin));
    begin = end + 1;
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      plan.seed = parse_u64(entry.substr(5), "seed");
      continue;
    }
    plan.specs.push_back(parse_entry(entry));
  }
  if (plan.specs.empty()) {
    throw std::invalid_argument("fault plan: no fault entries in '" + text +
                                "'");
  }
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const FaultPlan& plan) {
  std::lock_guard lock(mutex_);
  specs_.clear();
  calls_.clear();
  fired_.clear();
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    FaultSpec spec = plan.specs[i];
    if (spec.site.empty()) {
      throw std::invalid_argument("fault plan: spec with empty site");
    }
    if (spec.nth == 0) {
      if (spec.window == 0) {
        throw std::invalid_argument(
            "fault plan: seeded spec needs a positive window");
      }
      // The trigger is a pure function of (seed, site, entry index) — no
      // runtime state — so the same plan fires at the same call on every
      // run and at every thread count.
      std::uint64_t h = fnv1a(
          ByteSpan(reinterpret_cast<const std::byte*>(spec.site.data()),
                   spec.site.size()),
          plan.seed);
      h = fnv1a_u64(static_cast<std::uint64_t>(i), h);
      spec.nth = 1 + h % spec.window;
    }
    specs_.push_back(std::move(spec));
  }
  armed_.store(!specs_.empty(), std::memory_order_release);
}

void FaultInjector::disarm() {
  armed_.store(false, std::memory_order_release);
}

bool FaultInjector::armed() const {
  return armed_.load(std::memory_order_acquire);
}

std::optional<FaultHit> FaultInjector::on_call(const std::string& site) {
  // Production fast path: disarmed costs one atomic load, no lock.
  if (!armed_.load(std::memory_order_acquire)) return std::nullopt;
  std::lock_guard lock(mutex_);
  const std::uint64_t call = ++calls_[site];
  for (const FaultSpec& spec : specs_) {
    if (spec.site != site) continue;
    if (call < spec.nth) continue;
    // Subtraction form: nth + count can wrap for a large count.
    if (spec.count != 0 && call - spec.nth >= spec.count) continue;
    FaultHit hit{site, call, spec.action, spec.aux};
    fired_.push_back(hit);
    return hit;
  }
  return std::nullopt;
}

std::uint64_t FaultInjector::calls(const std::string& site) const {
  std::lock_guard lock(mutex_);
  const auto it = calls_.find(site);
  return it == calls_.end() ? 0 : it->second;
}

std::vector<FaultHit> FaultInjector::fired() const {
  std::lock_guard lock(mutex_);
  std::vector<FaultHit> sorted = fired_;
  std::sort(sorted.begin(), sorted.end(),
            [](const FaultHit& a, const FaultHit& b) {
              return a.site != b.site ? a.site < b.site : a.call < b.call;
            });
  return sorted;
}

std::vector<FaultSpec> FaultInjector::resolved_specs() const {
  std::lock_guard lock(mutex_);
  return specs_;
}

}  // namespace cqs::runtime
