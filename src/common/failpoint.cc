#include "common/failpoint.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>

#include "common/math_util.h"

namespace atpm {
namespace failpoint {
namespace {

/// Central registry. Every ATPM_FAILPOINT* site in the tree must name an
/// entry here (enforced by the `failpoint-discipline` atpm_lint rule).
/// `code` is the Status category an injected hard failure reports —
/// chosen to match what the real fault at that site would produce.
struct SiteInfo {
  const char* name;
  StatusCode code;
  Action default_action;
};

constexpr SiteInfo kRegistry[] = {
    // atpm-failpoint-registry-begin
    {"alloc.pool_reserve", StatusCode::kResourceExhausted, Action::kBadAlloc},
    {"alloc.pool_append", StatusCode::kResourceExhausted, Action::kBadAlloc},
    {"engine.serial_batch", StatusCode::kInternal, Action::kError},
    {"engine.parallel_worker", StatusCode::kInternal, Action::kThrow},
    {"graph_store.open", StatusCode::kIOError, Action::kError},
    {"graph_store.open.transient", StatusCode::kIOError, Action::kTransient},
    {"graph_store.mmap", StatusCode::kIOError, Action::kError},
    {"graph_store.read", StatusCode::kIOError, Action::kError},
    {"graph_store.write", StatusCode::kIOError, Action::kError},
    {"graph_store.fsync", StatusCode::kIOError, Action::kError},
    {"graph_store.rename", StatusCode::kIOError, Action::kError},
    {"edge_list.open", StatusCode::kIOError, Action::kError},
    {"edge_list.read", StatusCode::kIOError, Action::kError},
    {"edge_list.read.transient", StatusCode::kIOError, Action::kTransient},
    {"edge_list.write", StatusCode::kIOError, Action::kError},
    // atpm-failpoint-registry-end
};

constexpr size_t kNumSites = sizeof(kRegistry) / sizeof(kRegistry[0]);

/// Per-site armed state. Sites are few and lookups happen only on the
/// armed slow path, so a linear scan over a fixed array keeps this layer
/// free of hash containers (iteration order never matters here, but the
/// tree-wide determinism posture is simpler with none at all).
struct SiteState {
  bool armed = false;
  Spec spec;
  uint64_t hits = 0;  // counted only while anything is armed
  // Chaos mode: probabilistic schedule keyed by (seed, site, hit).
  bool chaos = false;
  uint64_t chaos_seed = 0;
  uint64_t chaos_threshold = 0;  // fire iff hash < threshold
};

std::mutex g_mu;
SiteState g_state[kNumSites];

int FindSite(const char* name) {
  for (size_t i = 0; i < kNumSites; ++i) {
    if (std::strcmp(kRegistry[i].name, name) == 0) return (int)i;
  }
  return -1;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashName(const char* name) {
  uint64_t h = 1469598103934665603ull;
  for (const char* p = name; *p != '\0'; ++p) {
    h = (h ^ (uint64_t)(unsigned char)*p) * 1099511628211ull;
  }
  return h;
}

/// Decides whether site `i` fires at this hit, advancing the hit counter.
/// Caller holds g_mu. Returns the firing action, or no value.
bool HitFires(size_t i, Action* action) {
  SiteState& st = g_state[i];
  const uint64_t hit = ++st.hits;
  if (!st.armed) return false;
  if (st.chaos) {
    const uint64_t roll =
        SplitMix64(st.chaos_seed ^ HashName(kRegistry[i].name) ^
                   (hit * 0x9e3779b97f4a7c15ull));
    if (roll >= st.chaos_threshold) return false;
    *action = kRegistry[i].default_action;
    return true;
  }
  if (hit < st.spec.fire_at) return false;
  if (st.spec.count != UINT64_MAX &&
      hit >= st.spec.fire_at + st.spec.count) {
    return false;
  }
  *action = st.spec.action;
  return true;
}

std::string FireMessage(const char* name) {
  return std::string("failpoint '") + name + "' fired";
}

/// Arms every failpoint named in ATPM_FAILPOINTS before main() runs, so
/// chaos schedules apply to whole binaries without code changes. A
/// malformed spec aborts loudly: silently ignoring it would turn a chaos
/// run into a clean run.
const bool g_env_armed = [] {
  const char* env = std::getenv("ATPM_FAILPOINTS");
  if (env == nullptr || *env == '\0') return false;
  const Status status = ArmFromSpec(env);
  if (!status.ok()) {
    std::fprintf(stderr, "ATPM_FAILPOINTS: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return true;
}();

}  // namespace

bool Arm(const std::string& name, Spec spec) {
  const int i = FindSite(name.c_str());
  if (i < 0) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  SiteState& st = g_state[i];
  if (!st.armed) {
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  st.armed = true;
  st.chaos = false;
  st.spec = spec;
  st.hits = 0;
  return true;
}

bool Arm(const std::string& name) {
  const int i = FindSite(name.c_str());
  if (i < 0) return false;
  Spec spec;
  spec.action = kRegistry[i].default_action;
  return Arm(name, spec);
}

void ArmChaos(uint64_t seed, double probability) {
  if (!(probability > 0.0)) probability = 0.0;  // also sends NaN to 0
  if (probability > 1.0) probability = 1.0;
  // Map p in [0,1] onto a 64-bit threshold; p == 1 fires always. The
  // scaled double is re-checked against the cast range because rounding
  // can push p * 2^64 to exactly 2^64 for p just below 1.
  const double scaled = probability * 18446744073709551616.0;
  const uint64_t threshold =
      (probability >= 1.0 || scaled >= 18446744073709549568.0)
          ? UINT64_MAX
          : (uint64_t)scaled;
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < kNumSites; ++i) {
    SiteState& st = g_state[i];
    if (!st.armed) {
      internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
    }
    st.armed = true;
    st.chaos = true;
    st.chaos_seed = seed;
    st.chaos_threshold = threshold;
    st.hits = 0;
  }
}

void Disarm(const std::string& name) {
  const int i = FindSite(name.c_str());
  if (i < 0) return;
  std::lock_guard<std::mutex> lock(g_mu);
  SiteState& st = g_state[i];
  if (st.armed) {
    st.armed = false;
    st.chaos = false;
    internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < kNumSites; ++i) {
    SiteState& st = g_state[i];
    if (st.armed) {
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    st = SiteState();
  }
}

uint64_t HitCount(const std::string& name) {
  const int i = FindSite(name.c_str());
  if (i < 0) return 0;
  std::lock_guard<std::mutex> lock(g_mu);
  return g_state[i].hits;
}

std::vector<std::string> RegisteredNames() {
  std::vector<std::string> names;
  names.reserve(kNumSites);
  for (size_t i = 0; i < kNumSites; ++i) names.push_back(kRegistry[i].name);
  return names;
}

Status ArmFromSpec(const std::string& spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;

    if (clause.rfind("chaos:", 0) == 0) {
      // chaos:<seed>:<probability>
      const size_t colon = clause.find(':', 6);
      if (colon == std::string::npos) {
        return Status::InvalidArgument(
            "failpoint spec: chaos clause needs chaos:<seed>:<p>, got '" +
            clause + "'");
      }
      const std::string_view text = clause;
      uint64_t seed = 0;
      if (!ParseWholeNumber(text.substr(6, colon - 6), &seed)) {
        return Status::InvalidArgument(
            "failpoint spec: bad chaos seed in '" + clause + "'");
      }
      double p = 0.0;
      if (!ParseWholeNumber(text.substr(colon + 1), &p) || !std::isfinite(p) ||
          p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "failpoint spec: chaos probability must be in [0,1] in '" +
            clause + "'");
      }
      ArmChaos(seed, p);
      continue;
    }

    // name[=action][@fire_at[:count]]
    std::string name = clause;
    std::string action_str;
    std::string sched_str;
    const size_t at = name.find('@');
    if (at != std::string::npos) {
      sched_str = name.substr(at + 1);
      name.resize(at);
    }
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      action_str = name.substr(eq + 1);
      name.resize(eq);
    }
    const int site = FindSite(name.c_str());
    if (site < 0) {
      return Status::InvalidArgument(
          "failpoint spec: unknown failpoint '" + name + "'");
    }
    Spec out;
    out.action = kRegistry[site].default_action;
    if (eq != std::string::npos) {
      if (action_str == "error") {
        out.action = Action::kError;
      } else if (action_str == "badalloc") {
        out.action = Action::kBadAlloc;
      } else if (action_str == "throw") {
        out.action = Action::kThrow;
      } else if (action_str == "transient") {
        out.action = Action::kTransient;
      } else {
        return Status::InvalidArgument(
            "failpoint spec: unknown action '" + action_str + "'");
      }
    }
    if (at != std::string::npos) {
      const std::string_view sched = sched_str;
      const size_t colon = sched.find(':');
      if (!ParseWholeNumber(sched.substr(0, colon), &out.fire_at) ||
          (colon != std::string_view::npos &&
           !ParseWholeNumber(sched.substr(colon + 1), &out.count))) {
        return Status::InvalidArgument(
            "failpoint spec: bad schedule in '" + clause + "'");
      }
      if (out.fire_at == 0) {
        return Status::InvalidArgument(
            "failpoint spec: fire_at is 1-based in '" + clause + "'");
      }
      if (out.count == 0) {
        return Status::InvalidArgument(
            "failpoint spec: count must be positive in '" + clause + "'");
      }
    }
    Arm(name, out);
  }
  return Status::OK();
}

namespace internal {

std::atomic<uint64_t> g_armed_count{0};

Status Check(const char* name) {
  const int i = FindSite(name);
  if (i < 0) return Status::OK();
  Action action = Action::kError;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!HitFires((size_t)i, &action)) return Status::OK();
  }
  switch (action) {
    case Action::kError:
      return Status(kRegistry[i].code, FireMessage(name));
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kThrow:
      throw FailpointError(FireMessage(name));
    case Action::kTransient:
      return Status::OK();  // transient schedules only fire at *_TRANSIENT
  }
  return Status::OK();
}

void MaybeThrow(const char* name) {
  const int i = FindSite(name);
  if (i < 0) return;
  Action action = Action::kError;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!HitFires((size_t)i, &action)) return;
  }
  switch (action) {
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kError:
    case Action::kThrow:
      throw FailpointError(FireMessage(name));
    case Action::kTransient:
      break;
  }
}

bool Fired(const char* name) {
  const int i = FindSite(name);
  if (i < 0) return false;
  Action action = Action::kError;
  std::lock_guard<std::mutex> lock(g_mu);
  if (!HitFires((size_t)i, &action)) return false;
  return action != Action::kTransient;
}

bool FireTransient(const char* name) {
  const int i = FindSite(name);
  if (i < 0) return false;
  Action action = Action::kError;
  std::lock_guard<std::mutex> lock(g_mu);
  if (!HitFires((size_t)i, &action)) return false;
  return action == Action::kTransient;
}

}  // namespace internal

}  // namespace failpoint
}  // namespace atpm
