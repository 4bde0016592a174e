#ifndef ATPM_COMMON_FAILPOINT_H_
#define ATPM_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace atpm {
namespace failpoint {

/// Deterministic fault injection. Every fallible subsystem declares named
/// failpoints (registered centrally in failpoint.cc); test code arms them
/// programmatically or via the `ATPM_FAILPOINTS` environment variable and
/// the armed sites then fail on a reproducible schedule. When nothing is
/// armed a site costs one relaxed atomic load and consumes no RNG state,
/// so production behavior — including the bit-identical sampling streams
/// the test oracle pins — is unchanged.
///
/// Env grammar (`;`-separated):
///   ATPM_FAILPOINTS="graph_store.write;edge_list.read=transient@1:2"
///     name[=action][@fire_at[:count]]
///       action  error | badalloc | throw | transient (default: the
///               site's registered default — error for most, transient
///               for *.transient names)
///       fire_at 1-based hit index of the first firing (default 1)
///       count   number of consecutive firings (default: unbounded)
///   ATPM_FAILPOINTS="chaos:<seed>:<probability>"
///     arms every registered failpoint with an independent pseudo-random
///     schedule derived from (seed, name, hit index) — reproducible chaos.
///   Every number is one whole unsigned decimal token (the probability a
///   finite value in [0, 1]); a sign, whitespace, an empty token or
///   overflow makes the spec malformed.
enum class Action : uint8_t {
  /// The site reports its registered error code as a Status.
  kError,
  /// The site throws std::bad_alloc (allocation sites; containment paths
  /// translate this to StatusCode::kResourceExhausted).
  kBadAlloc,
  /// The site throws FailpointError (exercises worker-thread containment).
  kThrow,
  /// The site simulates a transient fault (EINTR / short read) that a
  /// bounded retry loop is expected to absorb.
  kTransient,
};

/// Exception thrown by kThrow-armed sites (and kError sites that live in
/// throw-based containment paths, e.g. worker-loop bodies).
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One armed schedule. Fires on hits [fire_at, fire_at + count).
struct Spec {
  Action action = Action::kError;
  uint64_t fire_at = 1;                 // 1-based hit index of first firing
  uint64_t count = UINT64_MAX;          // consecutive firings
};

/// True iff at least one failpoint is armed. The fast path every site
/// checks before touching any shared state.
bool AnyArmed();

/// Arms `name` with an explicit schedule. Returns false (and arms nothing)
/// if `name` is not in the central registry.
bool Arm(const std::string& name, Spec spec);

/// Arms `name` with its registered default action, firing on every hit.
bool Arm(const std::string& name);

/// Arms every registered failpoint with a pseudo-random schedule: hit k of
/// site s fires with probability `probability`, decided by a hash of
/// (seed, s, k) — the same seed always yields the same fault schedule.
void ArmChaos(uint64_t seed, double probability);

/// Disarms `name` (no-op when not armed).
void Disarm(const std::string& name);

/// Disarms everything and resets all hit counters.
void DisarmAll();

/// Total hits observed at `name` since the last DisarmAll (armed or not —
/// counting only happens while at least one failpoint is armed).
uint64_t HitCount(const std::string& name);

/// Parses `spec` (the ATPM_FAILPOINTS grammar above) and arms accordingly.
/// Returns a Status describing the first malformed clause, arming the
/// well-formed prefix.
Status ArmFromSpec(const std::string& spec);

/// All registered failpoint names, in registration order.
std::vector<std::string> RegisteredNames();

/// (name, schedule firings) per site since the last DisarmAll, in
/// registration order. Also exported at metrics-scrape time as the labeled
/// series `atpm_failpoint_fires_total{site=...}` (zero sites elided).
std::vector<std::pair<std::string, uint64_t>> FireCounts();

namespace internal {

extern std::atomic<uint64_t> g_armed_count;

/// Non-transient firing decision for `name` at this hit. Returns the
/// error Status registered for the site when it fires, OK otherwise.
Status Check(const char* name);

/// Like Check, but reports the firing by throwing: FailpointError for
/// kError/kThrow schedules, std::bad_alloc for kBadAlloc. For sites whose
/// containment path is exception-based (worker loops, allocation).
void MaybeThrow(const char* name);

/// Boolean form of Check for sites that fold failure into an existing
/// error flag instead of returning a Status directly.
bool Fired(const char* name);

/// True iff a kTransient schedule fires at this hit. Only transient
/// schedules are consulted; retry loops pair this with BackoffRetry.
bool FireTransient(const char* name);

}  // namespace internal

inline bool AnyArmed() {
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

}  // namespace failpoint
}  // namespace atpm

/// Failpoint site in a Status- or Result-returning function: returns the
/// site's registered error Status when the armed schedule fires.
#define ATPM_FAILPOINT(name)                                      \
  do {                                                            \
    if (::atpm::failpoint::AnyArmed()) {                          \
      ::atpm::Status _fp_st = ::atpm::failpoint::internal::Check(name); \
      if (!_fp_st.ok()) return _fp_st;                            \
    }                                                             \
  } while (false)

/// Failpoint site inside an exception-based containment path (worker-loop
/// bodies, allocation wrappers): throws when the schedule fires.
#define ATPM_FAILPOINT_MAYBE_THROW(name)                          \
  do {                                                            \
    if (::atpm::failpoint::AnyArmed())                            \
      ::atpm::failpoint::internal::MaybeThrow(name);              \
  } while (false)

/// Boolean failpoint site: evaluates to true when the schedule fires, for
/// code that folds the failure into an existing error flag.
#define ATPM_FAILPOINT_FIRED(name) \
  (::atpm::failpoint::AnyArmed() && ::atpm::failpoint::internal::Fired(name))

/// Transient failpoint site: evaluates to true when a kTransient schedule
/// fires; the caller simulates an EINTR/short-read and retries.
#define ATPM_FAILPOINT_TRANSIENT(name)  \
  (::atpm::failpoint::AnyArmed() &&     \
   ::atpm::failpoint::internal::FireTransient(name))

#endif  // ATPM_COMMON_FAILPOINT_H_
