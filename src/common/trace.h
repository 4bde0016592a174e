#ifndef ATPM_COMMON_TRACE_H_
#define ATPM_COMMON_TRACE_H_

/// Span-based tracer (the timeline half of the atpm_obs observability
/// layer; counters/histograms live in common/metrics.h).
///
/// A TraceSpan is an RAII region with a literal name, explicit nesting
/// (per-thread depth, parent inferred by containment) and up to
/// kMaxSpanArgs numeric annotations. Closed spans land in per-thread ring
/// buffers — no allocation, no locks on the hot path beyond the owning
/// ring's uncontended mutex — and are exported as Chrome trace_event JSON
/// ("X" complete events, loadable in Perfetto / chrome://tracing), the one
/// trace file format. SummarizeSpans aggregates the live events per span
/// name in-process (bench/fig9_sample_scaling prints it when tracing).
///
/// Determinism contract (shared with metrics.h): a span never draws RNG
/// state or reorders work; when tracing is disabled — the default — the
/// constructor is one relaxed atomic load and the destructor a branch.
/// ATPM_TRACE=1 enables tracing at startup.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace atpm {
namespace obs {

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}
void SetTraceEnabled(bool enabled);

inline constexpr uint32_t kMaxSpanArgs = 4;
/// Closed spans kept per thread; older events are overwritten on wrap
/// (DroppedEvents() reports how many).
inline constexpr size_t kTraceRingCapacity = 8192;

/// One closed span. `name` and `arg_keys` point at string literals (the
/// metrics-discipline lint rule keeps call sites literal), so events are
/// POD-cheap to store and copy.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
  uint32_t depth = 0;
  uint32_t num_args = 0;
  const char* arg_keys[kMaxSpanArgs] = {};
  uint64_t arg_values[kMaxSpanArgs] = {};
};

namespace internal {
/// Opens a span on the calling thread: returns its start timestamp and
/// bumps the nesting depth. Closing writes the event into the ring.
uint64_t BeginSpan();
void EndSpan(const TraceEvent& prototype, uint64_t start_ns);
}  // namespace internal

/// RAII span. Annotations are buffered in the span object and flushed with
/// the event at destruction, so they may be added any time before scope
/// exit (budget-degradation sites annotate the decision span they sit in).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : active_(TraceEnabled()) {
    if (active_) {
      event_.name = name;
      start_ns_ = internal::BeginSpan();
    }
  }
  ~TraceSpan() {
    if (active_) internal::EndSpan(event_, start_ns_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric annotation (dropped beyond kMaxSpanArgs).
  void AnnotateU64(const char* key, uint64_t value) {
    if (!active_ || event_.num_args >= kMaxSpanArgs) return;
    event_.arg_keys[event_.num_args] = key;
    event_.arg_values[event_.num_args] = value;
    ++event_.num_args;
  }

 private:
  bool active_;
  uint64_t start_ns_ = 0;
  TraceEvent event_;
};

/// Snapshot of every thread's closed spans, sorted by (start, tid). Rings
/// keep recording while this copies; call from a quiescent point for a
/// complete picture.
std::vector<TraceEvent> CollectTraceEvents();

/// Events overwritten by ring wraparound since the last ResetTrace().
uint64_t DroppedTraceEvents();

/// Clears every ring (capacity and registrations stay).
void ResetTrace();

/// Chrome trace_event JSON ({"traceEvents": [...]}, "X" complete events
/// with ts/dur in microseconds), loadable in Perfetto / chrome://tracing.
std::string ExportChromeTraceJson();

/// Per-span-name totals of a set of events (typically
/// CollectTraceEvents()). `self_ns` is each span's duration minus
/// the durations of its direct children — the spans on the same tid at
/// depth + 1 that lie inside it — summed over the name's spans, so the
/// self times of a fully nested trace add up to its root spans' total.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t max_ns = 0;
};
/// One row per distinct span name, sorted by name.
std::vector<SpanSummary> SummarizeSpans(const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace atpm

#endif  // ATPM_COMMON_TRACE_H_
