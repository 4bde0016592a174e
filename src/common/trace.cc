#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/metrics.h"

namespace atpm {
namespace obs {

namespace internal {

std::atomic<bool> g_trace_enabled{false};

namespace {

/// Per-thread event ring. The owning thread is the only writer; the mutex
/// exists for exporters/reset racing the writer (uncontended in steady
/// state, so the hot path pays one private lock).
struct Ring {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
  uint64_t total = 0;  // lifetime pushes; > capacity means wraparound

  Ring() { events.resize(kTraceRingCapacity); }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  uint32_t next_tid = 1;
};

Registry& GlobalRegistry() {
  static Registry* const registry = new Registry();
  return *registry;
}

Ring* ThreadRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>();
    Registry& reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    r->tid = reg.next_tid++;
    reg.rings.push_back(r);
    return r;
  }();
  return ring.get();
}

thread_local uint32_t t_depth = 0;

/// ATPM_TRACE=1 turns tracing on before main() (CI smoke runs, ad-hoc
/// profiling without a code change).
const bool g_env_applied = [] {
  g_trace_enabled.store(SwitchFromEnv("ATPM_TRACE", false),
                        std::memory_order_relaxed);
  return true;
}();

/// Escapes a span name or annotation key (a literal; null reads as "").
std::string JsonEscape(const char* in) {
  std::string out;
  for (; in != nullptr && *in != '\0'; ++in) {
    switch (*in) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += *in;
    }
  }
  return out;
}

}  // namespace

uint64_t BeginSpan() {
  ++t_depth;
  return MonotonicNowNs();
}

void EndSpan(const TraceEvent& prototype, uint64_t start_ns) {
  const uint64_t end_ns = MonotonicNowNs();
  --t_depth;
  Ring* ring = ThreadRing();
  TraceEvent event = prototype;
  event.start_ns = start_ns;
  event.dur_ns = end_ns - start_ns;
  event.depth = t_depth;
  event.tid = ring->tid;
  std::lock_guard<std::mutex> lock(ring->mu);
  ring->events[ring->total % kTraceRingCapacity] = event;
  ++ring->total;
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<TraceEvent> CollectTraceEvents() {
  std::vector<TraceEvent> out;
  internal::Registry& reg = internal::GlobalRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    const uint64_t kept =
        ring->total < kTraceRingCapacity ? ring->total : kTraceRingCapacity;
    const uint64_t oldest = ring->total - kept;
    for (uint64_t i = 0; i < kept; ++i) {
      out.push_back(ring->events[(oldest + i) % kTraceRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.depth < b.depth;
            });
  return out;
}

uint64_t DroppedTraceEvents() {
  uint64_t dropped = 0;
  internal::Registry& reg = internal::GlobalRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    if (ring->total > kTraceRingCapacity) {
      dropped += ring->total - kTraceRingCapacity;
    }
  }
  return dropped;
}

void ResetTrace() {
  internal::Registry& reg = internal::GlobalRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const auto& ring : reg.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->total = 0;
  }
}

namespace {

/// Formats nanoseconds as microseconds with sub-ns-safe fixed precision
/// (Chrome's ts/dur unit is µs).
std::string MicrosFromNs(uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::vector<SpanSummary> SummarizeSpans(
    const std::vector<TraceEvent>& events) {
  // Spans on one tid at one depth never overlap, so a child's direct
  // parent is the latest-starting span one level up on its tid that starts
  // no later than the child; it is the parent iff it also contains it.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto key = [&](size_t i) {
    return std::make_tuple(events[i].tid, events[i].depth,
                           events[i].start_ns);
  };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return key(a) < key(b); });
  std::vector<uint64_t> child_ns(events.size(), 0);
  for (const TraceEvent& child : events) {
    if (child.depth == 0) continue;
    // First span at (tid, depth - 1) starting after the child, minus one.
    auto it = std::upper_bound(
        order.begin(), order.end(),
        std::make_tuple(child.tid, child.depth - 1, child.start_ns),
        [&](const auto& value, size_t i) { return value < key(i); });
    if (it == order.begin()) continue;
    const size_t parent = *--it;
    const TraceEvent& p = events[parent];
    if (p.tid != child.tid || p.depth + 1 != child.depth) continue;
    if (child.start_ns + child.dur_ns <= p.start_ns + p.dur_ns) {
      child_ns[parent] += child.dur_ns;
    }
  }
  std::map<std::string, SpanSummary> by_name;  // ordered: stable output
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const std::string name = event.name != nullptr ? event.name : "";
    SpanSummary& row = by_name[name];
    row.name = name;
    ++row.count;
    row.total_ns += event.dur_ns;
    row.self_ns += event.dur_ns - std::min(event.dur_ns, child_ns[i]);
    row.max_ns = std::max(row.max_ns, event.dur_ns);
  }
  std::vector<SpanSummary> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  return rows;
}

std::string ExportChromeTraceJson() {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : CollectTraceEvents()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + internal::JsonEscape(event.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(event.tid) + ", \"ts\": " +
           MicrosFromNs(event.start_ns) + ", \"dur\": " +
           MicrosFromNs(event.dur_ns) + ", \"args\": {\"depth\": " +
           std::to_string(event.depth);
    for (uint32_t a = 0; a < event.num_args; ++a) {
      out += ", \"" + internal::JsonEscape(event.arg_keys[a]) +
             "\": " + std::to_string(event.arg_values[a]);
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace obs
}  // namespace atpm
