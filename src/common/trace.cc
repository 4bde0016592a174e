#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
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

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
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
        out += c;
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

std::vector<OwnedTraceEvent> ToOwned(const std::vector<TraceEvent>& events) {
  std::vector<OwnedTraceEvent> owned;
  owned.reserve(events.size());
  for (const TraceEvent& event : events) {
    OwnedTraceEvent o;
    o.name = event.name != nullptr ? event.name : "";
    o.start_ns = event.start_ns;
    o.dur_ns = event.dur_ns;
    o.tid = event.tid;
    o.depth = event.depth;
    for (uint32_t a = 0; a < event.num_args; ++a) {
      o.args.emplace_back(
          event.arg_keys[a] != nullptr ? event.arg_keys[a] : "",
          event.arg_values[a]);
    }
    owned.push_back(std::move(o));
  }
  return owned;
}

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
    const std::vector<OwnedTraceEvent>& events) {
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
  for (const OwnedTraceEvent& child : events) {
    if (child.depth == 0) continue;
    // First span at (tid, depth - 1) starting after the child, minus one.
    auto it = std::upper_bound(
        order.begin(), order.end(),
        std::make_tuple(child.tid, child.depth - 1, child.start_ns),
        [&](const auto& value, size_t i) { return value < key(i); });
    if (it == order.begin()) continue;
    const size_t parent = *--it;
    const OwnedTraceEvent& p = events[parent];
    if (p.tid != child.tid || p.depth + 1 != child.depth) continue;
    if (child.start_ns + child.dur_ns <= p.start_ns + p.dur_ns) {
      child_ns[parent] += child.dur_ns;
    }
  }
  std::map<std::string, SpanSummary> by_name;  // ordered: stable output
  for (size_t i = 0; i < events.size(); ++i) {
    const OwnedTraceEvent& event = events[i];
    SpanSummary& row = by_name[event.name];
    row.name = event.name;
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

std::string ChromeTraceJsonFromOwned(
    const std::vector<OwnedTraceEvent>& events) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const OwnedTraceEvent& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + internal::JsonEscape(event.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(event.tid) + ", \"ts\": " +
           MicrosFromNs(event.start_ns) + ", \"dur\": " +
           MicrosFromNs(event.dur_ns) + ", \"args\": {\"depth\": " +
           std::to_string(event.depth);
    for (const auto& [key, value] : event.args) {
      out += ", \"" + internal::JsonEscape(key) +
             "\": " + std::to_string(value);
    }
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string ExportChromeTraceJson() {
  return ChromeTraceJsonFromOwned(ToOwned(CollectTraceEvents()));
}

Status WriteChromeTrace(const std::string& path) {
  const std::string json = ExportChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IOError("short write on trace output: " + path);
  }
  return Status::OK();
}

// ------------------------------------------------- binary .atrace format
//
// Little-endian stream: "ATRC" magic, u32 version (1), u64 event count,
// then per event: u16 name_len + name bytes, u64 start_ns, u64 dur_ns,
// u32 tid, u32 depth, u32 num_args, and per arg u16 key_len + key bytes +
// u64 value. Compact enough for CI artifacts; atpm_trace_dump turns it
// into Chrome JSON or a summary.

namespace {

constexpr char kMagic[4] = {'A', 'T', 'R', 'C'};
constexpr uint32_t kVersion = 1;

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

struct Cursor {
  const unsigned char* data;
  size_t size;
  size_t pos = 0;

  bool Take(void* out, size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool TakeU16(uint16_t* v) {
    unsigned char b[2];
    if (!Take(b, 2)) return false;
    *v = static_cast<uint16_t>(b[0] | (b[1] << 8));
    return true;
  }
  bool TakeU32(uint32_t* v) {
    unsigned char b[4];
    if (!Take(b, 4)) return false;
    *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
    return true;
  }
  bool TakeU64(uint64_t* v) {
    unsigned char b[8];
    if (!Take(b, 8)) return false;
    *v = 0;
    for (int i = 7; i >= 0; --i) *v = (*v << 8) | b[i];
    return true;
  }
  bool TakeString(std::string* s) {
    uint16_t len = 0;
    if (!TakeU16(&len)) return false;
    if (size - pos < len) return false;
    s->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return true;
  }
};

void AppendString(std::string* out, const std::string& s) {
  const size_t len = s.size() < 65535 ? s.size() : 65535;
  AppendU16(out, static_cast<uint16_t>(len));
  out->append(s.data(), len);
}

}  // namespace

Status WriteBinaryTrace(const std::string& path) {
  const std::vector<OwnedTraceEvent> events = ToOwned(CollectTraceEvents());
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kVersion);
  AppendU64(&out, events.size());
  for (const OwnedTraceEvent& event : events) {
    AppendString(&out, event.name);
    AppendU64(&out, event.start_ns);
    AppendU64(&out, event.dur_ns);
    AppendU32(&out, event.tid);
    AppendU32(&out, event.depth);
    AppendU32(&out, static_cast<uint32_t>(event.args.size()));
    for (const auto& [key, value] : event.args) {
      AppendString(&out, key);
      AppendU64(&out, value);
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) {
    return Status::IOError("short write on trace output: " + path);
  }
  return Status::OK();
}

Status ReadBinaryTrace(const std::string& path,
                       std::vector<OwnedTraceEvent>* events) {
  events->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace input: " + path);
  }
  std::string raw;
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    raw.append(buf, got);
  }
  std::fclose(f);

  Cursor cur{reinterpret_cast<const unsigned char*>(raw.data()), raw.size()};
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (!cur.Take(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an .atrace file: " + path);
  }
  if (!cur.TakeU32(&version) || version != kVersion) {
    return Status::InvalidArgument("unsupported .atrace version in " + path);
  }
  if (!cur.TakeU64(&count)) {
    return Status::InvalidArgument("truncated .atrace header in " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    OwnedTraceEvent event;
    uint32_t num_args = 0;
    if (!cur.TakeString(&event.name) || !cur.TakeU64(&event.start_ns) ||
        !cur.TakeU64(&event.dur_ns) || !cur.TakeU32(&event.tid) ||
        !cur.TakeU32(&event.depth) || !cur.TakeU32(&num_args)) {
      return Status::InvalidArgument("truncated .atrace event in " + path);
    }
    if (num_args > 1024) {
      return Status::InvalidArgument("implausible arg count in " + path);
    }
    for (uint32_t a = 0; a < num_args; ++a) {
      std::string key;
      uint64_t value = 0;
      if (!cur.TakeString(&key) || !cur.TakeU64(&value)) {
        return Status::InvalidArgument("truncated .atrace arg in " + path);
      }
      event.args.emplace_back(std::move(key), value);
    }
    events->push_back(std::move(event));
  }
  if (cur.pos != cur.size) {
    return Status::InvalidArgument("trailing garbage in .atrace: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace atpm
