#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

// In-memory span recorder for the ledger's traced runs. Spans are recorded
// by the benchmark around its calls into each layer (never inside the
// program), kept in memory, and written out once when the run ends.
// Recording happens on the benchmark's main thread only.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads) in nanoseconds.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

class SpanLog {
 public:
  struct Span {
    /// "<layer>.<what>", e.g. "rris.count"; the layer is the prefix.
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  int32_t Open(const char* name) {
    spans_.push_back({name, WallNs(), 0, current_});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void Close(int32_t id) {
    spans_[id].end_ns = WallNs();
    current_ = spans_[id].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in seconds, over the subtree rooted at
  /// `root` (inclusive): each span's duration minus the part its children
  /// cover. Children of one span never overlap, since all spans come from
  /// one thread, and a parent always precedes its children in the log.
  std::map<std::string, double> SelfSecondsByName(int32_t root) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    std::vector<bool> inside(spans_.size(), false);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int32_t p = spans_[i].parent;
      inside[i] = static_cast<int32_t>(i) == root || (p >= 0 && inside[p]);
      if (p >= 0) child_ns[p] += Duration(i);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!inside[i]) continue;
      self[spans_[i].name] +=
          static_cast<double>(Duration(i) - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// Wall time of span `id`, in seconds.
  double Seconds(int32_t id) const {
    return static_cast<double>(Duration(id)) * 1e-9;
  }

  /// Writes every span as Chrome trace_event JSON (loadable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   spans_[i].name,
                   static_cast<double>(spans_[i].start_ns - origin) * 1e-3,
                   static_cast<double>(Duration(i)) * 1e-3, i,
                   spans_[i].parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  int64_t Duration(size_t i) const {
    return spans_[i].end_ns - spans_[i].start_ns;
  }

  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// RAII span; a null log records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
