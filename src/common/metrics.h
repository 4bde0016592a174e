#ifndef ATPM_COMMON_METRICS_H_
#define ATPM_COMMON_METRICS_H_

/// Process-wide metric registry (the counter/histogram half of the
/// atpm_obs observability layer; spans live in common/trace.h).
///
/// Design constraints, in priority order:
///
///   1. Determinism transparency. Instruments never touch RNG state and
///      never reorder work; when metrics are disabled an Increment() is a
///      single relaxed atomic load. Golden RR-pool hashes and policy
///      decision sequences are bit-identical with the layer compiled in,
///      enabled or disabled (timestamps are observational only).
///   2. Write-path scalability. Counters and histograms are striped across
///      cache-line-padded per-thread shards (lock-free relaxed adds) and
///      merged only on scrape, so the worker-pool engines never contend on
///      a shared line.
///   3. Static discipline. Metric names are string literals, validated at
///      registration (`atpm_`-prefixed snake_case, registered once) and
///      enforced by the `metrics-discipline` atpm_lint rule.
///
/// Export: Prometheus text exposition (ExportPrometheus).
///
/// The registry holds only what has no other always-on home: latency and
/// batch-size histograms, graph-store loads, I/O retries and graph
/// detaches. Effort counts stay in the structs that own them exactly —
/// SamplingStats per engine, AdaptiveRunResult per policy run,
/// failpoint::HitCount per site — and are not mirrored here.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace atpm {
namespace obs {

namespace internal {

/// Number of per-instrument shards. Threads hash onto a fixed stripe; 16
/// 64-byte lines keep false sharing negligible for the pool sizes the
/// engines run (worker pools are sized to hardware_concurrency).
inline constexpr uint32_t kStripes = 16;

struct alignas(64) Stripe {
  std::atomic<uint64_t> value{0};
};

/// Assigns the calling thread a stripe index (round-robin at first use).
uint32_t AssignStripe();

inline uint32_t ThreadStripe() {
  thread_local const uint32_t stripe = AssignStripe();
  return stripe;
}

/// Monotonic nanosecond clock. Lives behind this helper so instrumented
/// layers (src/core, src/rris) never name std::chrono::steady_clock
/// directly — the metrics-discipline lint rule pins that.
uint64_t MonotonicNowNs();

extern std::atomic<bool> g_metrics_enabled;

}  // namespace internal

/// Global kill switch (default on; ATPM_METRICS=0 disables at startup).
/// Reading it is the entire disabled-path cost of every instrument.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// The on/off switch value `value` (an environment variable's text,
/// nullptr when unset): `fallback` when unset or empty, false for "0",
/// true for "1", and no value for anything else.
std::optional<bool> ParseSwitch(const char* value, bool fallback);

/// ParseSwitch of the environment variable `var`. A value it rejects
/// prints the variable and aborts: a typo such as ATPM_TRACE=true must not
/// silently leave the switch at its default. ATPM_METRICS and ATPM_TRACE
/// are read this way before main() runs.
bool SwitchFromEnv(const char* var, bool fallback);

/// Monotonic counter. Increment is lock-free: one relaxed load (the enable
/// gate) plus one relaxed fetch_add on the caller's stripe.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    stripes_[internal::ThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Merged value across all stripes (scrape-time only).
  uint64_t Value() const;
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  std::string name_;
  std::string help_;
  internal::Stripe stripes_[internal::kStripes];
};

/// Fixed-bucket histogram (latencies in seconds, sizes in elements).
/// Buckets are chosen at registration; observations are striped like
/// counters and merged on scrape. Bucket i counts values <= bounds[i];
/// the implicit final bucket catches everything above the last bound.
class Histogram {
 public:
  void Observe(double value);

  size_t num_buckets() const { return bounds_.size() + 1; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Merged per-bucket count (NOT cumulative; export cumulates).
  uint64_t BucketCount(size_t bucket) const;
  uint64_t TotalCount() const;
  double Sum() const;
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help, std::vector<double> bounds);

  struct Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};  // IEEE-754 bits, CAS-accumulated
  };

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  Shard shards_[internal::kStripes];
};

/// `count` exponentially spaced upper bounds starting at `start`
/// (start, start*factor, ...) — the standard latency-bucket ladder.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// RAII latency timer into a histogram. Reads the clock only when metrics
/// are enabled, so the disabled path stays at one relaxed load.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram)
      : histogram_(MetricsEnabled() ? histogram : nullptr),
        start_ns_(histogram_ != nullptr ? internal::MonotonicNowNs() : 0) {}
  ~ScopedLatency() {
    if (histogram_ != nullptr) {
      histogram_->Observe(
          static_cast<double>(internal::MonotonicNowNs() - start_ns_) * 1e-9);
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

/// Instrument registry. `Global()` is the process-wide instance every
/// subsystem registers into; tests build private instances to exercise
/// registration rules and export formats hermetically.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Abort on an invalid name or a name already registered (either kind):
  /// names are literals, so a failure is a typo or a copy-paste dup.
  Counter* RegisterCounter(const char* name, const char* help);
  /// Additionally aborts when `bounds` is empty, longer than 64 or not
  /// strictly increasing.
  Histogram* RegisterHistogram(const char* name, const char* help,
                               std::vector<double> bounds);

  /// `atpm_`-prefixed snake_case: atpm_[a-z0-9_]+.
  static bool ValidName(const char* name);

  /// Prometheus text exposition, instruments sorted by name.
  std::string ExportPrometheus();

 private:
  bool NameTaken(const std::string& name) const;  // caller holds mu_

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace atpm

#endif  // ATPM_COMMON_METRICS_H_
