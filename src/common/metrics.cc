#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/logging.h"

namespace atpm {
namespace obs {

namespace internal {

std::atomic<bool> g_metrics_enabled{true};

uint32_t AssignStripe() {
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// ATPM_METRICS=0 turns the registry into pure relaxed-load no-ops before
/// main() runs (benchmark baselines, overhead probes).
const bool g_env_applied = [] {
  g_metrics_enabled.store(SwitchFromEnv("ATPM_METRICS", true),
                          std::memory_order_relaxed);
  return true;
}();

/// Accumulates a double into an IEEE-754 bit cell with a relaxed CAS loop
/// (portable stand-in for atomic<double>::fetch_add; contention is already
/// diluted by striping).
void AddDoubleBits(std::atomic<uint64_t>* cell, double delta) {
  uint64_t observed = cell->load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + delta;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (cell->compare_exchange_weak(observed, next_bits,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Shortest round-trippable decimal for export (stable across runs for
/// exactly representable values, which is what the golden tests feed it).
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shorter %g form when it round-trips.
  char shorter[64];
  std::snprintf(shorter, sizeof(shorter), "%g", value);
  double parsed = 0.0;
  if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == value) {
    return shorter;
  }
  return buf;
}

}  // namespace

}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::optional<bool> ParseSwitch(const char* value, bool fallback) {
  // Exact text, not a number parse: "01" or "+1" is a typo, not a 1.
  const std::string_view text = value != nullptr ? value : "";
  if (text.empty()) return fallback;
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

bool SwitchFromEnv(const char* var, bool fallback) {
  const char* value = std::getenv(var);
  const std::optional<bool> on = ParseSwitch(value, fallback);
  if (!on.has_value()) {
    std::fprintf(stderr, "%s: expected 0 or 1, got '%s'\n", var, value);
    std::abort();
  }
  return *on;
}

// ----------------------------------------------------------------- Counter

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::Stripe& stripe : stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)) {
  const size_t buckets = bounds_.size() + 1;
  for (Shard& shard : shards_) {
    shard.buckets = std::make_unique<std::atomic<uint64_t>[]>(buckets);
    for (size_t b = 0; b < buckets; ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
  Shard& shard = shards_[internal::ThreadStripe()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  internal::AddDoubleBits(&shard.sum_bits, value);
}

uint64_t Histogram::BucketCount(size_t bucket) const {
  if (bucket >= num_buckets()) return 0;
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += internal::BitsToDouble(
        shard.sum_bits.load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  ATPM_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

// ---------------------------------------------------------------- Registry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

bool MetricsRegistry::ValidName(const char* name) {
  if (name == nullptr) return false;
  const size_t len = std::strlen(name);
  if (len <= 5 || len > 120) return false;
  if (std::strncmp(name, "atpm_", 5) != 0) return false;
  for (size_t i = 0; i < len; ++i) {
    const char c = name[i];
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

bool MetricsRegistry::NameTaken(const std::string& name) const {
  for (const auto& c : counters_) {
    if (c->name() == name) return true;
  }
  for (const auto& h : histograms_) {
    if (h->name() == name) return true;
  }
  return false;
}

Counter* MetricsRegistry::RegisterCounter(const char* name,
                                          const char* help) {
  ATPM_CHECK(ValidName(name));
  std::lock_guard<std::mutex> lock(mu_);
  ATPM_CHECK(!NameTaken(name));
  counters_.emplace_back(new Counter(name, help != nullptr ? help : ""));
  return counters_.back().get();
}

Histogram* MetricsRegistry::RegisterHistogram(const char* name,
                                              const char* help,
                                              std::vector<double> bounds) {
  ATPM_CHECK(ValidName(name));
  ATPM_CHECK(!bounds.empty() && bounds.size() <= 64);
  for (size_t i = 1; i < bounds.size(); ++i) {
    ATPM_CHECK(bounds[i] > bounds[i - 1]);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ATPM_CHECK(!NameTaken(name));
  histograms_.emplace_back(new Histogram(
      name, help != nullptr ? help : "", std::move(bounds)));
  return histograms_.back().get();
}

namespace {

/// Snapshot views sorted by name for stable export (registration order
/// depends on static-init order, which must not leak into goldens).
template <typename T>
std::vector<const T*> SortedByName(const std::vector<std::unique_ptr<T>>& v) {
  std::vector<const T*> out;
  out.reserve(v.size());
  for (const auto& item : v) out.push_back(item.get());
  std::sort(out.begin(), out.end(), [](const T* a, const T* b) {
    return a->name() < b->name();
  });
  return out;
}

}  // namespace

std::string MetricsRegistry::ExportPrometheus() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Counter* c : SortedByName(counters_)) {
    out += "# HELP " + c->name() + " " + c->help() + "\n";
    out += "# TYPE " + c->name() + " counter\n";
    out += c->name() + " " + std::to_string(c->Value()) + "\n";
  }
  for (const Histogram* h : SortedByName(histograms_)) {
    out += "# HELP " + h->name() + " " + h->help() + "\n";
    out += "# TYPE " + h->name() + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h->bounds().size(); ++b) {
      cumulative += h->BucketCount(b);
      out += h->name() + "_bucket{le=\"" +
             internal::FormatDouble(h->bounds()[b]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += h->name() + "_bucket{le=\"+Inf\"} " +
           std::to_string(h->TotalCount()) + "\n";
    out += h->name() + "_sum " + internal::FormatDouble(h->Sum()) + "\n";
    out += h->name() + "_count " + std::to_string(h->TotalCount()) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace atpm
