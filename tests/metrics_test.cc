// Registry-level tests for the atpm_obs metrics layer: name validation and
// registration rules (a bad registration aborts), lock-free striped
// counters/histograms whose scrape-time merge is exact under concurrency,
// bucket boundary semantics, the Prometheus-text export golden, the global
// enable gate being a true no-op switch, and the on/off environment switch
// parse shared with the tracer.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace atpm {
namespace obs {
namespace {

// Every test leaves the process-wide enable gate on, however it exits.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMetricsEnabled(true); }
  void TearDown() override { SetMetricsEnabled(true); }
};

TEST_F(MetricsTest, NameValidationPinsTheExportSurface) {
  EXPECT_TRUE(MetricsRegistry::ValidName("atpm_rr_sets_generated_total"));
  EXPECT_TRUE(MetricsRegistry::ValidName("atpm_a1_total"));
  EXPECT_FALSE(MetricsRegistry::ValidName(nullptr));
  EXPECT_FALSE(MetricsRegistry::ValidName(""));
  EXPECT_FALSE(MetricsRegistry::ValidName("atpm_"));  // nothing after prefix
  EXPECT_FALSE(MetricsRegistry::ValidName("rr_sets_total"));  // no prefix
  EXPECT_FALSE(MetricsRegistry::ValidName("atpm_CamelCase"));
  EXPECT_FALSE(MetricsRegistry::ValidName("atpm_has-dash"));
  EXPECT_FALSE(MetricsRegistry::ValidName("atpm_has.dot"));
  const std::string at_limit = "atpm_" + std::string(115, 'a');
  EXPECT_TRUE(MetricsRegistry::ValidName(at_limit.c_str()));
  const std::string over_limit = at_limit + "a";
  EXPECT_FALSE(MetricsRegistry::ValidName(over_limit.c_str()));
}

// Registration errors are programmer errors (names are literals), so every
// one of them aborts. Each death runs in a forked child; the parent's
// registry keeps only the successful registrations.
TEST(MetricsDeathTest, RegistrationCollisionRules) {
  MetricsRegistry reg;
  ASSERT_NE(reg.RegisterCounter("atpm_test_col_total", "first"), nullptr);
  ASSERT_NE(reg.RegisterHistogram("atpm_test_col_seconds", "first", {1.0}),
            nullptr);
  // Duplicates are rejected across both instrument kinds, not just the
  // registering one.
  EXPECT_DEATH(reg.RegisterCounter("atpm_test_col_total", "dup"),
               "NameTaken");
  EXPECT_DEATH(reg.RegisterHistogram("atpm_test_col_total", "dup", {1.0}),
               "NameTaken");
  EXPECT_DEATH(reg.RegisterCounter("atpm_test_col_seconds", "dup"),
               "NameTaken");
  // Invalid names never register.
  // atpm-lint: allow(metrics-discipline)
  EXPECT_DEATH(reg.RegisterCounter("unprefixed_total", "bad"), "ValidName");
  // atpm-lint: allow(metrics-discipline)
  EXPECT_DEATH(reg.RegisterHistogram("atpm_Bad_Case", "bad", {1.0}),
               "ValidName");
  // A distinct valid name still registers.
  EXPECT_NE(reg.RegisterCounter("atpm_test_other_total", "ok"), nullptr);
}

TEST(MetricsDeathTest, HistogramBoundsValidation) {
  MetricsRegistry reg;
  EXPECT_DEATH(reg.RegisterHistogram("atpm_test_h0_seconds", "empty", {}),
               "bounds");
  EXPECT_DEATH(reg.RegisterHistogram("atpm_test_h1_seconds", "flat",
                                     {1.0, 1.0}),
               "bounds");
  EXPECT_DEATH(reg.RegisterHistogram("atpm_test_h2_seconds", "descending",
                                     {2.0, 1.0}),
               "bounds");
  // Strictly increasing, so only the length is at fault.
  std::vector<double> oversized(65);
  std::iota(oversized.begin(), oversized.end(), 1.0);
  EXPECT_DEATH(reg.RegisterHistogram("atpm_test_h3_seconds", "oversized",
                                     oversized),
               "bounds");
  oversized.pop_back();
  EXPECT_NE(reg.RegisterHistogram("atpm_test_h3_seconds", "at the limit",
                                  oversized),
            nullptr);
  EXPECT_NE(reg.RegisterHistogram("atpm_test_h4_seconds", "ok",
                                  {1.0, 2.0, 4.0}),
            nullptr);
}

TEST_F(MetricsTest, ExponentialBucketLadder) {
  const std::vector<double> bounds = ExponentialBuckets(1e-6, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 4e-6);
  EXPECT_DOUBLE_EQ(bounds[2], 1.6e-5);
  EXPECT_DOUBLE_EQ(bounds[3], 6.4e-5);
}

TEST_F(MetricsTest, CounterConcurrentShardMergeIsExact) {
  MetricsRegistry reg;
  Counter* counter = reg.RegisterCounter("atpm_test_conc_total", "x");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
      counter->Increment(7);
    });
  }
  for (std::thread& t : threads) t.join();
  // Striped relaxed adds merged on scrape lose nothing.
  EXPECT_EQ(counter->Value(), kThreads * (kPerThread + 7));
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreUpperInclusive) {
  MetricsRegistry reg;
  Histogram* h = reg.RegisterHistogram("atpm_test_bounds_seconds", "x",
                                       {1.0, 2.0, 4.0});
  ASSERT_EQ(h->num_buckets(), 4u);
  h->Observe(0.5);  // <= 1        -> bucket 0
  h->Observe(1.0);  // == bound    -> bucket 0 (le semantics)
  h->Observe(1.5);  //             -> bucket 1
  h->Observe(4.0);  // == last     -> bucket 2
  h->Observe(9.0);  // overflow    -> implicit +Inf bucket
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);
  EXPECT_EQ(h->TotalCount(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 16.0);
}

TEST_F(MetricsTest, HistogramConcurrentObserveIsExact) {
  MetricsRegistry reg;
  Histogram* h = reg.RegisterHistogram("atpm_test_conc_seconds", "x",
                                       {0.5, 1.5, 2.5, 3.5});
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h->Observe(static_cast<double>(i % 5));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h->TotalCount(), kThreads * kPerThread);
  for (size_t b = 0; b < h->num_buckets(); ++b) {
    EXPECT_EQ(h->BucketCount(b), kThreads * kPerThread / 5) << "bucket " << b;
  }
  // Integer-valued observations sum exactly in a double regardless of the
  // CAS interleaving order.
  EXPECT_DOUBLE_EQ(h->Sum(),
                   static_cast<double>(kThreads) * (kPerThread / 5) * 10.0);
}

TEST_F(MetricsTest, DisabledInstrumentsAreNoOps) {
  MetricsRegistry reg;
  Counter* counter = reg.RegisterCounter("atpm_test_gate_total", "x");
  Histogram* h = reg.RegisterHistogram("atpm_test_gate_seconds", "x", {1.0});
  SetMetricsEnabled(false);
  counter->Increment();
  h->Observe(0.5);
  { ScopedLatency latency(h); }
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(h->TotalCount(), 0u);
  SetMetricsEnabled(true);
  counter->Increment();
  EXPECT_EQ(counter->Value(), 1u);
  { ScopedLatency latency(h); }
  EXPECT_EQ(h->TotalCount(), 1u);
}

TEST_F(MetricsTest, ScopedLatencyObservesElapsedSeconds) {
  MetricsRegistry reg;
  Histogram* h = reg.RegisterHistogram("atpm_test_lat_seconds", "x",
                                       {1e-9, 3600.0});
  { ScopedLatency latency(h); }
  EXPECT_EQ(h->TotalCount(), 1u);
  EXPECT_GE(h->Sum(), 0.0);
  EXPECT_LT(h->Sum(), 60.0);  // sane elapsed time, not garbage bits
}

// A registry populated with deterministic values; the export is pinned
// byte for byte (sorted names, shortest round-trip doubles).
class ExportFixture {
 public:
  explicit ExportFixture(MetricsRegistry* reg) {
    Counter* requests =
        reg->RegisterCounter("atpm_test_requests_total", "Requests observed");
    requests->Increment(3);
    Histogram* latency = reg->RegisterHistogram("atpm_test_latency_seconds",
                                                "Latency", {1.0, 2.0});
    latency->Observe(0.5);
    latency->Observe(1.5);
    latency->Observe(8.0);
  }
};

TEST_F(MetricsTest, PrometheusExportGolden) {
  MetricsRegistry reg;
  ExportFixture fixture(&reg);
  const std::string expected =
      "# HELP atpm_test_requests_total Requests observed\n"
      "# TYPE atpm_test_requests_total counter\n"
      "atpm_test_requests_total 3\n"
      "# HELP atpm_test_latency_seconds Latency\n"
      "# TYPE atpm_test_latency_seconds histogram\n"
      "atpm_test_latency_seconds_bucket{le=\"1\"} 1\n"
      "atpm_test_latency_seconds_bucket{le=\"2\"} 2\n"
      "atpm_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "atpm_test_latency_seconds_sum 10\n"
      "atpm_test_latency_seconds_count 3\n";
  EXPECT_EQ(reg.ExportPrometheus(), expected);
}

TEST_F(MetricsTest, GlobalRegistryIsSingletonAndUsable) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
  // The export runs even mid-process with arbitrary subsystem
  // registrations present.
  EXPECT_NO_FATAL_FAILURE({ a.ExportPrometheus(); });
}

// ATPM_METRICS and ATPM_TRACE accept unset, empty, "0" and "1" only.
TEST_F(MetricsTest, EnvSwitchAcceptsOnlyUnsetEmptyZeroAndOne) {
  for (const bool fallback : {false, true}) {
    EXPECT_EQ(ParseSwitch(nullptr, fallback), fallback);
    EXPECT_EQ(ParseSwitch("", fallback), fallback);
    EXPECT_EQ(ParseSwitch("0", fallback), false);
    EXPECT_EQ(ParseSwitch("1", fallback), true);
    for (const char* typo : {"true", " 1", "2", "01"}) {
      EXPECT_EQ(ParseSwitch(typo, fallback), std::nullopt) << typo;
    }
  }
}

TEST(MetricsDeathTest, EnvSwitchTypoAbortsNamingTheVariable) {
  EXPECT_DEATH(
      {
        setenv("ATPM_TEST_SWITCH", "true", 1);
        SwitchFromEnv("ATPM_TEST_SWITCH", false);
      },
      "ATPM_TEST_SWITCH: expected 0 or 1, got 'true'");
  setenv("ATPM_TEST_SWITCH", "1", 1);
  EXPECT_TRUE(SwitchFromEnv("ATPM_TEST_SWITCH", false));
  unsetenv("ATPM_TEST_SWITCH");
  EXPECT_FALSE(SwitchFromEnv("ATPM_TEST_SWITCH", false));
}

}  // namespace
}  // namespace obs
}  // namespace atpm
