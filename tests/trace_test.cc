// Tracer tests: spans are no-ops while disabled, nest with correct depth
// and annotations when enabled, survive ring wraparound with an honest
// dropped-event count, export loadable Chrome trace_event JSON, round-trip
// through the compact binary format, and — the contract the whole
// observability layer stands on — leave every sampling stream and adaptive
// decision bit-identical whether tracing/metrics are off or on.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/hatp.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

// ---- the same golden instance failpoint_test.cc pins; any drift here is
// an observability-layer determinism bug, not a new baseline.

Graph WcGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto s = pool.set(i);
    h = (h ^ s.size()) * 1099511628211ull;
    for (NodeId v : s) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

uint64_t PoolTotalNodes(const RRCollection& pool) {
  uint64_t total = 0;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) total += pool.set(i).size();
  return total;
}

constexpr uint64_t kGoldenPoolHash = 11827176579932382309ull;
constexpr uint64_t kGoldenPoolNodes = 9141u;

uint64_t SerialGoldenPoolHash() {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  Rng rng(77);
  const RRCollection& pool =
      FillPool(engine, nullptr, g.num_nodes(), 2000, &rng);
  EXPECT_EQ(pool.num_sets(), 2000u);
  EXPECT_EQ(PoolTotalNodes(pool), kGoldenPoolNodes);
  return PoolHash(pool);
}

uint64_t ParallelGoldenSeededCount() {
  const Graph g = WcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                4096);
  return CountOne(engine, 0, &base, nullptr, g.num_nodes(), 60000, 42);
}

Result<AdaptiveRunResult> RunGoldenHatp() {
  const Graph g = WcGraph();
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  HatpOptions hopt;
  HatpPolicy policy(hopt);
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  Rng rng(1);
  return policy.Run(selection.value().problem, &env, &rng);
}

void ExpectGoldenHatp(const Result<AdaptiveRunResult>& run) {
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 720744u);
  EXPECT_NEAR(run.value().realized_profit, 17.874342, 1e-4);
  std::vector<int> decisions;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    decisions.push_back(static_cast<int>(step.decision));
  }
  EXPECT_EQ(decisions, (std::vector<int>{0, 1, 0, 1, 2, 0, 1, 0, 1, 2}));
}

// Every test starts from a quiet, disabled tracer and restores the default
// observability state (metrics on, tracing off), however it exits.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(false);
    obs::ResetTrace();
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::ResetTrace();
    obs::SetMetricsEnabled(true);
    std::remove(TracePath().c_str());
  }

  std::string TracePath() const {
    return ::testing::TempDir() + "/atpm_trace_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".atrace";
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::TraceEnabled());
  {
    obs::TraceSpan span("quiet");
    span.AnnotateU64("k", 1);
  }
  EXPECT_TRUE(obs::CollectTraceEvents().empty());
  EXPECT_EQ(obs::DroppedTraceEvents(), 0u);
}

TEST_F(TraceTest, SpansNestWithDepthAndAnnotations) {
  obs::SetTraceEnabled(true);
  {
    obs::TraceSpan outer("outer");
    outer.AnnotateU64("theta", 7);
    {
      obs::TraceSpan inner("inner");
      inner.AnnotateU64("node", 3);
      inner.AnnotateU64("round", 1);
    }
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by (start, tid, depth): the enclosing span comes first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  ASSERT_EQ(events[0].num_args, 1u);
  EXPECT_STREQ(events[0].arg_keys[0], "theta");
  EXPECT_EQ(events[0].arg_values[0], 7u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[1].num_args, 2u);
  // The inner interval sits inside the outer one.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, AnnotationsBeyondCapacityAreDropped) {
  obs::SetTraceEnabled(true);
  {
    obs::TraceSpan span("args");
    for (uint64_t i = 0; i < 6; ++i) span.AnnotateU64("k", i);
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_args, obs::kMaxSpanArgs);
}

TEST_F(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  obs::SetTraceEnabled(true);
  constexpr uint64_t kExtra = 100;
  for (uint64_t i = 0; i < obs::kTraceRingCapacity + kExtra; ++i) {
    obs::TraceSpan span("wrap");
    span.AnnotateU64("i", i);
  }
  const std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  EXPECT_EQ(events.size(), obs::kTraceRingCapacity);
  EXPECT_EQ(obs::DroppedTraceEvents(), kExtra);
  // The survivors are the newest events, oldest-first.
  std::set<uint64_t> indices;
  for (const obs::TraceEvent& e : events) {
    ASSERT_EQ(e.num_args, 1u);
    indices.insert(e.arg_values[0]);
  }
  EXPECT_EQ(*indices.begin(), kExtra);
  EXPECT_EQ(*indices.rbegin(), obs::kTraceRingCapacity + kExtra - 1);

  obs::ResetTrace();
  EXPECT_TRUE(obs::CollectTraceEvents().empty());
  EXPECT_EQ(obs::DroppedTraceEvents(), 0u);
}

TEST_F(TraceTest, ChromeTraceJsonExport) {
  obs::SetTraceEnabled(true);
  {
    obs::TraceSpan span("alpha");
    span.AnnotateU64("theta", 7);
  }
  const std::string json = obs::ExportChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"theta\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(TraceSummaryTest, SelfTimeSubtractsDirectChildrenOnly) {
  // tid 1: root [0, 100) holds a [10, 40) (which holds a grandchild
  // [12, 17)) and b [50, 70); tid 2 has a depth-1 span inside root's time
  // range (another thread: not root's child) and its own root. A second
  // tid-1 root [200, 230) holds c [205, 215).
  const auto span = [](const char* name, uint32_t tid, uint32_t depth,
                       uint64_t start, uint64_t dur) {
    obs::OwnedTraceEvent event;
    event.name = name;
    event.tid = tid;
    event.depth = depth;
    event.start_ns = start;
    event.dur_ns = dur;
    return event;
  };
  const std::vector<obs::OwnedTraceEvent> events = {
      span("child", 1, 1, 50, 20),   span("root", 1, 0, 0, 100),
      span("grand", 1, 2, 12, 5),    span("child", 1, 1, 10, 30),
      span("other", 2, 1, 20, 7),    span("root", 2, 0, 15, 30),
      span("root", 1, 0, 200, 30),   span("child", 1, 1, 205, 10),
  };
  const std::vector<obs::SpanSummary> rows = obs::SummarizeSpans(events);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "child");
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_EQ(rows[0].total_ns, 60u);
  EXPECT_EQ(rows[0].self_ns, 55u);  // the grandchild leaves a's self time
  EXPECT_EQ(rows[0].max_ns, 30u);
  EXPECT_EQ(rows[1].name, "grand");
  EXPECT_EQ(rows[1].self_ns, 5u);
  EXPECT_EQ(rows[2].name, "other");
  EXPECT_EQ(rows[2].self_ns, 7u);
  EXPECT_EQ(rows[3].name, "root");
  EXPECT_EQ(rows[3].count, 3u);
  EXPECT_EQ(rows[3].total_ns, 160u);
  // tid 1: (100 - 30 - 20) + (30 - 10); tid 2: 30 - 7.
  EXPECT_EQ(rows[3].self_ns, 50u + 20u + 23u);
}

TEST_F(TraceTest, BinaryRoundTrip) {
  obs::SetTraceEnabled(true);
  {
    obs::TraceSpan outer("persist_outer");
    outer.AnnotateU64("a", 1);
    obs::TraceSpan inner("persist_inner");
    inner.AnnotateU64("b", 2);
    inner.AnnotateU64("c", 3);
  }
  const std::vector<obs::TraceEvent> live = obs::CollectTraceEvents();
  ASSERT_EQ(live.size(), 2u);
  ASSERT_TRUE(obs::WriteBinaryTrace(TracePath()).ok());

  std::vector<obs::OwnedTraceEvent> loaded;
  const Status read = obs::ReadBinaryTrace(TracePath(), &loaded);
  ASSERT_TRUE(read.ok()) << read.ToString();
  ASSERT_EQ(loaded.size(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const obs::OwnedTraceEvent& got = loaded[i];
    EXPECT_EQ(got.name, live[i].name);
    EXPECT_EQ(got.start_ns, live[i].start_ns);
    EXPECT_EQ(got.dur_ns, live[i].dur_ns);
    EXPECT_EQ(got.tid, live[i].tid);
    EXPECT_EQ(got.depth, live[i].depth);
    ASSERT_EQ(got.args.size(), live[i].num_args);
    for (size_t a = 0; a < got.args.size(); ++a) {
      EXPECT_EQ(got.args[a].first, live[i].arg_keys[a]);
      EXPECT_EQ(got.args[a].second, live[i].arg_values[a]);
    }
  }
  // The owned events render to the same Chrome JSON as the live ones.
  EXPECT_EQ(obs::ChromeTraceJsonFromOwned(loaded),
            obs::ExportChromeTraceJson());
}

TEST_F(TraceTest, BinaryReadRejectsCorruption) {
  obs::SetTraceEnabled(true);
  { obs::TraceSpan span("short_lived"); }
  ASSERT_TRUE(obs::WriteBinaryTrace(TracePath()).ok());
  std::vector<obs::OwnedTraceEvent> scratch;

  // Truncation.
  std::string bytes;
  {
    std::ifstream in(TracePath(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  {
    std::ofstream out(TracePath(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_FALSE(obs::ReadBinaryTrace(TracePath(), &scratch).ok());

  // Trailing garbage.
  {
    std::ofstream out(TracePath(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("junk", 4);
  }
  EXPECT_FALSE(obs::ReadBinaryTrace(TracePath(), &scratch).ok());

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::ofstream out(TracePath(), std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_FALSE(obs::ReadBinaryTrace(TracePath(), &scratch).ok());
}

// ---- bit-identity: the non-negotiable acceptance gate. The exact golden
// values pinned by failpoint_test.cc must hold with observability compiled
// in, disabled AND enabled — instruments never touch an RNG stream and
// never reorder work.

TEST_F(TraceTest, SerialPoolGoldenHoldsAcrossObservabilityStates) {
  obs::SetMetricsEnabled(true);
  ASSERT_FALSE(obs::TraceEnabled());
  EXPECT_EQ(SerialGoldenPoolHash(), kGoldenPoolHash);

  obs::SetTraceEnabled(true);
  EXPECT_EQ(SerialGoldenPoolHash(), kGoldenPoolHash);
  // The enabled run actually produced pool_fill spans.
  bool saw_pool_fill = false;
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    if (std::string(e.name) == "pool_fill") saw_pool_fill = true;
  }
  EXPECT_TRUE(saw_pool_fill);

  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(SerialGoldenPoolHash(), kGoldenPoolHash);
}

TEST_F(TraceTest, ParallelSeededCountGoldenHoldsAcrossObservabilityStates) {
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(ParallelGoldenSeededCount(), 809u);
  obs::SetTraceEnabled(true);
  EXPECT_EQ(ParallelGoldenSeededCount(), 809u);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(ParallelGoldenSeededCount(), 809u);
}

TEST_F(TraceTest, HatpDecisionSequenceGoldenHoldsWithTracingOnAndOff) {
  obs::SetMetricsEnabled(true);
  ASSERT_FALSE(obs::TraceEnabled());
  ExpectGoldenHatp(RunGoldenHatp());

  obs::SetTraceEnabled(true);
  ExpectGoldenHatp(RunGoldenHatp());
  // The traced run emitted the nested decision -> round span hierarchy.
  std::set<std::string> names;
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    names.insert(e.name);
  }
  EXPECT_TRUE(names.count("decision"));
  EXPECT_TRUE(names.count("round"));
  EXPECT_TRUE(names.count("pool_fill"));
  // And the mirrored process metrics moved: the global registry exports
  // the sampling and decision series by name.
  const std::string prom = obs::MetricsRegistry::Global().ExportPrometheus();
  EXPECT_NE(prom.find("atpm_rr_sets_generated_total"), std::string::npos);
  EXPECT_NE(prom.find("atpm_decisions_total"), std::string::npos);
  EXPECT_NE(prom.find("atpm_pool_fill_seconds_bucket"), std::string::npos);

  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  ExpectGoldenHatp(RunGoldenHatp());
}

}  // namespace
}  // namespace atpm
