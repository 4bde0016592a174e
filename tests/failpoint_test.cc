// Chaos suite for the fault-tolerant sampling substrate: deterministic
// failpoint injection (every registered site surfaces as a Status, never a
// crash), transient-fault retry absorption, crash-safe graph-store saves,
// run budgets (deadline / byte cap / cancellation) with graceful
// degradation telemetry, and golden bit-identity checks proving that the
// compiled-in-but-inactive machinery leaves every sampling stream
// untouched.
#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

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

// The pipelining-test instance: BA n=300 epn=2 weighted-cascade graph,
// top-10 degree-proportional targets, default (geometric-jump) kernels.
ProfitProblem GoldenProblem(const Graph& g) {
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return selection.value().problem;
}

Result<AdaptiveRunResult> RunGoldenPolicy(const Graph& g,
                                          const ProfitProblem& problem,
                                          AdaptivePolicy* policy) {
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  Rng rng(1);
  return policy->Run(problem, &env, &rng);
}

Result<AdaptiveRunResult> RunGoldenHatp(const Graph& g,
                                        const ProfitProblem& problem,
                                        const HatpOptions& hopt) {
  HatpPolicy policy(hopt);
  return RunGoldenPolicy(g, problem, &policy);
}

// Everything a run golden pins, as one comparable line: seeds, per-step
// decision:rounds (when `with_steps`), the effort totals, every degradation
// event, and the certified guarantee (doubles in hex, so equality is
// bit-exact).
std::string Fingerprint(const AdaptiveRunResult& r, bool with_steps) {
  std::ostringstream s;
  s << "seeds";
  for (NodeId v : r.seeds) s << ' ' << v;
  if (with_steps) {
    s << " | steps";
    for (const AdaptiveStepRecord& step : r.steps) {
      s << ' ' << static_cast<int>(step.decision) << ':' << step.rounds;
    }
  }
  s << " | rr " << r.total_rr_sets << " pools " << r.total_count_pools
    << " queries " << r.total_coverage_queries << " | events";
  for (const DegradationEvent& e : r.degradation_events) {
    s << ' ' << static_cast<int>(e.reason) << '/' << e.node << '/'
      << e.rounds_completed << '/' << e.requested_theta << '/'
      << e.achieved_theta;
  }
  s << " | eps " << std::hexfloat << r.effective_epsilon << " add "
    << r.achieved_additive_error << std::defaultfloat << " theta "
    << r.achieved_theta;
  return s.str();
}

// Every test leaves the process failpoint-free, however it exits.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override {
    failpoint::DisarmAll();
    std::remove(StorePath().c_str());
    std::remove(EdgePath().c_str());
  }

  std::string StorePath() const {
    return ::testing::TempDir() + "/atpm_failpoint_store_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".atpm";
  }
  std::string EdgePath() const {
    return ::testing::TempDir() + "/atpm_failpoint_edges_" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
};

// ---- Registry sanity.

TEST_F(FailpointTest, RegistryListsEveryDeclaredSite) {
  const std::vector<std::string> names = failpoint::RegisteredNames();
  const char* expected[] = {
      "alloc.pool_reserve",    "alloc.pool_append",
      "engine.serial_batch",   "engine.parallel_worker",
      "graph_store.open",      "graph_store.open.transient",
      "graph_store.mmap",      "graph_store.read",
      "graph_store.write",     "graph_store.fsync",
      "graph_store.rename",    "edge_list.open",
      "edge_list.read",        "edge_list.read.transient",
      "edge_list.write",
  };
  for (const char* name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name << " missing from the failpoint registry";
  }
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Arm("no.such.failpoint"));
}

TEST_F(FailpointTest, SpecGrammarParsesAndRejects) {
  EXPECT_TRUE(failpoint::ArmFromSpec(
                  "graph_store.write;edge_list.read=error@2:1")
                  .ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::ArmFromSpec("chaos:17:0.25").ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::ArmFromSpec("no.such.failpoint")
                  .IsInvalidArgument());
  EXPECT_TRUE(failpoint::ArmFromSpec("graph_store.write=frobnicate")
                  .IsInvalidArgument());
  EXPECT_TRUE(failpoint::ArmFromSpec("chaos:9:1.5").IsInvalidArgument());
  // Every number is one whole token: no sign, whitespace, empty token,
  // overflow or non-finite probability arms anything.
  for (const char* bad :
       {"chaos:1:nan", "chaos:1:", "chaos:-1:0.5", "graph_store.write@-1",
        "graph_store.write@ 3", "graph_store.write@1:-2",
        "graph_store.write@99999999999999999999999", "graph_store.write@",
        "graph_store.write="}) {
    EXPECT_TRUE(failpoint::ArmFromSpec(bad).IsInvalidArgument()) << bad;
    EXPECT_FALSE(failpoint::AnyArmed()) << bad;
  }
}

// ---- Golden bit-identity: the machinery is compiled in everywhere, but
// with nothing armed every sampling stream must match its golden bit for
// bit.

TEST_F(FailpointTest, InactiveSitesKeepSerialPoolGolden) {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  Rng rng(77);
  const RRCollection& pool =
      FillPool(engine, nullptr, g.num_nodes(), 2000, &rng);
  EXPECT_EQ(pool.num_sets(), 2000u);
  EXPECT_EQ(PoolTotalNodes(pool), 9495u);
  EXPECT_EQ(PoolHash(pool), 1546245911037872209ull);
}

TEST_F(FailpointTest, InactiveSitesKeepParallelSeededCountGolden) {
  const Graph g = WcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                4096);
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 60000, 42),
            817u);
}

TEST_F(FailpointTest, InactiveSitesKeepHatpRunGolden) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  EXPECT_EQ(problem.targets,
            (std::vector<NodeId>{2, 4, 7, 18, 17, 9, 8, 13, 5, 43}));

  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 152000u);
  EXPECT_NEAR(run.value().realized_profit, 13.425230, 1e-4);
  std::vector<int> decisions;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    decisions.push_back(static_cast<int>(step.decision));
  }
  EXPECT_EQ(decisions, (std::vector<int>{0, 1, 0, 0, 0, 0, 1, 2, 1, 2}));

  // A clean (unbudgeted, unfaulted) run certifies exactly what was asked.
  EXPECT_TRUE(run.value().degradation_events.empty());
  EXPECT_DOUBLE_EQ(run.value().effective_epsilon,
                   hopt.relative_error_threshold);
  EXPECT_GT(run.value().achieved_theta, 0u);
  EXPECT_GT(run.value().achieved_additive_error, 0.0);
}

// ---- Decision-loop goldens for every policy of the shared double-greedy
// driver: clean runs, RR-cap truncation, and pre-cancelled runs, all
// serial. The expected lines were captured from the three separate
// decision loops the driver replaced, then re-captured when the engine
// moved to chunk streams, when batched rounds began keeping counts, when
// kept-count HATP / HNTP moved to a fixed grid of sample sizes (the
// unbatched HATP line, the literal Algorithm 4 sampling, did not move), and
// when that grid's step fell from 2 to 5/4 and settled count walks began to
// stop early (the unbatched HATP and plain ADDATP lines did not move).

// Runs `algorithm` ("ADDATP", "HATP", "HNTP") on the golden instance and
// fingerprints the result (HNTP without steps: the pre-driver HNTP result
// carried none).
std::string GoldenFingerprint(const Graph& g, const ProfitProblem& problem,
                              const std::string& algorithm,
                              const SamplingOptions& sampling,
                              bool dynamic_threshold = false) {
  if (algorithm == "HNTP") {
    HatpOptions options;
    options.sampling = sampling;
    Rng rng(1);
    auto run = RunHntp(problem, options, &rng);
    return run.ok() ? Fingerprint(run.value(), false)
                    : run.status().ToString();
  }
  Result<AdaptiveRunResult> run = Status::Internal("unknown algorithm");
  if (algorithm == "ADDATP") {
    AddAtpOptions options;
    options.sampling = sampling;
    options.fail_on_budget_exhausted = false;
    options.dynamic_threshold = dynamic_threshold;
    // Large enough that the bar actually rises on this small instance.
    options.dynamic_epsilon = 1.0;
    AddAtpPolicy policy(options);
    run = RunGoldenPolicy(g, problem, &policy);
  } else if (algorithm == "HATP") {
    HatpOptions options;
    options.sampling = sampling;
    HatpPolicy policy(options);
    run = RunGoldenPolicy(g, problem, &policy);
  }
  return run.ok() ? Fingerprint(run.value(), true) : run.status().ToString();
}

SamplingOptions SerialSampling() {
  SamplingOptions sampling;
  return sampling;
}

TEST_F(FailpointTest, CleanRunGoldens) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  SamplingOptions unbatched = SerialSampling();
  unbatched.batched_rounds = false;
  EXPECT_EQ(GoldenFingerprint(g, problem, "ADDATP", SerialSampling()),
            "seeds 2 4 17 9 | steps 0:10 0:13 1:13 1:13 0:11 0:13 1:13 2:0 "
            "1:12 2:0 | rr 3097012 pools 98 queries 196 | events | eps 0x0p+0 "
            "add 0x1.6a09e667f3bccp+1 theta 91824");
  EXPECT_EQ(GoldenFingerprint(g, problem, "ADDATP", SerialSampling(),
                              /*dynamic_threshold=*/true),
            "seeds 2 7 18 17 9 | steps 0:10 1:8 0:13 0:13 0:11 0:13 1:12 2:0 "
            "1:11 2:0 | rr 2080356 pools 91 queries 182 | events | eps 0x0p+0 "
            "add 0x1.6a09e667f3bc8p+2 theta 15178");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HNTP", SerialSampling()),
            "seeds 2 18 43 | rr 290078 pools 272 queries 544 | events | eps "
            "0x1.999999999999ap-5 add 0x1.bf9b74aafefffp+1 theta 10700");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HATP", unbatched),
            "seeds 2 7 18 17 9 | steps 0:11 1:11 0:11 0:11 0:10 0:11 1:10 2:0 "
            "1:9 2:0 | rr 1292900 pools 168 queries 168 | events | eps "
            "0x1.999999999999ap-5 add 0x1p+0 theta 13875");
}

TEST_F(FailpointTest, RrCapTruncatedRunGoldens) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  SamplingOptions capped = SerialSampling();
  capped.max_rr_sets_per_decision = 20000;
  EXPECT_EQ(GoldenFingerprint(g, problem, "ADDATP", capped),
            "seeds 2 7 18 17 9 | steps 0:7 1:8 0:8 0:8 0:8 0:8 1:8 2:0 1:8 2:0 "
            "| rr 98757 pools 63 queries 126 | events 3/2/7/21007/10016 "
            "3/4/8/31763/15178 3/7/8/31763/15178 3/18/8/28136/13445 "
            "3/17/8/26519/12672 3/9/8/22790/10890 3/8/8/22370/10689 "
            "3/5/8/22370/10689 | eps 0x0p+0 add 0x1.fffffffffffffp+2 theta "
            "10016");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HATP", capped),
            "seeds 2 7 18 17 9 | steps 0:23 1:26 0:26 0:26 0:23 0:27 1:25 2:0 "
            "1:22 2:0 | rr 108526 pools 198 queries 396 | events "
            "3/4/26/22199/17759 3/7/26/22199/17759 3/18/26/21129/16903 "
            "3/9/27/23668/18934 | eps 0x1.999999999999ap-5 add "
            "0x1.154ee5b079fdep+2 theta 6160");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HNTP", capped),
            "seeds 2 17 9 43 | rr 161171 pools 248 queries 496 | events "
            "3/4/25/20899/16719 3/7/25/20899/16719 3/18/25/20899/16719 "
            "3/17/25/20899/16719 3/9/25/20899/16719 3/8/25/20899/16719 "
            "3/13/25/20899/16719 3/5/25/20899/16719 3/43/25/20899/16719 | eps "
            "0x1.999999999999ap-5 add 0x1.bf9b74aafefffp+1 theta 10700");
}

TEST_F(FailpointTest, PreCancelledRunGoldens) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  CancelToken cancel;
  cancel.Cancel();
  SamplingOptions cancelled = SerialSampling();
  cancelled.budget.cancel = &cancel;
  EXPECT_EQ(GoldenFingerprint(g, problem, "ADDATP", cancelled),
            "seeds | steps 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 | rr 0 "
            "pools 0 queries 0 | events 2/2/0/111/0 2/4/0/111/0 2/7/0/111/0 "
            "2/18/0/111/0 2/17/0/111/0 2/9/0/111/0 2/8/0/111/0 2/13/0/111/0 "
            "2/5/0/111/0 2/43/0/111/0 | eps 0x0p+0 add 0x1.2cp+8 theta 0");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HATP", cancelled),
            "seeds | steps 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 3:0 | rr 0 "
            "pools 0 queries 0 | events 2/2/0/77/0 2/4/0/77/0 2/7/0/77/0 "
            "2/18/0/77/0 2/17/0/77/0 2/9/0/77/0 2/8/0/77/0 2/13/0/77/0 "
            "2/5/0/77/0 2/43/0/77/0 | eps 0x1p+0 add 0x1.2cp+8 theta 0");
  EXPECT_EQ(GoldenFingerprint(g, problem, "HNTP", cancelled),
            "seeds | rr 0 pools 0 queries 0 | events 2/2/0/77/0 2/4/0/77/0 "
            "2/7/0/77/0 2/18/0/77/0 2/17/0/77/0 2/9/0/77/0 2/8/0/77/0 "
            "2/13/0/77/0 2/5/0/77/0 2/43/0/77/0 | eps 0x1p+0 add 0x1.2cp+8 "
            "theta 0");
}

// A serial engine that cancels `token` right after its `cancel_after`-th
// counting pool: a run budget tripping at an exact point between pools.
class CancelAfterCountsEngine final : public SamplingEngine {
 public:
  CancelAfterCountsEngine(const Graph& g, CancelToken* token,
                          uint64_t cancel_after)
      : inner_(g), token_(token), cancel_after_(cancel_after) {}

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override {
    return inner_.TryGeneratePool(removed, num_alive, count, rng);
  }
  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override {
    Result<uint64_t> sampled = inner_.TryCountCoverageBatchSeeded(
        batch, removed, num_alive, theta, seed);
    if (++calls_ == cancel_after_) token_->Cancel();
    return sampled;
  }
  void set_budget(BudgetGate* budget) override {
    SamplingEngine::set_budget(budget);
    inner_.set_budget(budget);
  }

  RRCollection& pool() override { return inner_.pool(); }
  void ResetPool() override { inner_.ResetPool(); }
  uint64_t total_edges_examined() const override {
    return inner_.total_edges_examined();
  }
  const Graph& graph() const override { return inner_.graph(); }
  DiffusionModel model() const override { return inner_.model(); }
  SamplingKernel kernel() const override { return inner_.kernel(); }
  uint32_t num_workers() const override { return 1; }
  std::string_view name() const override { return "cancel-after"; }

  /// What the sampling substrate actually drew.
  const SamplingStats& drawn() const { return inner_.stats(); }

 private:
  SerialSamplingEngine inner_;
  CancelToken* token_;
  uint64_t cancel_after_;
  uint64_t calls_ = 0;
};

TEST_F(FailpointTest, DegradedRoundsChargeWhatTheyDrew) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  // A cancel between an unbatched round's R1 and R2 leaves the round with
  // no usable estimate, but its pools were drawn and must be charged.
  for (const bool batched : {false, true}) {
    for (const uint64_t cancel_after : {1u, 3u}) {
      CancelToken cancel;
      CancelAfterCountsEngine engine(g, &cancel, cancel_after);
      HatpOptions hopt;
      hopt.sampling.batched_rounds = batched;
      hopt.sampling.budget.cancel = &cancel;
      HatpPolicy policy(hopt);
      policy.set_engine(&engine);
      auto run = RunGoldenPolicy(g, problem, &policy);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_FALSE(run.value().degradation_events.empty());
      EXPECT_EQ(run.value().total_rr_sets, engine.drawn().rr_sets_generated)
          << "batched=" << batched << " cancel_after=" << cancel_after;
      EXPECT_EQ(run.value().total_count_pools, engine.drawn().count_pools)
          << "batched=" << batched << " cancel_after=" << cancel_after;
    }
  }
  // A bad_alloc inside a parallel engine's count batch: the failed batch
  // drew no pool, so neither the run nor the engine may charge one.
  for (const uint64_t fire_at : {1u, 3u}) {
    failpoint::Spec spec;
    spec.action = failpoint::Action::kBadAlloc;
    spec.fire_at = fire_at;
    spec.count = 1;
    ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve", spec));
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 2);
    HatpPolicy policy(HatpOptions{});
    policy.set_engine(&engine);
    auto run = RunGoldenPolicy(g, problem, &policy);
    failpoint::DisarmAll();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run.value().degradation_events.empty());
    const SamplingStats& drawn = engine.stats();
    EXPECT_EQ(run.value().total_rr_sets, drawn.rr_sets_generated)
        << "fire_at=" << fire_at;
    EXPECT_EQ(run.value().total_count_pools, drawn.count_pools)
        << "fire_at=" << fire_at;
    EXPECT_EQ(run.value().total_coverage_queries, drawn.coverage_queries)
        << "fire_at=" << fire_at;
  }
}

// ---- Armed sites surface as Statuses; disarming restores the exact
// clean-run behavior.

TEST_F(FailpointTest, SerialEngineFaultsSurfaceAsStatus) {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  Rng rng(77);

  ASSERT_TRUE(failpoint::Arm("engine.serial_batch"));
  EXPECT_TRUE(engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng)
                  .IsInternal());
  EXPECT_EQ(engine.pool().num_sets(), 0u);
  CoverageQueryBatch batch;
  batch.Add(0);
  EXPECT_TRUE(
      engine.TryCountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(), 100,
                                         42)
          .status()
          .IsInternal());

  // Disarm + rerun from a fresh stream: bit-identical to the golden pool.
  failpoint::DisarmAll();
  Rng clean(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 2000, &clean).ok());
  EXPECT_EQ(PoolHash(engine.pool()), 1546245911037872209ull);
}

TEST_F(FailpointTest, AllocFailuresBecomeResourceExhausted) {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  Rng rng(77);

  ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve"));
  Status reserve = engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng);
  EXPECT_TRUE(reserve.IsResourceExhausted()) << reserve.ToString();
  EXPECT_EQ(engine.pool().num_sets(), 0u);

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("alloc.pool_append"));
  Status append = engine.TryGeneratePool(nullptr, g.num_nodes(), 100, &rng);
  EXPECT_TRUE(append.IsResourceExhausted()) << append.ToString();
}

TEST_F(FailpointTest, ParallelWorkerThrowIsContained) {
  const Graph g = WcGraph();
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                4096);
  Rng rng(77);
  ASSERT_TRUE(failpoint::Arm("engine.parallel_worker"));
  // Large enough to engage the worker pool: the exception crosses the
  // thread boundary as a Status, the process stays alive, and the engine
  // stays usable after disarming.
  Status fault = engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &rng);
  EXPECT_TRUE(fault.IsInternal()) << fault.ToString();

  failpoint::DisarmAll();
  engine.ResetPool();
  Rng clean(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &clean).ok());
  EXPECT_EQ(engine.pool().num_sets(), 20000u);
}

TEST_F(FailpointTest, FailedRestrictedFillKeepsEmptyRestrictedPool) {
  const Graph g = WcGraph();
  const std::vector<NodeId> targets = {2, 4, 7, 18};
  for (const char* site : {"alloc.pool_append", "engine.parallel_worker"}) {
    SCOPED_TRACE(site);
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                  4096);
    engine.pool().RestrictTo(targets);
    ASSERT_TRUE(failpoint::Arm(site));
    Rng rng(77);
    EXPECT_FALSE(
        engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &rng).ok());
    failpoint::DisarmAll();
    const RRCollection& pool = engine.pool();
    EXPECT_EQ(pool.num_sets(), 0u);
    EXPECT_EQ(pool.total_nodes(), 0u);
    ASSERT_NE(pool.members(), nullptr);
    EXPECT_EQ(pool.members()->Count(), targets.size());
    for (NodeId t : targets) EXPECT_TRUE(pool.members()->Test(t));

    // The restriction still holds for the next fill.
    Rng clean(77);
    ASSERT_TRUE(
        engine.TryGeneratePool(nullptr, g.num_nodes(), 20000, &clean).ok());
    EXPECT_EQ(pool.num_sets(), 20000u);
    for (uint64_t i = 0; i < pool.num_sets(); ++i) {
      for (NodeId v : pool.set(i)) EXPECT_TRUE(pool.members()->Test(v));
    }
  }
}

TEST_F(FailpointTest, ScheduledFailpointFiresOnExactHits) {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  failpoint::Spec spec;
  spec.fire_at = 3;
  spec.count = 1;
  ASSERT_TRUE(failpoint::Arm("engine.serial_batch", spec));
  Rng rng(77);
  for (int call = 1; call <= 4; ++call) {
    const Status s = engine.TryGeneratePool(nullptr, g.num_nodes(), 10, &rng);
    if (call == 3) {
      EXPECT_FALSE(s.ok()) << "call " << call;
    } else {
      EXPECT_TRUE(s.ok()) << "call " << call << ": " << s.ToString();
    }
  }
  EXPECT_EQ(failpoint::HitCount("engine.serial_batch"), 4u);
}

// ---- Graph-store IO: injected faults reject cleanly, saves are atomic,
// transient faults are absorbed by bounded retries.

TEST_F(FailpointTest, GraphStoreSaveFaultsLeaveNoFileBehind) {
  const Graph g = WcGraph(64);
  const std::string path = StorePath();
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  for (const char* site :
       {"graph_store.open", "graph_store.write", "graph_store.fsync",
        "graph_store.rename"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    const Status s = SaveGraphStore(g, path);
    EXPECT_TRUE(s.IsIOError()) << site << ": " << s.ToString();
    EXPECT_NE(::access(path.c_str(), F_OK), 0)
        << site << " left a partial store at the final path";
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0)
        << site << " leaked the temp file";
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(SaveGraphStore(g, path).ok());
  EXPECT_TRUE(LoadGraphStore(path).ok());
}

TEST_F(FailpointTest, FailedResaveLeavesExistingStoreIntact) {
  const std::string path = StorePath();
  const Graph original = WcGraph();
  ASSERT_TRUE(SaveGraphStore(original, path).ok());

  // Every failure mode of the re-save must leave the published store
  // byte-identical — the temp-file + rename protocol never exposes a torn
  // write at the final path.
  Rng rng(11);
  BarabasiAlbertOptions big;
  big.num_nodes = 400;
  big.edges_per_node = 3;
  Graph other = GenerateBarabasiAlbert(big, &rng).value();
  ApplyWeightedCascade(&other);
  for (const char* site :
       {"graph_store.write", "graph_store.fsync", "graph_store.rename"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    EXPECT_FALSE(SaveGraphStore(other, path).ok()) << site;
    failpoint::DisarmAll();
    Result<Graph> loaded = LoadGraphStore(path);
    ASSERT_TRUE(loaded.ok()) << site << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_nodes(), original.num_nodes()) << site;
    EXPECT_EQ(loaded.value().num_edges(), original.num_edges()) << site;
  }
}

TEST_F(FailpointTest, GraphStoreLoadFaultsRejectCleanly) {
  const std::string path = StorePath();
  ASSERT_TRUE(SaveGraphStore(WcGraph(64), path).ok());
  for (const char* site :
       {"graph_store.open", "graph_store.mmap", "graph_store.read"}) {
    failpoint::DisarmAll();
    ASSERT_TRUE(failpoint::Arm(site));
    const Status s = LoadGraphStore(path).status();
    EXPECT_TRUE(s.IsIOError()) << site << ": " << s.ToString();
  }
  failpoint::DisarmAll();
  EXPECT_TRUE(LoadGraphStore(path).ok());
}

TEST_F(FailpointTest, TransientOpenFaultsAreRetriedAway) {
  const std::string path = StorePath();
  ASSERT_TRUE(SaveGraphStore(WcGraph(64), path).ok());

  failpoint::Spec three;
  three.action = failpoint::Action::kTransient;
  three.count = 3;
  ASSERT_TRUE(failpoint::Arm("graph_store.open.transient", three));
  EXPECT_TRUE(LoadGraphStore(path).ok());
  // Three simulated faults plus the clean fourth consult.
  EXPECT_EQ(failpoint::HitCount("graph_store.open.transient"), 4u);

  // An unbounded transient schedule exhausts the retry budget and turns
  // into a hard IOError instead of spinning.
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("graph_store.open.transient"));
  const Status s = LoadGraphStore(path).status();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find("retry budget"), std::string::npos);
}

// ---- Edge-list IO.

TEST_F(FailpointTest, EdgeListIoFaultsSurfaceAndTransientsAbsorb) {
  const Graph g = WcGraph(64);
  const std::string path = EdgePath();
  ASSERT_TRUE(SaveEdgeList(g, path).ok());

  ASSERT_TRUE(failpoint::Arm("edge_list.open"));
  EXPECT_TRUE(LoadEdgeList(path).status().IsIOError());
  EXPECT_TRUE(SaveEdgeList(g, path + ".second").IsIOError());
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.read"));
  EXPECT_TRUE(LoadEdgeList(path).status().IsIOError());
  failpoint::DisarmAll();

  failpoint::Spec two;
  two.action = failpoint::Action::kTransient;
  two.count = 2;
  ASSERT_TRUE(failpoint::Arm("edge_list.read.transient", two));
  Result<Graph> absorbed = LoadEdgeList(path);
  ASSERT_TRUE(absorbed.ok()) << absorbed.status().ToString();
  EXPECT_EQ(absorbed.value().num_edges(), g.num_edges());
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.read.transient"));
  const Status exhausted = LoadEdgeList(path).status();
  ASSERT_TRUE(exhausted.IsIOError()) << exhausted.ToString();
  EXPECT_NE(exhausted.ToString().find("retry budget"), std::string::npos);
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::Arm("edge_list.write"));
  EXPECT_TRUE(SaveEdgeList(g, path + ".second").IsIOError());
  std::remove((path + ".second").c_str());
}

// ---- Policy-level containment and degradation.

TEST_F(FailpointTest, HatpPropagatesHardEngineFaults) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  ASSERT_TRUE(failpoint::Arm("engine.serial_batch"));
  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  EXPECT_TRUE(run.status().IsInternal()) << run.status().ToString();
}

TEST_F(FailpointTest, HatpAbsorbsInjectedAllocFailure) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);

  // One bad_alloc on the second counting pool: the decision in flight is
  // concluded on the rounds it already completed, the event is recorded,
  // and the run still finishes.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kBadAlloc;
  spec.fire_at = 2;
  spec.count = 1;
  ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve", spec));
  HatpOptions hopt;
  auto run = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().degradation_events.size(), 1u);
  EXPECT_EQ(run.value().degradation_events[0].reason,
            DegradationReason::kAllocFailure);
  EXPECT_EQ(run.value().budget_exhausted_decisions +
                run.value().budget_truncated_decisions,
            1u);
  // The weakened guarantee is reported, not hidden: the forced decision
  // stood on an earlier round's (looser) error pair.
  EXPECT_GE(run.value().effective_epsilon, hopt.relative_error_threshold);
}

// Forwards every call to `inner` and records each count's θ. It can drop
// the batch's plan of later rounds, and cancel `cancel` just before its
// `cancel_at`-th count.
class CountProbeEngine final : public SamplingEngine {
 public:
  explicit CountProbeEngine(SamplingEngine* inner) : inner_(inner) {}

  bool strip_plan = false;
  CancelToken* cancel = nullptr;
  uint64_t cancel_at = 0;
  /// θ of every count call, in call order.
  std::vector<uint64_t> thetas;

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override {
    return inner_->TryGeneratePool(removed, num_alive, count, rng);
  }
  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override {
    thetas.push_back(theta);
    if (cancel != nullptr && thetas.size() == cancel_at) cancel->Cancel();
    if (!strip_plan) {
      return inner_->TryCountCoverageBatchSeeded(batch, removed, num_alive,
                                                 theta, seed);
    }
    CoverageQueryBatch bare;
    for (const CoverageQuery& query : batch->queries()) {
      bare.Add(query.node, query.base);
    }
    Result<uint64_t> sampled = inner_->TryCountCoverageBatchSeeded(
        &bare, removed, num_alive, theta, seed);
    std::copy(bare.hits().begin(), bare.hits().end(), batch->hit_data());
    return sampled;
  }
  void set_budget(BudgetGate* budget) override {
    SamplingEngine::set_budget(budget);
    inner_->set_budget(budget);
  }
  RRCollection& pool() override { return inner_->pool(); }
  void ResetPool() override { inner_->ResetPool(); }
  uint64_t total_edges_examined() const override {
    return inner_->total_edges_examined();
  }
  const Graph& graph() const override { return inner_->graph(); }
  DiffusionModel model() const override { return inner_->model(); }
  SamplingKernel kernel() const override { return inner_->kernel(); }
  uint32_t num_workers() const override { return inner_->num_workers(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  SamplingEngine* inner_;
};

// An armed failpoint turns the count stream's run-ahead off, so a 4-worker
// kept-count HATP run claims exactly the 1-worker run's chunks: a fault on
// a planned round's chunk fires at the same hit, fails the same round, and
// leaves the same accounting. The faulted round has one chunk, so which
// worker claims it cannot move the draws either.
TEST_F(FailpointTest, ParallelWorkerFaultOnPlannedRoundMatchesOneWorker) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  // The clean run's counts: fault the first chunk of the last later round
  // that is one chunk long, so that earlier decisions ended with planned
  // rounds left (whose chunks a run-ahead would have claimed).
  std::vector<uint64_t> thetas;
  {
    SerialSamplingEngine serial(g);
    CountProbeEngine probe(&serial);
    HatpPolicy policy(HatpOptions{});
    policy.set_engine(&probe);
    ASSERT_TRUE(RunGoldenPolicy(g, problem, &policy).ok());
    thetas = probe.thetas;
  }
  uint64_t fire_at = 0;
  uint64_t hits = 0;
  for (size_t i = 1; i < thetas.size(); ++i) {
    hits += (thetas[i - 1] + chunk - 1) / chunk;
    if (thetas[i] > 0 && thetas[i] <= chunk && thetas[i] < thetas[i - 1]) {
      fire_at = hits + 1;
    }
  }
  ASSERT_GT(fire_at, 0u) << "no one-chunk top-up in the run";

  std::vector<Status> statuses;
  std::vector<SamplingStats> drawn;
  std::vector<uint64_t> fired;
  for (uint32_t workers : {1u, 4u}) {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                  workers, /*min_parallel_batch=*/1);
    HatpPolicy policy(HatpOptions{});
    policy.set_engine(&engine);
    failpoint::Spec spec;
    spec.fire_at = fire_at;
    spec.count = 1;
    ASSERT_TRUE(failpoint::Arm("engine.parallel_worker", spec));
    auto run = RunGoldenPolicy(g, problem, &policy);
    fired.push_back(failpoint::HitCount("engine.parallel_worker"));
    failpoint::DisarmAll();
    statuses.push_back(run.status());
    drawn.push_back(engine.stats());
  }
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
  }
  // The message names the backend ("serial" / "parallel sampling: ...").
  const std::string one = statuses[0].ToString();
  const std::string four = statuses[1].ToString();
  EXPECT_EQ(one.substr(one.find("sampling")),
            four.substr(four.find("sampling")));
  EXPECT_EQ(fired[0], fire_at);
  EXPECT_EQ(fired[1], fired[0]);
  ExpectSameStats(drawn[1], drawn[0]);
}

// An installed BudgetGate turns run-ahead off as well: a cancel landing
// inside a planned round truncates the run exactly as an unplanned one, at
// one worker and at four.
TEST_F(FailpointTest, CancelledBudgetTruncatesPlannedRunsAsUnplanned) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  for (const uint64_t cancel_at : {2u, 5u}) {
    std::vector<std::string> prints;
    std::vector<SamplingStats> drawn;
    for (uint32_t workers : {1u, 4u}) {
      for (bool strip_plan : {false, true}) {
        CancelToken cancel;
        ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                      workers, /*min_parallel_batch=*/1);
        CountProbeEngine probe(&engine);
        probe.strip_plan = strip_plan;
        probe.cancel = &cancel;
        probe.cancel_at = cancel_at;
        HatpOptions hopt;
        hopt.sampling.budget.cancel = &cancel;
        HatpPolicy policy(hopt);
        policy.set_engine(&probe);
        auto run = RunGoldenPolicy(g, problem, &policy);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_FALSE(run.value().degradation_events.empty());
        prints.push_back(Fingerprint(run.value(), /*with_steps=*/true));
        drawn.push_back(engine.stats());
      }
    }
    for (size_t i = 1; i < prints.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "cancel_at " << cancel_at << " run " << i);
      EXPECT_EQ(prints[i], prints[0]);
      ExpectSameStats(drawn[i], drawn[0]);
    }
  }
}

TEST_F(FailpointTest, DeadlineBudgetedHatpTerminatesWithinTwiceBudget) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  HatpOptions hopt;

  // Baseline the unbudgeted run, then grant a quarter of that: the
  // deadline must trip mid-run, and the run must still return within 2x
  // the granted wall-clock (the ISSUE acceptance bound).
  const auto baseline_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(RunGoldenHatp(g, problem, hopt).ok());
  const double baseline_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    baseline_start)
          .count();

  const double deadline = std::max(baseline_seconds / 4.0, 0.001);
  hopt.sampling.budget.deadline_seconds = deadline;
  const auto start = std::chrono::steady_clock::now();
  auto run = RunGoldenHatp(g, problem, hopt);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_LE(elapsed, 2.0 * deadline)
      << "budget " << deadline << "s, ran " << elapsed << "s";

  // Telemetry names what was given up.
  ASSERT_FALSE(run.value().degradation_events.empty());
  EXPECT_EQ(run.value().degradation_events[0].reason,
            DegradationReason::kDeadline);
  EXPECT_GE(run.value().effective_epsilon, hopt.relative_error_threshold);
  EXPECT_EQ(run.value().steps.size(), problem.targets.size());
}

TEST_F(FailpointTest, PreCancelledRunDecidesBlindAndDeterministically) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  CancelToken cancel;
  cancel.Cancel();
  HatpOptions hopt;
  hopt.sampling.budget.cancel = &cancel;

  auto first = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const AdaptiveRunResult& r = first.value();
  // Zero evidence: no sampling happened, nothing was selected, and the
  // vacuous guarantee is reported explicitly instead of implied.
  EXPECT_TRUE(r.seeds.empty());
  EXPECT_EQ(r.total_rr_sets, 0u);
  EXPECT_EQ(r.degradation_events.size(), problem.targets.size());
  for (const DegradationEvent& event : r.degradation_events) {
    EXPECT_EQ(event.reason, DegradationReason::kCancelled);
    EXPECT_EQ(event.rounds_completed, 0u);
  }
  EXPECT_DOUBLE_EQ(r.effective_epsilon, 1.0);
  EXPECT_EQ(r.achieved_theta, 0u);
  for (const AdaptiveStepRecord& step : r.steps) {
    EXPECT_EQ(step.decision, SeedDecision::kBudgetExhausted);
  }

  // Degraded runs are as deterministic as clean ones.
  auto second = RunGoldenHatp(g, problem, hopt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().seeds, r.seeds);
  EXPECT_EQ(second.value().degradation_events.size(),
            r.degradation_events.size());

  // HNTP rides the same planner plumbing.
  Rng rng(1);
  auto hntp = RunHntp(problem, hopt, &rng);
  ASSERT_TRUE(hntp.ok()) << hntp.status().ToString();
  EXPECT_TRUE(hntp.value().seeds.empty());
  EXPECT_EQ(hntp.value().total_rr_sets, 0u);
  EXPECT_DOUBLE_EQ(hntp.value().effective_epsilon, 1.0);
  EXPECT_EQ(hntp.value().degradation_events.size(), problem.targets.size());
}

TEST_F(FailpointTest, PoolByteCapTruncatesGeneratePool) {
  const Graph g = WcGraph();
  SerialSamplingEngine engine(g);
  RunBudget budget;
  budget.rr_pool_byte_cap = 2048;
  BudgetGate gate(budget);
  ScopedEngineBudget scoped(&engine, &gate);
  ASSERT_TRUE(scoped.armed());

  Rng rng(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 100000, &rng).ok());
  // The cap stopped generation at a batch boundary: far fewer sets than
  // requested, but every stored set is whole.
  EXPECT_GT(engine.pool().num_sets(), 0u);
  EXPECT_LT(engine.pool().num_sets(), 100000u);
  EXPECT_EQ(gate.Exhausted(), BudgetStop::kPoolBytes);
}

// A restricted fill charges the byte cap only for what it stores: member
// node ids plus one size per RR set drawn, empty sets included. So it
// draws more sets than an unrestricted fill under the same cap, and the
// sets it keeps are the first num_sets() of an uncapped restricted fill.
TEST_F(FailpointTest, PoolByteCapChargesOnlyStoredEntriesOfRestrictedFill) {
  const Graph g = WcGraph();
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < g.num_nodes(); v += 5) targets.push_back(v);
  RunBudget budget;
  budget.rr_pool_byte_cap = 2048;
  const auto capped_fill = [&](SerialSamplingEngine* engine) {
    BudgetGate gate(budget);
    ScopedEngineBudget scoped(engine, &gate);
    EXPECT_TRUE(scoped.armed());
    Rng rng(77);
    EXPECT_TRUE(
        engine->TryGeneratePool(nullptr, g.num_nodes(), 100000, &rng).ok());
    EXPECT_EQ(gate.Exhausted(), BudgetStop::kPoolBytes);
    return gate.pool_bytes();
  };

  SerialSamplingEngine full(g);
  const uint64_t full_bytes = capped_fill(&full);
  SerialSamplingEngine restricted(g);
  restricted.pool().RestrictTo(targets);
  const uint64_t restricted_bytes = capped_fill(&restricted);

  const RRCollection& pool = restricted.pool();
  EXPECT_EQ(restricted_bytes, pool.total_nodes() * sizeof(NodeId) +
                                  pool.num_sets() * sizeof(uint64_t));
  EXPECT_EQ(full_bytes, full.pool().total_nodes() * sizeof(NodeId) +
                            full.pool().num_sets() * sizeof(uint64_t));
  EXPECT_GT(pool.num_sets(), full.pool().num_sets());
  EXPECT_LT(pool.num_sets(), 100000u);
  EXPECT_EQ(restricted.stats().rr_sets_generated, pool.num_sets());

  SerialSamplingEngine uncapped(g);
  uncapped.pool().RestrictTo(targets);
  Rng rng(77);
  ASSERT_TRUE(
      uncapped.TryGeneratePool(nullptr, g.num_nodes(), 100000, &rng).ok());
  ASSERT_EQ(uncapped.pool().num_sets(), 100000u);
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto kept = pool.set(i);
    const auto want = uncapped.pool().set(i);
    ASSERT_TRUE(std::equal(kept.begin(), kept.end(), want.begin(),
                           want.end()))
        << "set " << i;
  }
}

// ---- Chaos mode: every registered site armed on one seeded pseudo-random
// schedule. Any outcome is acceptable except a crash or an unregistered
// error — and the same seed must reproduce the same outcome exactly.

// The chaos schedule's seed: ATPM_CHAOS_SEED, or a fixed default.
uint64_t ChaosSeed() {
  uint64_t chaos_seed = 20260808;
  if (const char* env = std::getenv("ATPM_CHAOS_SEED")) {
    chaos_seed = std::strtoull(env, nullptr, 10);
  }
  return chaos_seed;
}

TEST_F(FailpointTest, ChaosScheduleIsReproducibleAndContained) {
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  const uint64_t chaos_seed = ChaosSeed();
  // Echoed so a CI failure names the schedule to replay.
  std::printf("[ chaos ] ATPM_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(chaos_seed));

  HatpOptions hopt;
  for (uint64_t trial = 0; trial < 3; ++trial) {
    const uint64_t seed = chaos_seed + trial;
    failpoint::DisarmAll();
    failpoint::ArmChaos(seed, 0.02);
    auto first = RunGoldenHatp(g, problem, hopt);
    if (!first.ok()) {
      // Injected faults may only surface through registered channels.
      EXPECT_TRUE(first.status().IsInternal() ||
                  first.status().IsIOError() ||
                  first.status().IsResourceExhausted())
          << "seed " << seed << ": " << first.status().ToString();
    }

    failpoint::DisarmAll();
    failpoint::ArmChaos(seed, 0.02);
    auto second = RunGoldenHatp(g, problem, hopt);
    ASSERT_EQ(first.ok(), second.ok()) << "seed " << seed;
    if (first.ok()) {
      EXPECT_EQ(first.value().seeds, second.value().seeds)
          << "seed " << seed;
      EXPECT_EQ(first.value().total_rr_sets, second.value().total_rr_sets)
          << "seed " << seed;
      EXPECT_EQ(first.value().degradation_events.size(),
                second.value().degradation_events.size())
          << "seed " << seed;
    } else {
      EXPECT_EQ(first.status().code(), second.status().code())
          << "seed " << seed;
    }
  }
  failpoint::DisarmAll();

  // Chaos armed, chaos disarmed: back to the golden stream.
  SerialSamplingEngine engine(g);
  Rng rng(77);
  ASSERT_TRUE(
      engine.TryGeneratePool(nullptr, g.num_nodes(), 2000, &rng).ok());
  EXPECT_EQ(PoolHash(engine.pool()), 1546245911037872209ull);
}

// Chaos arms every site, so even a 4-worker engine runs no chunk ahead.
TEST_F(FailpointTest, ChaosScheduleKeepsRunAheadOff) {
  obs::SetMetricsEnabled(true);
  const Graph g = WcGraph();
  const ProfitProblem problem = GoldenProblem(g);
  const uint64_t before = DiscardedStreamChunks();
  failpoint::ArmChaos(ChaosSeed(), 0.02);
  {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                  /*min_parallel_batch=*/1);
    HatpPolicy policy(HatpOptions{});
    policy.set_engine(&engine);
    auto run = RunGoldenPolicy(g, problem, &policy);
    (void)run;
  }
  failpoint::DisarmAll();
  EXPECT_EQ(DiscardedStreamChunks(), before);
}

}  // namespace
}  // namespace atpm
