#include "core/nonadaptive_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "im/imm.h"

namespace atpm {
namespace {

ProfitProblem MakeProblem(const Graph& g, std::vector<NodeId> targets,
                          std::vector<double> target_costs) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.targets = std::move(targets);
  problem.costs.assign(g.num_nodes(), 0.0);
  for (size_t i = 0; i < problem.targets.size(); ++i) {
    problem.costs[problem.targets[i]] = target_costs[i];
  }
  return problem;
}

TEST(NsgTest, PicksProfitableHubFirst) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 3, 4}, {5.0, 0.5, 0.5});
  Rng rng(1);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().seeds.empty());
  EXPECT_EQ(result.value().seeds[0], 0u);
  EXPECT_EQ(result.value().num_rr_sets, 20000u);
}

TEST(NsgTest, StopsWhenMarginalProfitNonPositive) {
  // Every node has spread 1; costs exceed 1, so nothing is selected.
  const Graph g = MakeCompleteGraph(20, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, {2.0, 2.0, 2.0});
  Rng rng(2);
  Result<NonadaptiveResult> result = RunNsg(problem, 5000, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().seeds.empty());
  EXPECT_DOUBLE_EQ(result.value().estimated_profit, 0.0);
}

TEST(NsgTest, RespectsTargetRestriction) {
  // The hub is not a target; NSG must pick among leaves only.
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {3, 4}, {0.5, 0.5});
  Rng rng(3);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  for (NodeId s : result.value().seeds) {
    EXPECT_TRUE(s == 3 || s == 4);
  }
}

TEST(NsgTest, AccountsForOverlapBetweenSeeds) {
  // Two hubs with identical reach: after the first, the second's marginal
  // is tiny and should not beat its cost.
  GraphBuilder builder;
  for (NodeId v = 2; v < 30; ++v) {
    builder.AddEdge(0, v, 1.0);
    builder.AddEdge(1, v, 1.0);
  }
  Graph g = builder.Build().value();
  ProfitProblem problem = MakeProblem(g, {0, 1}, {5.0, 5.0});
  Rng rng(4);
  Result<NonadaptiveResult> result = RunNsg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().seeds.size(), 1u);
}

TEST(NsgTest, RejectsZeroSampleSize) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {0.1});
  Rng rng(5);
  EXPECT_FALSE(RunNsg(problem, 0, &rng).ok());
}

TEST(NsgTest, EstimatedProfitConsistentWithSelection) {
  const Graph g = MakeStarGraph(40, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2}, {3.0, 0.2});
  Rng rng(6);
  Result<NonadaptiveResult> result = RunNsg(problem, 50000, &rng);
  ASSERT_TRUE(result.ok());
  // E[I({0,2})] ~ 1 + 39*0.5 + ~1 = ~21.5; costs 3.2.
  EXPECT_NEAR(result.value().estimated_profit, 21.5 - 3.2, 1.5);
}

TEST(NdgTest, KeepsProfitableDropsOverpriced) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 3}, {5.0, 30.0});
  Rng rng(7);
  Result<NonadaptiveResult> result = RunNdg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
}

TEST(NdgTest, ExaminesTargetsInProblemOrder) {
  // Both nodes profitable and independent: both kept, in order.
  const Graph g = MakeCompleteGraph(10, 0.0);
  ProfitProblem problem = MakeProblem(g, {4, 2}, {0.1, 0.1});
  Rng rng(8);
  Result<NonadaptiveResult> result = RunNdg(problem, 5000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 2u);
  EXPECT_EQ(result.value().seeds[0], 4u);
  EXPECT_EQ(result.value().seeds[1], 2u);
}

TEST(NdgTest, RearComparisonDropsRedundantTwin) {
  // Twin hubs: double greedy keeps the first, drops the second (its
  // front marginal collapses once the first is in S).
  GraphBuilder builder;
  for (NodeId v = 2; v < 30; ++v) {
    builder.AddEdge(0, v, 1.0);
    builder.AddEdge(1, v, 1.0);
  }
  Graph g = builder.Build().value();
  ProfitProblem problem = MakeProblem(g, {0, 1}, {5.0, 5.0});
  Rng rng(9);
  Result<NonadaptiveResult> result = RunNdg(problem, 20000, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
}

TEST(NdgTest, DeterministicGivenSeed) {
  const Graph g = MakeStarGraph(30, 0.4);
  ProfitProblem problem = MakeProblem(g, {0, 5, 9}, {3.0, 0.5, 0.5});
  Rng rng_a(10);
  Rng rng_b(10);
  Result<NonadaptiveResult> a = RunNdg(problem, 10000, &rng_a);
  Result<NonadaptiveResult> b = RunNdg(problem, 10000, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
}

TEST(NsgNdgTest, MoreSamplesDoNotChangeEasyDecisions) {
  // Fig. 9's finding: once the pool is large enough, profit stabilizes.
  const Graph g = MakeStarGraph(60, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 2, 3}, {10.0, 0.2, 0.2});
  Rng rng_small(11);
  Rng rng_large(11);
  Result<NonadaptiveResult> small = RunNsg(problem, 20000, &rng_small);
  Result<NonadaptiveResult> large = RunNsg(problem, 160000, &rng_large);
  ASSERT_TRUE(small.ok() && large.ok());
  std::vector<NodeId> s = small.value().seeds;
  std::vector<NodeId> l = large.value().seeds;
  std::sort(s.begin(), s.end());
  std::sort(l.begin(), l.end());
  EXPECT_EQ(s, l);
}

TEST(NsgNdgTest, ValidateProblemFailures) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem bad = MakeProblem(g, {0, 0}, {1.0, 1.0});
  Rng rng(12);
  EXPECT_FALSE(RunNsg(bad, 100, &rng).ok());
  EXPECT_FALSE(RunNdg(bad, 100, &rng).ok());
}

// ---- Pins: NSG and NDG on a fixed instance and seed, captured from
// pools that stored every node of every RR set. A pool restricted to the
// targets must reproduce them bit for bit, at any thread count.

Graph PinGraph() {
  Rng rng(21);
  BarabasiAlbertOptions options;
  options.num_nodes = 2000;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

// Every fifth node is a target, priced 4 to 10.
ProfitProblem PinProblem(const Graph& g) {
  std::vector<NodeId> targets;
  std::vector<double> costs;
  for (NodeId t = 0; t < g.num_nodes(); t += 5) {
    targets.push_back(t);
    costs.push_back(4.0 + 2.0 * static_cast<double>(t % 4));
  }
  return MakeProblem(g, std::move(targets), std::move(costs));
}

// Seeds, pool size and the estimated profit (in hex, so equality is
// bit-exact) as one comparable line.
std::string Fingerprint(const NonadaptiveResult& r) {
  std::ostringstream s;
  s << "seeds";
  for (NodeId v : r.seeds) s << ' ' << v;
  s << " | rr " << r.num_rr_sets << " | profit " << std::hexfloat
    << r.estimated_profit;
  return s.str();
}

TEST(NsgNdgPinTest, OutputsMatchPinsAtOneAndFourThreads) {
  const Graph g = PinGraph();
  const ProfitProblem problem = PinProblem(g);
  for (const uint32_t threads : {1u, 4u}) {
    SamplingOptions sampling;
    sampling.num_threads = threads;
    std::unique_ptr<SamplingEngine> engine =
        CreateSamplingEngine(g, DiffusionModel::kIndependentCascade, sampling);
    Rng nsg_rng(31);
    Result<NonadaptiveResult> nsg =
        RunNsg(problem, 20000, &nsg_rng, engine.get());
    ASSERT_TRUE(nsg.ok()) << nsg.status().ToString();
    EXPECT_EQ(Fingerprint(nsg.value()),
              "seeds 0 10 25 20 60 225 140 15 40 220 45 95 85 145 160 5 165 "
              "100 320 290 420 540 105 110 80 55 205 180 120 1420 | rr 20000 "
              "| profit 0x1.dep+7") << "threads=" << threads;
    Rng ndg_rng(32);
    Result<NonadaptiveResult> ndg =
        RunNdg(problem, 20000, &ndg_rng, engine.get());
    ASSERT_TRUE(ndg.ok()) << ndg.status().ToString();
    EXPECT_EQ(Fingerprint(ndg.value()),
              "seeds 0 5 10 20 25 40 45 60 80 85 95 100 120 140 145 160 220 "
              "225 540 | rr 20000 | profit 0x1.b3ccccccccccep+7") << "threads=" << threads;
  }
}

TEST(NsgNdgPinTest, NextPoolUserSeesNoRestriction) {
  // NSG leaves its engine's pool restricted to the targets; IMM resets the
  // pool first, which drops the restriction, so IMM on the shared engine
  // matches IMM on a fresh one.
  const Graph g = PinGraph();
  const ProfitProblem problem = PinProblem(g);
  SerialSamplingEngine shared(g);
  Rng rng(31);
  ASSERT_TRUE(RunNsg(problem, 20000, &rng, &shared).ok());
  ASSERT_NE(shared.pool().members(), nullptr);
  ImmOptions options;
  options.seed = 5;
  Result<ImmResult> after = RunImm(g, 10, options, &shared);
  SerialSamplingEngine fresh(g);
  Result<ImmResult> clean = RunImm(g, 10, options, &fresh);
  ASSERT_TRUE(after.ok() && clean.ok());
  EXPECT_EQ(shared.pool().members(), nullptr);
  EXPECT_EQ(after.value().seeds, clean.value().seeds);
  EXPECT_EQ(after.value().estimated_spread, clean.value().estimated_spread);
  EXPECT_EQ(after.value().num_rr_sets, clean.value().num_rr_sets);
  EXPECT_EQ(after.value().total_edges_examined,
            clean.value().total_edges_examined);
  EXPECT_EQ(shared.pool().total_nodes(), fresh.pool().total_nodes());
}

}  // namespace
}  // namespace atpm
