#include "core/hntp.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"

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

TEST(HntpTest, SelectsProfitableHub) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, {5.0});
  Rng rng(1);
  Result<HntpResult> result = RunHntp(problem, HatpOptions{}, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().seeds.size(), 1u);
  EXPECT_EQ(result.value().seeds[0], 0u);
  EXPECT_GT(result.value().total_rr_sets, 0u);
}

TEST(HntpTest, DropsOverpricedNode) {
  const Graph g = MakeCompleteGraph(30, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1}, {25.0, 25.0});
  Rng rng(1);
  Result<HntpResult> result = RunHntp(problem, HatpOptions{}, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().seeds.empty());
}

TEST(HntpTest, NoFeedbackCandidatesNeverSkipped) {
  // In the adaptive versions, seeding 0 on the p=1 path activates 1 and 2
  // which are then skipped. Nonadaptively all three are examined; all are
  // cheap and overlapping, and the double-greedy comparison decides each
  // on its own merits (no kSkippedActivated path exists at all).
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, {0.1, 0.1, 0.1});
  Rng rng(2);
  Result<HntpResult> result = RunHntp(problem, HatpOptions{}, &rng);
  ASSERT_TRUE(result.ok());
  // Node 0 (spread 4, cost .1) is clearly kept.
  EXPECT_FALSE(result.value().seeds.empty());
  EXPECT_EQ(result.value().seeds[0], 0u);
  // One examined step per target, none skipped, and nothing realized.
  ASSERT_EQ(result.value().steps.size(), 3u);
  size_t selected = 0;
  for (const AdaptiveStepRecord& step : result.value().steps) {
    EXPECT_NE(step.decision, SeedDecision::kSkippedActivated);
    EXPECT_GT(step.rounds, 0u);
    EXPECT_EQ(step.newly_activated, 0u);
    if (step.decision == SeedDecision::kSelected) ++selected;
  }
  EXPECT_EQ(selected, result.value().seeds.size());
  EXPECT_EQ(result.value().realized_spread, 0u);
}

TEST(HntpTest, ValidatesErrorConfiguration) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {1.0});
  HatpOptions options;
  options.initial_relative_error = 0.01;
  Rng rng(3);
  EXPECT_FALSE(RunHntp(problem, options, &rng).ok());
}

TEST(HntpTest, BudgetFailureMode) {
  const Graph g = MakeStarGraph(200, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {100.5});
  HatpOptions options;
  options.sampling.max_rr_sets_per_decision = 256;
  options.fail_on_budget_exhausted = true;
  Rng rng(4);
  Result<HntpResult> result = RunHntp(problem, options, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfBudget());
}

TEST(HntpTest, DeterministicGivenSeed) {
  const Graph g = MakeStarGraph(40, 0.4);
  ProfitProblem problem = MakeProblem(g, {0, 3, 7}, {2.0, 1.0, 1.0});
  Rng rng_a(5);
  Rng rng_b(5);
  Result<HntpResult> a = RunHntp(problem, HatpOptions{}, &rng_a);
  Result<HntpResult> b = RunHntp(problem, HatpOptions{}, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
  EXPECT_EQ(a.value().total_rr_sets, b.value().total_rr_sets);
}

TEST(HntpTest, EmptyTargetsIsNoop) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {}, {});
  Rng rng(6);
  Result<HntpResult> result = RunHntp(problem, HatpOptions{}, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().seeds.empty());
  EXPECT_EQ(result.value().total_rr_sets, 0u);
}

TEST(HntpTest, OverlappingTargetsNotAllKept) {
  // Two identical hubs pointing at the same leaves with substantial cost:
  // once the first is selected, the second's conditional marginal falls
  // below its cost and it must be dropped (the rear base contains the
  // selected seed, unlike the adaptive variant where it is removed).
  GraphBuilder builder;
  for (NodeId v = 2; v < 40; ++v) {
    builder.AddEdge(0, v, 1.0);
    builder.AddEdge(1, v, 1.0);
  }
  Graph g = builder.Build().value();
  ProfitProblem problem = MakeProblem(g, {0, 1}, {10.0, 10.0});
  Rng rng(7);
  Result<HntpResult> result = RunHntp(problem, HatpOptions{}, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().seeds.size(), 1u);
}

}  // namespace
}  // namespace atpm
