#include "core/hatp.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/addatp.h"
#include "core/adg.h"
#include "core/decision_loop.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/weighting.h"

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

AdaptiveEnvironment MakeEnv(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  return AdaptiveEnvironment(Realization::Sample(g, &rng));
}

TEST(HatpTest, SelectsClearlyProfitableHub) {
  const Graph g = MakeStarGraph(50, 1.0);
  ProfitProblem problem = MakeProblem(g, {0}, {5.0});
  HatpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().seeds.size(), 1u);
  EXPECT_DOUBLE_EQ(run.value().realized_profit, 45.0);
  // The gap is enormous: C'1 must fire in round one.
  EXPECT_EQ(run.value().steps[0].rounds, 1u);
}

TEST(HatpTest, AbandonsClearlyOverpricedNode) {
  const Graph g = MakeCompleteGraph(30, 0.0);
  ProfitProblem problem = MakeProblem(g, {0}, {25.0});
  HatpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().seeds.empty());
  // The initial additive error n ζ_0 starts at n/2 on this small graph, so
  // one halving round may be needed before C'1 certifies the abandon.
  EXPECT_LE(run.value().steps[0].rounds, 3u);
}

TEST(HatpTest, SkipsActivatedCandidates) {
  const Graph g = MakePathGraph(4, 1.0);
  ProfitProblem problem = MakeProblem(g, {0, 1, 2}, {0.1, 0.1, 0.1});
  HatpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().seeds.size(), 1u);
  EXPECT_EQ(run.value().steps[1].decision, SeedDecision::kSkippedActivated);
}

TEST(HatpTest, RejectsInvalidErrorConfiguration) {
  const Graph g = MakePathGraph(3, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {1.0});
  HatpOptions options;
  options.initial_relative_error = 0.01;  // below the threshold 0.05
  HatpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  EXPECT_FALSE(policy.Run(problem, &env, &rng).ok());

  HatpOptions options2;
  options2.relative_error_threshold = 0.0;
  HatpPolicy policy2(options2);
  AdaptiveEnvironment env2 = MakeEnv(g, 1);
  EXPECT_FALSE(policy2.Run(problem, &env2, &rng).ok());
}

TEST(HatpTest, BorderlineNodeTerminatesViaC2Floors) {
  // Node with spread == cost: C'1 can never certify; the ε/ζ schedule must
  // drive both errors to their floors and stop via C'2 (no infinite loop,
  // no budget abort with the default generous cap).
  const Graph g = MakeStarGraph(30, 0.5);
  // E[I(hub)] = 1 + 29 * 0.5 = 15.5; cost exactly 15.5.
  ProfitProblem problem = MakeProblem(g, {0}, {15.5});
  HatpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 3);
  Rng rng(4);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run.value().steps[0].rounds, 2u);
}

TEST(HatpTest, OneAliveNodeResidualGraphReachesC2Floors) {
  // Seeding node 0 (no edges are live) leaves node 1 alone in the residual
  // graph, n_i = 1. Its spread equals its cost — a tie, whose upper bounds
  // sit exactly on the bar with no width above a coverage of 1 — so C'1
  // never certifies and the decision stops on C'2. The ζ floor must stay
  // below 1 there: the grid sizes its last point at ZetaFloor(1) = 1/2 and
  // HatpSampleSize rejects ζ >= 1.
  const Graph g = MakeCompleteGraph(2, 0.0);
  ProfitProblem problem = MakeProblem(g, {0, 1}, {0.0, 1.0});
  HatpPolicy policy;
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_FALSE(run.value().seeds.empty());
  EXPECT_EQ(run.value().seeds[0], 0u);
  EXPECT_LT(ZetaFloor(1.0), 1.0);
  EXPECT_TRUE(run.value().degradation_events.empty());
  EXPECT_GE(run.value().steps[1].rounds, 1u);
  EXPECT_FALSE(run.value().steps[1].certified);
  // The tie selects (Line 13).
  EXPECT_EQ(run.value().steps[1].decision, SeedDecision::kSelected);
}

TEST(HatpTest, OneNodeGraphWithOneTargetDecides) {
  // k n = 1 would make Alg. 4's δ_0 = 1/(k n) equal to 1, which no sample
  // size can meet; it is held at 1/2, so both samplings decide.
  const Graph g = MakeCompleteGraph(1, 0.0);
  ProfitProblem problem = MakeProblem(g, {0}, {0.5});
  for (const bool batched : {true, false}) {
    HatpOptions options;
    options.sampling.batched_rounds = batched;
    HatpPolicy policy(options);
    AdaptiveEnvironment env = MakeEnv(g, 1);
    Rng rng(2);
    Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().seeds, std::vector<NodeId>{0}) << batched;
    EXPECT_DOUBLE_EQ(run.value().realized_profit, 0.5);
    EXPECT_GE(run.value().steps[0].rounds, 1u) << batched;
  }
}

TEST(HatpTest, BudgetCapForcesDecisionByDefault) {
  const Graph g = MakeStarGraph(200, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {100.5});
  HatpOptions options;
  options.sampling.max_rr_sets_per_decision = 512;
  HatpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok());  // default fail_on_budget_exhausted = false
  EXPECT_EQ(run.value().steps.size(), 1u);
}

TEST(HatpTest, BudgetCapCanFailLikeAddAtp) {
  const Graph g = MakeStarGraph(200, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {100.5});
  HatpOptions options;
  options.sampling.max_rr_sets_per_decision = 512;
  options.fail_on_budget_exhausted = true;
  HatpPolicy policy(options);
  AdaptiveEnvironment env = MakeEnv(g, 1);
  Rng rng(2);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsOutOfBudget());
}

TEST(HatpTest, DeterministicGivenSeeds) {
  const Graph g = MakeStarGraph(40, 0.4);
  ProfitProblem problem = MakeProblem(g, {0, 5, 6}, {2.0, 1.0, 1.0});
  HatpPolicy policy;
  AdaptiveEnvironment env_a = MakeEnv(g, 9);
  AdaptiveEnvironment env_b = MakeEnv(g, 9);
  Rng rng_a(3);
  Rng rng_b(3);
  Result<AdaptiveRunResult> a = policy.Run(problem, &env_a, &rng_a);
  Result<AdaptiveRunResult> b = policy.Run(problem, &env_b, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seeds, b.value().seeds);
  EXPECT_EQ(a.value().total_rr_sets, b.value().total_rr_sets);
}

TEST(HatpTest, AgreesWithOracleAdgOnSeparatedInstances) {
  // When every node's decision gap is wide, HATP must make exactly the
  // decisions the oracle-model ADG makes on the same world.
  Rng graph_rng(11);
  BarabasiAlbertOptions ba;
  ba.num_nodes = 120;
  ba.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(ba, &graph_rng).value();
  ApplyConstantProbability(&g, 0.3);

  // Costs far from the bar: two very cheap hubs, two hopeless nodes.
  ProfitProblem problem =
      MakeProblem(g, {0, 1, 100, 101}, {0.1, 0.1, 50.0, 50.0});

  MonteCarloOptions mc;
  mc.num_samples = 30000;
  mc.seed = 17;
  MonteCarloSpreadOracle oracle(g, mc);
  AdgPolicy adg(&oracle);
  HatpPolicy hatp;

  AdaptiveEnvironment env_adg = MakeEnv(g, 21);
  AdaptiveEnvironment env_hatp = MakeEnv(g, 21);  // same world
  Rng rng_a(5);
  Rng rng_b(5);
  Result<AdaptiveRunResult> run_adg = adg.Run(problem, &env_adg, &rng_a);
  Result<AdaptiveRunResult> run_hatp = hatp.Run(problem, &env_hatp, &rng_b);
  ASSERT_TRUE(run_adg.ok() && run_hatp.ok());
  EXPECT_EQ(run_adg.value().seeds, run_hatp.value().seeds);
  EXPECT_DOUBLE_EQ(run_adg.value().realized_profit,
                   run_hatp.value().realized_profit);
}

TEST(HatpTest, SmallerEpsilonSpendsMoreSamples) {
  // Sensitivity companion to Fig. 4(b): tightening ε should not reduce the
  // sampling effort.
  const Graph g = MakeStarGraph(60, 0.5);
  ProfitProblem problem = MakeProblem(g, {0, 1}, {30.0, 1.5});

  uint64_t rr_loose = 0;
  uint64_t rr_tight = 0;
  {
    HatpOptions options;
    options.relative_error_threshold = 0.25;
    HatpPolicy policy(options);
    AdaptiveEnvironment env = MakeEnv(g, 7);
    Rng rng(8);
    rr_loose = policy.Run(problem, &env, &rng).value().total_rr_sets;
  }
  {
    HatpOptions options;
    options.relative_error_threshold = 0.05;
    HatpPolicy policy(options);
    AdaptiveEnvironment env = MakeEnv(g, 7);
    Rng rng(8);
    rr_tight = policy.Run(problem, &env, &rng).value().total_rr_sets;
  }
  EXPECT_GE(rr_tight, rr_loose);
}

TEST(HatpTest, UsesFarFewerSamplesThanAddAtpOnBorderlineNodes) {
  // The headline claim (Theorem 5): hybrid error turns the quadratic
  // 1/ζ² sample cost into 1/(εζ). Compare total RR sets on a node near
  // the decision bar under equal budgets.
  const Graph g = MakeStarGraph(64, 0.5);
  ProfitProblem problem = MakeProblem(g, {0}, {32.0});

  HatpOptions hatp_options;
  hatp_options.sampling.max_rr_sets_per_decision = 1ull << 22;
  HatpPolicy hatp(hatp_options);
  AdaptiveEnvironment env_h = MakeEnv(g, 13);
  Rng rng_h(14);
  Result<AdaptiveRunResult> run_h = hatp.Run(problem, &env_h, &rng_h);
  ASSERT_TRUE(run_h.ok());

  AddAtpOptions add_options;
  add_options.sampling.max_rr_sets_per_decision = 1ull << 22;
  add_options.fail_on_budget_exhausted = false;
  AddAtpPolicy addatp(add_options);
  AdaptiveEnvironment env_a = MakeEnv(g, 13);
  Rng rng_a(14);
  Result<AdaptiveRunResult> run_a = addatp.Run(problem, &env_a, &rng_a);
  ASSERT_TRUE(run_a.ok());

  EXPECT_LT(run_h.value().total_rr_sets, run_a.value().total_rr_sets);
}

}  // namespace
}  // namespace atpm
