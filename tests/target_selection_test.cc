#include "core/target_selection.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/weighting.h"

namespace atpm {
namespace {

Graph TestSocialGraph(uint64_t seed) {
  Rng rng(seed);
  BarabasiAlbertOptions ba;
  ba.num_nodes = 400;
  ba.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(ba, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

TEST(TopKTargetTest, ProducesValidCalibratedProblem) {
  const Graph g = TestSocialGraph(1);
  Result<TargetSelectionResult> result =
      BuildTopKTargetProblem(g, 15, CostScheme::kUniform);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ProfitProblem& problem = result.value().problem;
  EXPECT_EQ(problem.k(), 15u);
  EXPECT_TRUE(problem.Validate().ok());
  // The paper's calibration: c(T) = E_l[I(T)].
  EXPECT_NEAR(problem.TotalTargetCost(), result.value().spread_lower_bound,
              1e-6);
  EXPECT_GT(result.value().spread_lower_bound, 15.0);
}

TEST(TopKTargetTest, TargetsAreInfluential) {
  // The IMM-selected targets must beat random nodes on average degree
  // (degree is a strong spread proxy under weighted cascade).
  const Graph g = TestSocialGraph(2);
  Result<TargetSelectionResult> result =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(result.ok());
  double target_deg = 0.0;
  for (NodeId t : result.value().problem.targets) {
    target_deg += g.OutDegree(t);
  }
  target_deg /= 10.0;
  EXPECT_GT(target_deg, 3.0 * g.AverageDegree());
}

TEST(TopKTargetTest, DegreeSchemeChargesInfluencersMore) {
  const Graph g = TestSocialGraph(3);
  Result<TargetSelectionResult> result =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(result.ok());
  const ProfitProblem& problem = result.value().problem;
  // Max-degree target costs more than min-degree target.
  NodeId max_t = problem.targets[0];
  NodeId min_t = problem.targets[0];
  for (NodeId t : problem.targets) {
    if (g.OutDegree(t) > g.OutDegree(max_t)) max_t = t;
    if (g.OutDegree(t) < g.OutDegree(min_t)) min_t = t;
  }
  if (g.OutDegree(max_t) > g.OutDegree(min_t)) {
    EXPECT_GT(problem.CostOf(max_t), problem.CostOf(min_t));
  }
}

TEST(TopKTargetTest, DeterministicGivenSeed) {
  const Graph g = TestSocialGraph(4);
  TargetSelectionOptions options;
  options.seed = 123;
  Result<TargetSelectionResult> a =
      BuildTopKTargetProblem(g, 8, CostScheme::kUniform, options);
  Result<TargetSelectionResult> b =
      BuildTopKTargetProblem(g, 8, CostScheme::kUniform, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().problem.targets, b.value().problem.targets);
  EXPECT_EQ(a.value().problem.costs, b.value().problem.costs);
}

TEST(TopKTargetTest, RejectsBadK) {
  const Graph g = TestSocialGraph(5);
  EXPECT_FALSE(BuildTopKTargetProblem(g, 0, CostScheme::kUniform).ok());
}

TEST(PredefinedCostTest, DerivesNonEmptyTargetSet) {
  const Graph g = TestSocialGraph(6);
  // Small lambda: many nodes profitable.
  Result<TargetSelectionResult> result = BuildPredefinedCostProblem(
      g, 0.5, CostScheme::kUniform, TargetMethod::kNsg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().problem.k(), 0u);
  EXPECT_TRUE(result.value().problem.Validate().ok());
}

TEST(PredefinedCostTest, SmallerLambdaYieldsLargerTargetSet) {
  const Graph g = TestSocialGraph(7);
  Result<TargetSelectionResult> small_lambda = BuildPredefinedCostProblem(
      g, 0.3, CostScheme::kUniform, TargetMethod::kNsg);
  Result<TargetSelectionResult> large_lambda = BuildPredefinedCostProblem(
      g, 1.5, CostScheme::kUniform, TargetMethod::kNsg);
  ASSERT_TRUE(small_lambda.ok() && large_lambda.ok());
  EXPECT_GE(small_lambda.value().problem.k(),
            large_lambda.value().problem.k());
}

TEST(PredefinedCostTest, NdgMethodAlsoWorks) {
  const Graph g = TestSocialGraph(8);
  Result<TargetSelectionResult> result = BuildPredefinedCostProblem(
      g, 0.5, CostScheme::kDegreeProportional, TargetMethod::kNdg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().problem.k(), 0u);
}

TEST(PredefinedCostTest, HugeLambdaFailsGracefully) {
  const Graph g = TestSocialGraph(9);
  Result<TargetSelectionResult> result = BuildPredefinedCostProblem(
      g, 1e6, CostScheme::kUniform, TargetMethod::kNsg);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(PredefinedCostTest, CostsCoverWholeGraph) {
  const Graph g = TestSocialGraph(10);
  Result<TargetSelectionResult> result = BuildPredefinedCostProblem(
      g, 0.5, CostScheme::kUniform, TargetMethod::kNsg);
  ASSERT_TRUE(result.ok());
  // Predefined setting: every node carries a positive cost.
  for (double c : result.value().problem.costs) EXPECT_GT(c, 0.0);
}

// ---- Pins captured from pools that stored every node of every RR set: a
// pool restricted to the targets answers CoverageOfSet(T) and the NSG /
// NDG derivation over all of V with the same numbers. The derivation runs
// with T = V, where no restriction applies; the bound after it reads a
// pool restricted to the derived T.

// Targets and the spread lower bound (in hex, so equality is bit-exact)
// as one comparable line.
std::string Fingerprint(const TargetSelectionResult& r) {
  std::ostringstream s;
  s << "targets";
  for (NodeId t : r.problem.targets) s << ' ' << t;
  s << " | bound " << std::hexfloat << r.spread_lower_bound;
  return s.str();
}

TEST(TopKTargetTest, SpreadLowerBoundMatchesPin) {
  const Graph g = TestSocialGraph(1);
  Result<TargetSelectionResult> result =
      BuildTopKTargetProblem(g, 15, CostScheme::kUniform);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Fingerprint(result.value()),
            "targets 8 0 2 1 15 32 5 16 41 29 19 51 24 4 13 | bound "
            "0x1.45a4673e985c4p+7");
}

TEST(PredefinedCostTest, DerivationMatchesPinsAtOneAndFourThreads) {
  const Graph g = TestSocialGraph(11);
  for (const uint32_t threads : {1u, 4u}) {
    TargetSelectionOptions options;
    options.num_threads = threads;
    Result<TargetSelectionResult> nsg = BuildPredefinedCostProblem(
        g, 3.0, CostScheme::kUniform, TargetMethod::kNsg, options);
    ASSERT_TRUE(nsg.ok()) << nsg.status().ToString();
    EXPECT_EQ(Fingerprint(nsg.value()),
              "targets 1 3 4 24 5 0 16 17 11 33 21 9 20 18 65 13 10 30 | "
              "bound 0x1.6dee96fad42ebp+7") << "threads=" << threads;
    Result<TargetSelectionResult> ndg = BuildPredefinedCostProblem(
        g, 3.0, CostScheme::kUniform, TargetMethod::kNdg, options);
    ASSERT_TRUE(ndg.ok()) << ndg.status().ToString();
    EXPECT_EQ(Fingerprint(ndg.value()),
              "targets 0 1 2 3 4 5 9 11 16 17 21 24 33 | bound "
              "0x1.44e7ec935097fp+7") << "threads=" << threads;
  }
}

}  // namespace
}  // namespace atpm
