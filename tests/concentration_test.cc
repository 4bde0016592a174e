#include "core/concentration.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "graph/generators.h"
#include "graph/weighting.h"

namespace atpm {
namespace {

TEST(HoeffdingTest, TailFormula) {
  EXPECT_NEAR(HoeffdingTwoSidedTail(100, 0.1),
              2.0 * std::exp(-2.0 * 100 * 0.01), 1e-12);
}

TEST(HoeffdingTest, TailDecreasesInThetaAndZeta) {
  EXPECT_GT(HoeffdingTwoSidedTail(100, 0.1), HoeffdingTwoSidedTail(200, 0.1));
  EXPECT_GT(HoeffdingTwoSidedTail(100, 0.1), HoeffdingTwoSidedTail(100, 0.2));
}

TEST(HoeffdingTest, SampleSizeInvertsTail) {
  const double zeta = 0.05;
  const double delta = 0.01;
  const uint64_t theta = HoeffdingSampleSize(zeta, delta);
  EXPECT_LE(HoeffdingTwoSidedTail(theta, zeta), delta * 1.0001);
  // One fewer sample should not satisfy the bound (tightness).
  EXPECT_GT(HoeffdingTwoSidedTail(theta - 1, zeta), delta * 0.999);
}

TEST(AddAtpSampleSizeTest, MatchesPaperFormula) {
  const double zeta = 0.02;
  const double delta = 1e-4;
  const uint64_t theta = AddAtpSampleSize(zeta, delta);
  EXPECT_EQ(theta, static_cast<uint64_t>(std::ceil(
                       std::log(8.0 / delta) / (2.0 * zeta * zeta))));
}

TEST(AddAtpSampleSizeTest, QuadraticInInverseZeta) {
  // Halving zeta should ~quadruple theta (the paper's efficiency pain).
  const uint64_t theta1 = AddAtpSampleSize(0.04, 1e-3);
  const uint64_t theta2 = AddAtpSampleSize(0.02, 1e-3);
  EXPECT_NEAR(static_cast<double>(theta2) / static_cast<double>(theta1), 4.0,
              0.01);
}

TEST(RelAddTailTest, Formulas) {
  const uint64_t theta = 500;
  const double eps = 0.2;
  const double zeta = 0.05;
  EXPECT_NEAR(RelAddUpperTail(theta, eps, zeta),
              std::exp(-2.0 * theta * eps * zeta /
                       ((1.0 + eps / 3.0) * (1.0 + eps / 3.0))),
              1e-12);
  EXPECT_NEAR(RelAddLowerTail(theta, eps, zeta),
              std::exp(-2.0 * theta * eps * zeta), 1e-12);
}

TEST(RelAddTailTest, LowerTailIsTighter) {
  // The lower tail lacks the (1+eps/3)^2 penalty, so it is smaller.
  EXPECT_LE(RelAddLowerTail(100, 0.3, 0.1), RelAddUpperTail(100, 0.3, 0.1));
}

TEST(HatpSampleSizeTest, MatchesPaperFormula) {
  const double eps = 0.1;
  const double zeta = 0.01;
  const double delta = 1e-5;
  const uint64_t theta = HatpSampleSize(eps, zeta, delta);
  const double expected = (1.0 + eps / 3.0) * (1.0 + eps / 3.0) /
                          (2.0 * eps * zeta) * std::log(4.0 / delta);
  EXPECT_EQ(theta, static_cast<uint64_t>(std::ceil(expected)));
}

TEST(HatpSampleSizeTest, BothTailsBoundedAtTheta) {
  const double eps = 0.15;
  const double zeta = 0.02;
  const double delta = 1e-3;
  const uint64_t theta = HatpSampleSize(eps, zeta, delta);
  EXPECT_LE(RelAddUpperTail(theta, eps, zeta), delta / 4.0 * 1.0001);
  EXPECT_LE(RelAddLowerTail(theta, eps, zeta), delta / 4.0 * 1.0001);
}

TEST(HatpSampleSizeTest, LinearInInverseZeta) {
  // Halving zeta doubles theta — the Θ(εn) improvement over ADDATP
  // (Theorem 5).
  const uint64_t theta1 = HatpSampleSize(0.1, 0.04, 1e-3);
  const uint64_t theta2 = HatpSampleSize(0.1, 0.02, 1e-3);
  EXPECT_NEAR(static_cast<double>(theta2) / static_cast<double>(theta1), 2.0,
              0.01);
}

TEST(HatpKeptSampleSizeTest, SplitsDeltaOverTheReachablePoints) {
  const double eps = 0.2;
  const double zeta = 0.01;
  const double delta = 1e-4;
  // Round 0 reaches one point: the paper's θ.
  EXPECT_EQ(HatpKeptSampleSize(eps, zeta, delta, 0),
            HatpSampleSize(eps, zeta, delta));
  uint64_t previous = HatpSampleSize(eps, zeta, delta);
  for (uint32_t round = 1; round <= 12; ++round) {
    const uint64_t theta = HatpKeptSampleSize(eps, zeta, delta, round);
    EXPECT_EQ(theta, HatpSampleSize(eps, zeta, delta / (2.0 * round + 1.0)));
    // The split adds ln(2i + 1) to ln(4/δ_i), growing with the round.
    const double expected_ratio =
        std::log(4.0 * (2.0 * round + 1.0) / delta) / std::log(4.0 / delta);
    EXPECT_NEAR(static_cast<double>(theta) /
                    static_cast<double>(HatpSampleSize(eps, zeta, delta)),
                expected_ratio, 1e-3);
    EXPECT_GT(theta, previous);
    previous = theta;
  }
}

// A 400-node preferential-attachment graph under weighted cascade, and its
// 12 highest-degree nodes priced at half their degree: most decisions run
// several halving rounds.
Graph KeptCountsGraph() {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = 400;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

ProfitProblem KeptCountsProblem(const Graph& g) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < 12; ++u) {
    problem.targets.push_back(u);
    problem.costs[u] = 0.5 * static_cast<double>(g.OutDegree(u));
  }
  return problem;
}

// ADDATP's schedule does not depend on the data, so kept counts leave its θ
// unchanged: a decision of r rounds spends exactly the θ of its last round,
// AddAtpSampleSize(ζ_0 / √2^{r−1}, δ_0 / 2^{r−1}).
TEST(KeptCountsSampleSizeTest, AddAtpDecisionSpendsItsLastUnsplitTheta) {
  const Graph g = KeptCountsGraph();
  const ProfitProblem problem = KeptCountsProblem(g);
  AddAtpOptions options;
  options.fail_on_budget_exhausted = false;
  AddAtpPolicy policy(options);
  Rng world_rng(5);
  AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
  Rng rng(1);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().degradation_events.empty());

  const double n = static_cast<double>(g.num_nodes());
  double remaining = n;  // n_i: nodes not yet activated
  uint32_t multi_round = 0;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    if (step.rounds > 0) {
      double zeta = Clamp(options.initial_spread_error / remaining,
                          1.0 / remaining, 0.5);
      double delta = 1.0 / (static_cast<double>(problem.k()) * n);
      for (uint32_t i = 1; i < step.rounds; ++i) {
        zeta /= std::sqrt(2.0);
        delta /= 2.0;
      }
      EXPECT_EQ(step.rr_sets_used, AddAtpSampleSize(zeta, delta))
          << "node " << step.node << ", " << step.rounds << " rounds";
      if (step.rounds > 1) ++multi_round;
    }
    remaining -= static_cast<double>(step.newly_activated);
  }
  EXPECT_GT(multi_round, 0u);
}

// HATP's θ_i at round i is HatpKeptSampleSize at one of the ≤ 2i + 1
// (ε, ζ) points Tighten can reach: a decision of r rounds spends exactly
// the split θ of one round-(r−1) point. HNTP runs HATP's rule with n_i = n
// throughout, which makes every point computable up front.
TEST(KeptCountsSampleSizeTest, HatpDecisionSpendsASplitLastRoundTheta) {
  const Graph g = KeptCountsGraph();
  const ProfitProblem problem = KeptCountsProblem(g);
  HatpOptions options;
  Rng rng(1);
  Result<HntpResult> run = RunHntp(problem, options, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().degradation_events.empty());

  const double n = static_cast<double>(g.num_nodes());
  const double eps_floor = options.relative_error_threshold;
  // points[i]: the (ε, ζ) pairs round i can run under, following the same
  // divisions as Tighten.
  std::vector<std::set<std::pair<double, double>>> points(1);
  points[0].insert({options.initial_relative_error,
                    Clamp(options.initial_spread_error / n, 1.0 / n, 0.5)});
  uint32_t multi_round = 0;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    ASSERT_GT(step.rounds, 0u);
    while (points.size() < step.rounds) {
      std::set<std::pair<double, double>> next;
      for (const auto& [eps, zeta] : points.back()) {
        const double r2 = std::sqrt(2.0);
        for (const auto& [e, z] : {std::pair{eps / 2.0, zeta},
                                   std::pair{eps, zeta / 2.0},
                                   std::pair{eps / r2, zeta / r2}}) {
          next.insert({std::max(e, eps_floor), std::max(z, 1.0 / n)});
        }
      }
      points.push_back(std::move(next));
    }
    const uint32_t last = step.rounds - 1;
    const double delta =
        1.0 / (static_cast<double>(problem.k()) * n) / std::pow(2.0, last);
    std::set<uint64_t> split;
    std::set<uint64_t> unsplit;
    for (const auto& [eps, zeta] : points[last]) {
      split.insert(HatpKeptSampleSize(eps, zeta, delta, last));
      unsplit.insert(HatpSampleSize(eps, zeta, delta));
    }
    EXPECT_TRUE(split.count(step.rr_sets_used))
        << "node " << step.node << ", " << step.rounds << " rounds";
    if (last > 0) {
      EXPECT_FALSE(unsplit.count(step.rr_sets_used)) << "node " << step.node;
      ++multi_round;
    }
  }
  EXPECT_GT(multi_round, 0u);
}

TEST(HatpVsAddAtpTest, HybridNeedsFarFewerSamplesAtSmallZeta) {
  // At zeta = 1/n (the stopping floor), ADDATP is ~n/eps times costlier.
  const double zeta = 1.0 / 10000.0;
  const double delta = 1e-6;
  const uint64_t additive = AddAtpSampleSize(zeta, delta);
  const uint64_t hybrid = HatpSampleSize(0.1, zeta, delta);
  EXPECT_GT(additive / hybrid, 100u);
}

// Empirical check of the Hoeffding guarantee on Bernoulli means.
TEST(HoeffdingEmpiricalTest, FailureRateWithinBound) {
  Rng rng(42);
  const double p = 0.3;
  const double zeta = 0.05;
  const double delta = 0.1;
  const uint64_t theta = HoeffdingSampleSize(zeta, delta);
  int failures = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < theta; ++i) hits += rng.Bernoulli(p) ? 1 : 0;
    const double mean = static_cast<double>(hits) / theta;
    if (std::abs(mean - p) >= zeta) ++failures;
  }
  EXPECT_LE(failures, static_cast<int>(delta * trials) + 8);
}

// Empirical check of the Relative+Additive bound (Lemma 7).
TEST(RelAddEmpiricalTest, FailureRateWithinBound) {
  Rng rng(43);
  const double p = 0.2;
  const double eps = 0.2;
  const double zeta = 0.02;
  const uint64_t theta = 2000;
  const double upper_bound_prob = RelAddUpperTail(theta, eps, zeta);
  const double lower_bound_prob = RelAddLowerTail(theta, eps, zeta);

  int upper_failures = 0;
  int lower_failures = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    uint64_t hits = 0;
    for (uint64_t i = 0; i < theta; ++i) hits += rng.Bernoulli(p) ? 1 : 0;
    const double mean = static_cast<double>(hits) / theta;
    if (mean >= (1.0 + eps) * p + zeta) ++upper_failures;
    if (mean <= (1.0 - eps) * p - zeta) ++lower_failures;
  }
  EXPECT_LE(static_cast<double>(upper_failures) / trials,
            upper_bound_prob + 0.02);
  EXPECT_LE(static_cast<double>(lower_failures) / trials,
            lower_bound_prob + 0.02);
}

TEST(ConcentrationDeathTest, RejectsDegenerateInputs) {
  EXPECT_DEATH(HoeffdingSampleSize(0.0, 0.1), "ATPM_CHECK");
  EXPECT_DEATH(AddAtpSampleSize(0.1, 0.0), "ATPM_CHECK");
  EXPECT_DEATH(HatpSampleSize(1.0, 0.1, 0.1), "ATPM_CHECK");
}

}  // namespace
}  // namespace atpm
