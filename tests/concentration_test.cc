#include "core/concentration.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/addatp.h"
#include "core/decision_loop.h"
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

// Exact mass of Binomial(θ, μ) on the counts x where `outside(x)` holds.
template <typename Pred>
double BinomialMass(uint64_t theta, double mu, Pred outside) {
  const double n = static_cast<double>(theta);
  double mass = 0.0;
  for (uint64_t x = 0; x <= theta; ++x) {
    if (!outside(x)) continue;
    const double k = static_cast<double>(x);
    double log_pmf = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                     std::lgamma(n - k + 1.0);
    if (x > 0) log_pmf += k * std::log(mu);
    if (x < theta) log_pmf += (n - k) * std::log1p(-mu);
    mass += std::exp(log_pmf);
  }
  return mass;
}

TEST(KlBoundTest, BinomialMassOutsideEachBoundIsWithinItsShare) {
  for (uint64_t theta : {10u, 100u, 1000u}) {
    for (double share : {0.1, 1e-2, 1e-4}) {
      const double log_term = std::log(1.0 / share);
      for (double mu : {0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999}) {
        const double t = static_cast<double>(theta);
        const double above = BinomialMass(theta, mu, [&](uint64_t x) {
          return KlUpperBound(static_cast<double>(x) / t, theta, log_term) <
                 mu;
        });
        const double below = BinomialMass(theta, mu, [&](uint64_t x) {
          return KlLowerBound(static_cast<double>(x) / t, theta, log_term) >
                 mu;
        });
        EXPECT_LE(above, share) << "theta " << theta << " mu " << mu;
        EXPECT_LE(below, share) << "theta " << theta << " mu " << mu;
      }
    }
  }
}

// The dominance that lets C'2 fire unchecked at the grid's last point:
// KL at Lemma 7's deviation is at least Lemma 7's exponent per sample.
TEST(KlBoundTest, KlExponentDominatesLemma7) {
  int upper_checked = 0;
  int lower_checked = 0;
  for (double mu = 0.0005; mu < 1.0; mu *= 1.37) {
    for (double eps : {0.01, 0.05, 0.1, 0.25, 0.5, 0.9}) {
      for (double zeta : {1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.45}) {
        const double high = (1.0 + eps) * mu + zeta;
        if (high < 1.0) {
          const double third = 1.0 + eps / 3.0;
          EXPECT_GE(BernoulliKl(high, mu), 2.0 * eps * zeta / (third * third))
              << "mu " << mu << " eps " << eps << " zeta " << zeta;
          ++upper_checked;
        }
        const double low = (1.0 - eps) * mu - zeta;
        if (low >= 0.0) {
          EXPECT_GE(BernoulliKl(low, mu), 2.0 * eps * zeta)
              << "mu " << mu << " eps " << eps << " zeta " << zeta;
          ++lower_checked;
        }
      }
    }
  }
  EXPECT_GT(upper_checked, 500);
  EXPECT_GT(lower_checked, 300);
}

TEST(KlBoundTest, EdgeMeansOfZeroAndOne) {
  const double log_term = std::log(4.0 / 1e-3);
  for (uint64_t theta : {1u, 10u, 1000u, 1000000u}) {
    const double t = static_cast<double>(theta);
    // No width beyond the range; the other side solves KL in closed form:
    // KL(0‖μ) = −ln(1 − μ), KL(1‖μ) = −ln μ.
    EXPECT_EQ(KlUpperBound(1.0, theta, log_term), 1.0);
    EXPECT_EQ(KlLowerBound(0.0, theta, log_term), 0.0);
    const double upper = -std::expm1(-log_term / t);
    const double lower = std::exp(-log_term / t);
    EXPECT_GE(KlUpperBound(0.0, theta, log_term), upper);
    EXPECT_NEAR(KlUpperBound(0.0, theta, log_term), upper, 1e-12);
    EXPECT_LE(KlLowerBound(1.0, theta, log_term), lower);
    EXPECT_NEAR(KlLowerBound(1.0, theta, log_term), lower, 1e-12);
  }
  EXPECT_EQ(BernoulliKl(0.3, 0.3), 0.0);
  EXPECT_TRUE(std::isinf(BernoulliKl(0.5, 0.0)));
  EXPECT_TRUE(std::isinf(BernoulliKl(0.5, 1.0)));
}

TEST(KeptCountGridTest, PointsStepByAQuarterAndShareTwiceTheBudget) {
  for (double n : {2.0, 3.0, 50.0, 400.0, 6080.0, 75879.0}) {
    for (double k : {1.0, 5.0, 50.0}) {
      const double delta0 = 1.0 / (k * n);
      const double zeta0 = Clamp(64.0 / n, ZetaFloor(n), 0.5);
      const KeptCountGrid grid =
          HatpKeptCountGrid(0.5, zeta0, 0.05, ZetaFloor(n), delta0);
      EXPECT_LE(static_cast<double>(grid.last + 1) * grid.delta,
                2.0 * delta0 * (1.0 + 1e-12));
      EXPECT_EQ(grid.first_theta, HatpSampleSize(0.5, zeta0, grid.delta));
      EXPECT_EQ(grid.last_theta,
                HatpSampleSize(0.05, ZetaFloor(n), grid.delta));
      EXPECT_EQ(grid.Theta(0), grid.first_theta);
      EXPECT_EQ(grid.Theta(grid.last), grid.last_theta);
      // θ_{j+1} = θ_j + ⌈θ_j / 4⌉ below the last point, which the step
      // from the point before it reaches.
      uint64_t stepped = grid.first_theta;
      for (uint32_t j = 0; j < grid.last; ++j) {
        EXPECT_EQ(grid.Theta(j), stepped) << "n " << n << " j " << j;
        EXPECT_LT(grid.Theta(j), grid.Theta(j + 1)) << "n " << n;
        stepped += (stepped + 3) / 4;
      }
      EXPECT_GE(stepped, grid.last_theta) << "n " << n;
    }
  }
}

// The floor θ of the 5/4 grid at n = 6080 and k = 5. Its 29 points split
// 2 δ_0 where a doubling grid split it over 10, so θ_J grows by the log of
// that ratio (about 8%) and stays well below round 10 of the δ-halving
// schedule both grids replaced, which split δ_0 / 2^10 over its 21
// reachable (ε, ζ) points.
TEST(KeptCountGridTest, FloorThetaPaysTheFinerGridOnlyInItsLog) {
  const double n = 6080.0;
  const double delta0 = 1.0 / (5.0 * n);
  const KeptCountGrid grid =
      HatpKeptCountGrid(0.5, 64.0 / n, 0.05, 1.0 / n, delta0);
  EXPECT_EQ(grid.last, 28u);
  EXPECT_EQ(grid.last_theta, 903857u);
  const uint64_t doubling =
      HatpSampleSize(0.05, 1.0 / n, 2.0 * delta0 / 10.0);
  EXPECT_LE(static_cast<double>(grid.last_theta),
            1.1 * static_cast<double>(doubling));
  const uint64_t split = HatpSampleSize(0.05, 1.0 / n, delta0 / 1024.0 / 21.0);
  EXPECT_LE(static_cast<double>(grid.last_theta),
            0.7 * static_cast<double>(split));
}

// Lemma 7's dominance at work: at the last point every count's KL interval
// lies inside the floor band [(X̄ − ζ)/(1+ε), (X̄ + ζ)/(1−ε)].
TEST(KeptCountGridTest, LastPointIntervalsLieInsideTheFloorBand) {
  const double eps = 0.05;
  for (double n : {2.0, 20.0, 150.0}) {
    const double zeta = ZetaFloor(n);
    const KeptCountGrid grid = HatpKeptCountGrid(
        0.5, Clamp(64.0 / n, zeta, 0.5), eps, zeta, 1.0 / (3.0 * n));
    const uint64_t theta = grid.last_theta;
    const double log_term = std::log(4.0 / grid.delta);
    for (uint64_t x = 0; x <= theta; ++x) {
      const double mean =
          static_cast<double>(x) / static_cast<double>(theta);
      ASSERT_GE(KlLowerBound(mean, theta, log_term),
                (mean - zeta) / (1.0 + eps))
          << "n " << n << " count " << x << " of " << theta;
      ASSERT_LE(KlUpperBound(mean, theta, log_term),
                (mean + zeta) / (1.0 - eps))
          << "n " << n << " count " << x << " of " << theta;
    }
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

// HATP's kept counts stop at a point of a grid fixed before sampling: a
// decision of r rounds spends exactly the grid's θ_{r−1}. HNTP runs HATP's
// rule with n_i = n throughout, so every decision shares one grid.
TEST(KeptCountsSampleSizeTest, HntpDecisionSpendsOneGridTheta) {
  const Graph g = KeptCountsGraph();
  const ProfitProblem problem = KeptCountsProblem(g);
  HatpOptions options;
  Rng rng(1);
  Result<HntpResult> run = RunHntp(problem, options, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().degradation_events.empty());

  const double n = static_cast<double>(g.num_nodes());
  const KeptCountGrid grid = HatpKeptCountGrid(
      options.initial_relative_error,
      Clamp(options.initial_spread_error / n, 1.0 / n, 0.5),
      options.relative_error_threshold, 1.0 / n,
      1.0 / (static_cast<double>(problem.k()) * n));
  uint32_t multi_round = 0;
  for (const AdaptiveStepRecord& step : run.value().steps) {
    ASSERT_GT(step.rounds, 0u);
    ASSERT_LE(step.rounds, grid.last + 1) << "node " << step.node;
    EXPECT_EQ(step.rr_sets_used, grid.Theta(step.rounds - 1))
        << "node " << step.node << ", " << step.rounds << " rounds";
    if (step.rounds > 1) ++multi_round;
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
