// Tests for the speculative cross-candidate pipelining layer and the
// budget-exhaustion decision fix: first-round and mid-schedule budget
// aborts, zero-quota worker determinism, lookahead decision equivalence
// against lookahead_window = 0, and epoch-bump invalidation of stored
// speculative answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "core/addatp.h"
#include "core/concentration.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/target_selection.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/coverage_batch.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

Graph TestGraph(NodeId n) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

ProfitProblem CalibratedProblem(const Graph& g, uint32_t k = 20) {
  // Mirrors examples/quickstart.cc: top-k IMM targets with degree-
  // proportional costs calibrated to the spread lower bound, which puts
  // targets near the decision bar (multi-round halving schedules). Kernel
  // pinned so the instance matches that calibration.
  TargetSelectionOptions options;
  options.kernel = SamplingKernel::kPerEdge;
  Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, k, CostScheme::kDegreeProportional, options);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return selection.value().problem;
}

template <typename Policy, typename Options>
AdaptiveRunResult RunPolicy(const Graph& g, const ProfitProblem& problem,
                            const Options& options, uint64_t world_seed = 42,
                            uint64_t policy_seed = 1) {
  Policy policy(options);
  Rng world_rng(world_seed);
  // Worlds pinned to the historical per-edge stream: the calibrated
  // instances' clear-cut decision margins were established under it.
  AdaptiveEnvironment env(Realization::Sample(
      g, &world_rng, DiffusionModel::kIndependentCascade,
      SamplingKernel::kPerEdge));
  Rng rng(policy_seed);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return std::move(run).value();
}

// --- Budget exhaustion: a first-round abort must be an explicit
// kBudgetExhausted (never a silent decision on fest = rest = 0), a
// mid-schedule abort decides from the last completed round.

TEST(BudgetExhaustionTest, FirstRoundAbortIsExplicitAndNeverSeeds) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = CalibratedProblem(g, 10);

  HatpOptions options;
  options.sampling.max_rr_sets_per_decision = 1;  // below any round-0 theta
  options.fail_on_budget_exhausted = false;
  const AdaptiveRunResult run =
      RunPolicy<HatpPolicy>(g, problem, options);

  EXPECT_TRUE(run.seeds.empty());
  EXPECT_EQ(run.budget_exhausted_decisions, problem.targets.size());
  EXPECT_EQ(run.budget_truncated_decisions, 0u);
  EXPECT_EQ(run.total_rr_sets, 0u);
  for (const AdaptiveStepRecord& step : run.steps) {
    EXPECT_EQ(step.decision, SeedDecision::kBudgetExhausted);
    EXPECT_EQ(step.rounds, 0u);
    EXPECT_EQ(step.rr_sets_used, 0u);
  }
}

TEST(BudgetExhaustionTest, AddAtpFirstRoundAbortDoesNotSelectOnZeroes) {
  // The historical ADDATP bug was worse than HATP's: with no completed
  // round, rho_f = rho_r = 0 and "rho_f >= rho_r" SELECTED every
  // budget-starved node regardless of its true marginal.
  const Graph g = TestGraph(300);
  const ProfitProblem problem = CalibratedProblem(g, 10);

  AddAtpOptions options;
  options.sampling.max_rr_sets_per_decision = 1;
  options.fail_on_budget_exhausted = false;
  const AdaptiveRunResult run =
      RunPolicy<AddAtpPolicy>(g, problem, options);

  EXPECT_TRUE(run.seeds.empty());
  EXPECT_EQ(run.budget_exhausted_decisions, problem.targets.size());
  for (const AdaptiveStepRecord& step : run.steps) {
    EXPECT_EQ(step.decision, SeedDecision::kBudgetExhausted);
  }
}

TEST(BudgetExhaustionTest, HntpFirstRoundAbortIsCountedAndNeverSeeds) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = CalibratedProblem(g, 10);

  HntpOptions options;
  options.sampling.max_rr_sets_per_decision = 1;
  options.fail_on_budget_exhausted = false;
  Rng rng(3);
  Result<HntpResult> result = RunHntp(problem, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().seeds.empty());
  EXPECT_EQ(result.value().budget_exhausted_decisions,
            problem.targets.size());
  EXPECT_EQ(result.value().total_rr_sets, 0u);
}

TEST(BudgetExhaustionTest, MidScheduleAbortDecidesFromLastCompletedRound) {
  const Graph g = TestGraph(400);
  const ProfitProblem problem = CalibratedProblem(g);

  // Budget admitting exactly the first (cheapest) round of the schedule:
  // every examined candidate completes round 0, candidates wanting more
  // rounds are truncated — never kBudgetExhausted.
  HatpOptions options;
  const double n0 = static_cast<double>(g.num_nodes());
  const double zeta0 = options.initial_spread_error / n0;
  const double delta0 =
      1.0 / (static_cast<double>(problem.targets.size()) * n0);
  options.sampling.max_rr_sets_per_decision =
      HatpSampleSize(options.initial_relative_error, zeta0, delta0);
  options.fail_on_budget_exhausted = false;
  const AdaptiveRunResult run = RunPolicy<HatpPolicy>(g, problem, options);

  EXPECT_EQ(run.budget_exhausted_decisions, 0u);
  EXPECT_GT(run.budget_truncated_decisions, 0u);
  uint64_t truncated = 0;
  for (const AdaptiveStepRecord& step : run.steps) {
    EXPECT_NE(step.decision, SeedDecision::kBudgetExhausted);
    if (step.decision == SeedDecision::kSkippedActivated) continue;
    EXPECT_EQ(step.rounds, 1u);  // the budget fits exactly one round
    ++truncated;
  }
  // A calibrated instance leaves at least one candidate wanting round 2.
  EXPECT_GE(truncated, run.budget_truncated_decisions);
  EXPECT_FALSE(run.seeds.empty());  // clear-cut hubs still decide in round 0
}

// --- Zero-quota workers: a parallel batch whose theta is below the worker
// count leaves some workers with quota 0; the deterministic worker-order
// merge must not care.

TEST(ZeroQuotaWorkerTest, CountCoverageBatchSeededIsDeterministic) {
  const Graph g = TestGraph(200);
  BitVector base(g.num_nodes());
  for (NodeId v = 20; v < 60; ++v) base.Set(v);
  const uint64_t theta = 3;  // fewer draws than workers

  uint64_t reference[2] = {0, 0};
  for (int trial = 0; trial < 3; ++trial) {
    // min_parallel_batch = 1 forces the fan-out even for tiny theta; 8
    // workers leave at least five with quota 0.
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 8,
                                  /*min_parallel_batch=*/1);
    CoverageQueryBatch batch;
    batch.Add(0);
    batch.Add(1, &base);
    for (int repeat = 0; repeat < 2; ++repeat) {
      CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, 1234);
      if (trial == 0 && repeat == 0) {
        reference[0] = batch.hits(0);
        reference[1] = batch.hits(1);
      } else {
        EXPECT_EQ(batch.hits(0), reference[0]);
        EXPECT_EQ(batch.hits(1), reference[1]);
      }
    }
    EXPECT_LE(batch.hits(0), theta);
    EXPECT_LE(batch.hits(1), theta);
  }
}

TEST(ZeroQuotaWorkerTest, ZeroThetaBatchLeavesZeroHits) {
  const Graph g = TestGraph(100);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                /*min_parallel_batch=*/1);
  CoverageQueryBatch batch;
  batch.Add(0);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), 0, 9);
  EXPECT_EQ(batch.hits(0), 0u);
}

// --- Speculative pipelining: any lookahead window must produce the seed
// set of lookahead_window = 0, serve first rounds from stored answers
// (hits), and discard answers invalidated by an epoch bump (a seeding).

template <typename Policy, typename Options>
void ExpectLookaheadEquivalence(const Graph& g, const ProfitProblem& problem,
                                Options options, uint64_t world_seed) {
  // Decision equivalence across sampling layouts holds when every decision
  // on the pinned instance is clear-cut; the instances were calibrated for
  // that margin under the historical per-edge RNG stream, so pin the
  // kernel (the layer under test is speculation, not the kernel — kernel
  // equivalence has its own suite in rr_kernel_test.cc).
  options.sampling.kernel = SamplingKernel::kPerEdge;
  options.sampling.lookahead_window = 0;
  const AdaptiveRunResult baseline =
      RunPolicy<Policy>(g, problem, options, world_seed);
  EXPECT_EQ(baseline.speculation_hits + baseline.speculation_misses, 0u);

  for (uint32_t window : {1u, 4u, 64u}) {
    options.sampling.lookahead_window = window;
    const AdaptiveRunResult run =
        RunPolicy<Policy>(g, problem, options, world_seed);

    EXPECT_EQ(run.seeds, baseline.seeds) << "window " << window;
    ASSERT_EQ(run.steps.size(), baseline.steps.size());
    uint64_t sampled_decisions = 0;
    uint64_t speculative_first_rounds = 0;
    for (size_t i = 0; i < run.steps.size(); ++i) {
      EXPECT_EQ(run.steps[i].decision, baseline.steps[i].decision)
          << "window " << window << " step " << i;
      if (run.steps[i].decision != SeedDecision::kSkippedActivated) {
        ++sampled_decisions;
      }
      if (run.steps[i].first_round_speculative) ++speculative_first_rounds;
    }
    // Begin() resolves every examined candidate to a hit or a miss.
    EXPECT_EQ(run.speculation_hits + run.speculation_misses,
              sampled_decisions);
    EXPECT_EQ(run.speculation_hits, speculative_first_rounds);
    EXPECT_GT(run.speculation_hits, 0u) << "window " << window;
    // A hit serves at least its first round, and a stored answer keeps
    // serving while its pool covers the growing θ schedule.
    EXPECT_GE(run.speculation_rounds_served, run.speculation_hits);
    // Served first rounds sample no pool: strictly fewer pools than the
    // window-0 run. RR sets usually drop too, but a served round can nudge
    // a borderline candidate into one extra (larger-θ) round, so only a
    // no-material-regression bound is an invariant.
    EXPECT_LT(run.total_count_pools, baseline.total_count_pools)
        << "window " << window;
    EXPECT_LT(static_cast<double>(run.total_rr_sets),
              1.05 * static_cast<double>(baseline.total_rr_sets))
        << "window " << window;
    EXPECT_GT(run.speculative_queries, 0u);
    // Selections bump the epoch, so runs that seed at least once must also
    // discard at least one in-flight answer.
    if (!run.seeds.empty() && window >= 4) {
      EXPECT_GT(run.speculation_discarded, 0u) << "window " << window;
    }
  }
}

TEST(SpeculativePipeliningTest, HatpLookaheadMatchesWindowZeroSeeds) {
  const Graph g = TestGraph(2000);
  const ProfitProblem problem = CalibratedProblem(g);
  ExpectLookaheadEquivalence<HatpPolicy>(g, problem, HatpOptions{},
                                         /*world_seed=*/42);
}

TEST(SpeculativePipeliningTest, AddAtpLookaheadMatchesWindowZeroSeeds) {
  // ADDATP's additive-only schedule is too expensive for the 2000-node
  // instance in a unit test; the 400-node version exercises the same paths
  // (seed pinning as in coverage_batch_test).
  const Graph g = TestGraph(400);
  const ProfitProblem problem = CalibratedProblem(g);
  AddAtpOptions options;
  options.fail_on_budget_exhausted = false;
  ExpectLookaheadEquivalence<AddAtpPolicy>(g, problem, options,
                                           /*world_seed=*/43);
}

TEST(SpeculativePipeliningTest, HntpLookaheadMatchesWindowZeroSeeds) {
  // Clear-cut costs (cheap hubs, overpriced alternates) as in the batched-
  // rounds HNTP test: all sampling layouts agree on the obvious decisions.
  const Graph g = TestGraph(300);
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < 10; ++u) {
    problem.targets.push_back(u);
    problem.costs[u] = (u % 2 == 0) ? 0.2 : 60.0;
  }

  HntpOptions options;
  options.sampling.lookahead_window = 0;
  Rng rng_baseline(3);
  Result<HntpResult> baseline = RunHntp(problem, options, &rng_baseline);
  ASSERT_TRUE(baseline.ok());

  options.sampling.lookahead_window = 4;
  Rng rng_pipelined(3);
  Result<HntpResult> pipelined = RunHntp(problem, options, &rng_pipelined);
  ASSERT_TRUE(pipelined.ok());

  EXPECT_EQ(pipelined.value().seeds, baseline.value().seeds);
  EXPECT_GT(pipelined.value().speculation_hits, 0u);
  EXPECT_LT(pipelined.value().total_count_pools,
            baseline.value().total_count_pools);
  // HNTP selects seeds here, so selection-epoch bumps must discard the
  // in-flight answers speculated before each selection.
  EXPECT_GT(pipelined.value().speculation_discarded, 0u);
}

TEST(SpeculativePipeliningTest, UnbatchedRoundsIgnoreTheWindow) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = CalibratedProblem(g, 10);

  HatpOptions options;
  options.sampling.batched_rounds = false;
  options.sampling.lookahead_window = 8;
  const AdaptiveRunResult run = RunPolicy<HatpPolicy>(g, problem, options);

  EXPECT_EQ(run.speculation_hits + run.speculation_misses, 0u);
  EXPECT_EQ(run.speculative_queries, 0u);
  // The literal two-pools-per-round accounting is untouched.
  EXPECT_EQ(run.total_coverage_queries, run.total_count_pools);
}

TEST(SpeculativePipeliningTest, EpochBumpDiscardsEveryInFlightAnswer) {
  // Cheap, high-degree targets: every examined candidate is selected, so
  // every speculative answer is sampled under an epoch that moved before
  // the candidate is reached — 100% discard, zero hits, and decisions
  // identical to window 0 because nothing stale is ever consumed.
  const Graph g = TestGraph(500);
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < 8; ++u) {
    problem.targets.push_back(u);
    problem.costs[u] = 0.01;
  }

  HatpOptions options;
  options.sampling.lookahead_window = 0;
  const AdaptiveRunResult baseline = RunPolicy<HatpPolicy>(g, problem, options);

  options.sampling.lookahead_window = 4;
  const AdaptiveRunResult run = RunPolicy<HatpPolicy>(g, problem, options);

  EXPECT_EQ(run.seeds, baseline.seeds);
  EXPECT_EQ(run.speculation_hits, 0u);
  EXPECT_GT(run.speculative_queries, 0u);
  EXPECT_GT(run.speculation_discarded, 0u);
  for (const AdaptiveStepRecord& step : run.steps) {
    EXPECT_FALSE(step.first_round_speculative);
  }
  // With every answer discarded, no round is ever served for free: every
  // examined candidate pays at least one pool, exactly as at window 0.
  EXPECT_GE(run.total_count_pools, baseline.seeds.size());
  EXPECT_GT(run.total_rr_sets, 0u);
}

}  // namespace
}  // namespace atpm
