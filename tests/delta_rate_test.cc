// Stopping-rule δ-rate harness: on tiny graphs (<= 16 edges) with exact
// marginals from ExactSpreadOracle, a certified stop (C1 for ADDATP, C'1
// for HATP) must contradict the exact comparison with probability at most
// the decision's failure budget Σ_i δ_i < 2 δ_0 = 2 / (k n). Each
// configuration runs many policy seeds, counts the runs whose checked
// decision certified a select/abandon that the sign of ρ_f − ρ_r
// contradicts, and checks
// a one-sided 95% Clopper–Pearson upper bound of that rate against the
// budget — for kept counts (batched rounds), for fresh pools (the literal
// two-pool rounds), and for first rounds served from a speculative answer.
// HATP's kept-count stops on the error floors (C'2) are held to the same
// budget: the estimates they decide on must lie within (ε relative, one
// node additive) of the exact values. The count kernel's front and rear
// fractions on the same graphs are checked against the exact values too.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "diffusion/spread_oracle.h"
#include "graph/graph_builder.h"
#include "rris/rr_set.h"

namespace atpm {
namespace {

constexpr uint64_t kRuns = 1500;

// One-sided upper confidence bound on a binomial rate: the p at which
// `failures` or fewer in `trials` has probability `alpha`.
double BinomialUpperBound(uint64_t failures, uint64_t trials, double alpha) {
  if (failures >= trials) return 1.0;
  auto cdf = [&](double p) {
    double sum = 0.0;
    for (uint64_t x = 0; x <= failures; ++x) {
      const double log_term =
          std::lgamma(static_cast<double>(trials) + 1.0) -
          std::lgamma(static_cast<double>(x) + 1.0) -
          std::lgamma(static_cast<double>(trials - x) + 1.0) +
          static_cast<double>(x) * std::log(p) +
          static_cast<double>(trials - x) * std::log1p(-p);
      sum += std::exp(log_term);
    }
    return sum;
  };
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (cdf(mid) > alpha ? lo : hi) = mid;
  }
  return hi;
}

// A tiny instance: the graph, the examination order, and the decision
// under test at position `checked`. The targets before it are priced at
// their decision bar, so whether a run reaches it with the residual graph
// untouched (all of them abandoned) depends on the samples; a speculative
// first round is served exactly then.
struct Instance {
  std::string name;
  Graph graph;
  std::vector<NodeId> targets;
  size_t checked = 0;
  // (f + r) / 2 of each target up to `checked`, every earlier one abandoned.
  std::vector<double> bars;
  double front = 0.0;  // the checked target's E[I(u | ∅)] = σ({u})
  double rear = 0.0;   // σ(T_j) − σ(T_j \ {u}), T_j = targets[checked..]
};

Instance MakeInstance(std::string name, GraphBuilder builder,
                      std::vector<NodeId> targets, size_t checked = 0) {
  Instance instance;
  instance.name = std::move(name);
  instance.graph = builder.Build().value();
  instance.targets = std::move(targets);
  instance.checked = checked;
  auto oracle = ExactSpreadOracle::Create(instance.graph, 16);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto spread = [&](std::vector<NodeId> seeds) {
    return oracle.value()->ExpectedSpread(seeds, nullptr);
  };
  for (size_t j = 0; j <= checked; ++j) {
    const NodeId u = instance.targets[j];
    const std::vector<NodeId> rest(instance.targets.begin() + j,
                                   instance.targets.end());
    std::vector<NodeId> others(rest.begin() + 1, rest.end());
    instance.front = spread({u});
    instance.rear = spread(rest) - spread(others);
    instance.bars.push_back(0.5 * (instance.front + instance.rear));
  }
  return instance;
}

// A two-level out-tree rooted at 0 with a second target hanging off it:
// moderate overlap between the candidates.
Instance TreeInstance() {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.6);
  b.AddEdge(0, 2, 0.5);
  b.AddEdge(0, 3, 0.4);
  b.AddEdge(1, 4, 0.5);
  b.AddEdge(1, 5, 0.5);
  b.AddEdge(2, 6, 0.7);
  b.AddEdge(3, 7, 0.3);
  b.AddEdge(8, 3, 0.5);
  b.AddEdge(8, 7, 0.6);
  b.AddEdge(8, 9, 0.8);
  return MakeInstance("tree", std::move(b), {0, 8});
}

// High overlap: node 1 reaches node 0 with probability 0.9, and everything
// node 0 reaches goes through it, so Cov(0 | {1}) is a small fraction of
// Cov(0). Two isolated nodes keep every residual graph above one node.
GraphBuilder OverlapGraph() {
  GraphBuilder b;
  b.ReserveNodes(11);
  b.AddEdge(1, 0, 0.9);
  b.AddEdge(0, 2, 0.8);
  b.AddEdge(0, 3, 0.8);
  b.AddEdge(0, 4, 0.7);
  b.AddEdge(2, 5, 0.6);
  b.AddEdge(3, 6, 0.6);
  b.AddEdge(4, 7, 0.5);
  b.AddEdge(1, 8, 0.4);
  return b;
}

Instance OverlapInstance() {
  return MakeInstance("overlap", OverlapGraph(), {0, 1});
}

// Node 1 is examined first, at its bar, then node 0: when 1 is abandoned,
// node 0's first round can be served from the pool that abandoned 1 — the
// consumption event the speculation layer conditions on.
Instance OverlapAfterAbandonInstance() {
  return MakeInstance("overlap-after-abandon", OverlapGraph(), {1, 0, 8},
                      /*checked=*/1);
}

struct Variant {
  const char* policy;  // "HATP" or "ADDATP"
  bool batched;        // kept counts; false = fresh pools
  uint32_t window = 0;
};

std::string Describe(const Instance& instance, const Variant& variant) {
  return instance.name + " " + variant.policy +
         (variant.batched ? " kept counts" : " fresh pools") +
         (variant.window > 0 ? " lookahead" : "");
}

struct Rate {
  uint64_t certified = 0;
  uint64_t wrong = 0;
  uint64_t served = 0;  // checked decisions with a speculative first round
  uint64_t floor = 0;   // checked decisions stopped on the error floors
  // Floor stops whose front or rear estimate lies outside the floors' band
  // (1 ± ε) x ± 1 node around its exact value x.
  uint64_t floor_off = 0;
};

// Whether `estimate` lies in [(1 − ε) exact − 1, (1 + ε) exact + 1], the
// band a floor stop promises in spread units (n_i ζ_floor = 1 node). The
// slack covers edge probabilities stored as float.
bool WithinFloorBand(double estimate, double exact, double eps) {
  constexpr double kSlack = 1e-6;
  return estimate >= (1.0 - eps) * exact - 1.0 - kSlack &&
         estimate <= (1.0 + eps) * exact + 1.0 + kSlack;
}

// Runs `kRuns` policy seeds with the checked target priced at `cost`, and
// counts the runs whose checked decision was certified, and certified
// against the sign of its exact ρ_f − ρ_r = f + r − 2c.
Rate MeasureRate(const Instance& instance, const Variant& variant,
                 double cost) {
  ProfitProblem problem;
  problem.graph = &instance.graph;
  problem.targets = instance.targets;
  problem.costs.assign(instance.graph.num_nodes(), 0.0);
  for (size_t i = 0; i < instance.targets.size(); ++i) {
    problem.costs[instance.targets[i]] =
        i < instance.checked ? instance.bars[i] : 1.0;
  }
  problem.costs[instance.targets[instance.checked]] = cost;
  const double margin = instance.front + instance.rear - 2.0 * cost;

  std::unique_ptr<AdaptivePolicy> policy;
  double eps_floor = 0.0;  // HATP's ε threshold
  SamplingOptions sampling;
  sampling.batched_rounds = variant.batched;
  sampling.lookahead_window = variant.window;
  if (std::string(variant.policy) == "HATP") {
    HatpOptions options;
    options.sampling = sampling;
    eps_floor = options.relative_error_threshold;
    policy = std::make_unique<HatpPolicy>(options);
  } else {
    AddAtpOptions options;
    options.sampling = sampling;
    options.fail_on_budget_exhausted = false;
    policy = std::make_unique<AddAtpPolicy>(options);
  }
  Rate rate;
  for (uint64_t seed = 1; seed <= kRuns; ++seed) {
    // Until the first selection the world is unobserved, so it does not
    // matter to the decisions checked here.
    Rng world_rng(seed);
    AdaptiveEnvironment env(Realization::Sample(instance.graph, &world_rng));
    Rng rng(seed * 7919 + 1);
    Result<AdaptiveRunResult> run = policy->Run(problem, &env, &rng);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    const std::vector<AdaptiveStepRecord>& steps = run.value().steps;
    bool untouched = true;
    for (size_t i = 0; i < instance.checked; ++i) {
      untouched = untouched && steps[i].decision == SeedDecision::kAbandoned;
    }
    const AdaptiveStepRecord& step = steps.at(instance.checked);
    if (untouched && step.first_round_speculative) ++rate.served;
    if (untouched && !step.certified && step.rounds > 0) {
      ++rate.floor;
      if (!WithinFloorBand(step.front_estimate, instance.front, eps_floor) ||
          !WithinFloorBand(step.rear_estimate, instance.rear, eps_floor)) {
        ++rate.floor_off;
      }
    }
    if (!untouched || !step.certified) continue;
    ++rate.certified;
    const bool selected = step.decision == SeedDecision::kSelected;
    // A tie admits either decision.
    if ((selected && margin < 0.0) || (!selected && margin > 0.0)) {
      ++rate.wrong;
    }
  }
  return rate;
}

// Prices the checked target around its decision bar, from clearly
// profitable to clearly overpriced, and bounds the certified-and-wrong rate
// at every price. Near the bar most decisions stop on the error floors
// instead, so the grid also asserts that certified stops happened. HATP's
// kept counts test KL intervals, tight enough to certify within 5% of the
// bar, where a certified stop is the easiest to get wrong; the grid asserts
// that they did. The other rules' intervals do not certify there, so their
// margin cells only bound the rate. HATP's kept-count floor stops bound the
// rate of estimates outside the floors' band the same way, at every price.
void ExpectRateWithinDelta(const Instance& instance, const Variant& variant) {
  const double n = static_cast<double>(instance.graph.num_nodes());
  const double k = static_cast<double>(instance.targets.size());
  const double budget = 2.0 / (k * n);  // Σ_i δ_0 / 2^i
  const bool kept_hatp =
      variant.batched && std::string(variant.policy) == "HATP";
  uint64_t certified = 0;
  uint64_t margin_certified = 0;
  uint64_t served = 0;
  uint64_t floor = 0;
  for (double factor : {0.6, 0.8, 0.9, 0.95, 1.05, 1.1, 1.25, 1.5}) {
    const double cost = instance.bars.back() * factor;
    const Rate rate = MeasureRate(instance, variant, cost);
    certified += rate.certified;
    if (factor == 0.95 || factor == 1.05) margin_certified += rate.certified;
    served += rate.served;
    const double upper = BinomialUpperBound(rate.wrong, kRuns, 0.05);
    EXPECT_LE(upper, budget)
        << Describe(instance, variant) << " cost " << cost << ": "
        << rate.wrong << " wrong of " << rate.certified << " certified in "
        << kRuns << " runs";
    if (kept_hatp) {
      floor += rate.floor;
      EXPECT_LE(BinomialUpperBound(rate.floor_off, kRuns, 0.05), budget)
          << Describe(instance, variant) << " cost " << cost << ": "
          << rate.floor_off << " off the floor band of " << rate.floor
          << " floor stops in " << kRuns << " runs";
    }
  }
  EXPECT_GT(certified, kRuns) << Describe(instance, variant);
  if (kept_hatp) {
    EXPECT_GT(margin_certified, 0u) << Describe(instance, variant);
    EXPECT_GT(floor, 0u) << Describe(instance, variant);
  }
  EXPECT_EQ(served > 0, variant.window > 0) << Describe(instance, variant);
}

TEST(DeltaRateTest, BinomialUpperBoundMatchesClosedForms) {
  // Zero failures: 1 − α^{1/N}.
  EXPECT_NEAR(BinomialUpperBound(0, 1000, 0.05),
              1.0 - std::pow(0.05, 1.0 / 1000.0), 1e-9);
  EXPECT_DOUBLE_EQ(BinomialUpperBound(5, 5, 0.05), 1.0);
  EXPECT_GT(BinomialUpperBound(10, 1000, 0.05), 0.01);
}

TEST(DeltaRateTest, HatpKeptCounts) {
  ExpectRateWithinDelta(TreeInstance(), {"HATP", true});
  ExpectRateWithinDelta(OverlapInstance(), {"HATP", true});
}

TEST(DeltaRateTest, HatpFreshPools) {
  ExpectRateWithinDelta(TreeInstance(), {"HATP", false});
  ExpectRateWithinDelta(OverlapInstance(), {"HATP", false});
}

TEST(DeltaRateTest, AddAtpKeptCounts) {
  ExpectRateWithinDelta(TreeInstance(), {"ADDATP", true});
  ExpectRateWithinDelta(OverlapInstance(), {"ADDATP", true});
}

TEST(DeltaRateTest, AddAtpFreshPools) {
  ExpectRateWithinDelta(TreeInstance(), {"ADDATP", false});
  ExpectRateWithinDelta(OverlapInstance(), {"ADDATP", false});
}

// The second decision, reached only when the first was abandoned, with a
// lookahead window: its first round is served from the pool that abandoned
// the first candidate, whose coverage contains most of its own.
TEST(DeltaRateTest, HatpSpeculativeFirstRoundsAfterAbandon) {
  ExpectRateWithinDelta(OverlapAfterAbandonInstance(), {"HATP", true, 2});
}

// One residual graph in the adaptive shape: `activated` removed, the front
// base the selected `seeds` (all activated, so no walk can disqualify the
// front query and a walk may stop once it finds it and the rear query is
// settled), the rear base the undecided `candidates`. For each of `nodes`,
// the count kernel's front and rear fractions must lie within 5σ of the
// exact Cov(u | seeds) and Cov(u | candidates) fractions.
void ExpectKernelMatchesOracle(const Graph& g,
                               const std::vector<NodeId>& activated,
                               const std::vector<NodeId>& seeds,
                               const std::vector<NodeId>& candidates,
                               const std::vector<NodeId>& nodes) {
  const NodeId n = g.num_nodes();
  BitVector removed(n);
  BitVector seed_base(n);
  BitVector candidate_base(n);
  for (NodeId v : activated) removed.Set(v);
  for (NodeId v : seeds) seed_base.Set(v);
  for (NodeId v : candidates) candidate_base.Set(v);
  const uint32_t alive = n - static_cast<uint32_t>(activated.size());
  const BitVector* residual = activated.empty() ? nullptr : &removed;

  auto oracle = ExactSpreadOracle::Create(g, 16);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<CoverageQuery> queries;
  std::vector<double> exact;
  const double candidate_spread =
      oracle.value()->ExpectedSpread(candidates, residual);
  for (NodeId u : nodes) {
    std::vector<NodeId> with_u = candidates;
    with_u.push_back(u);
    queries.push_back({u, &seed_base});
    exact.push_back(oracle.value()->ExpectedSpread({&u, 1}, residual) /
                    alive);
    queries.push_back({u, &candidate_base});
    exact.push_back(
        (oracle.value()->ExpectedSpread(with_u, residual) - candidate_spread) /
        alive);
  }

  constexpr uint64_t kTheta = 20000;
  for (const SamplingKernel kernel :
       {SamplingKernel::kGeometricJump, SamplingKernel::kPerEdge}) {
    RRSetGenerator generator(g, DiffusionModel::kIndependentCascade, kernel);
    std::vector<uint64_t> hits(queries.size());
    Rng rng(17);
    generator.CountCoveringBatch(residual, alive, kTheta, queries,
                                 hits.data(), &rng);
    for (size_t q = 0; q < queries.size(); ++q) {
      const double p = exact[q];
      const double sigma = std::sqrt(p * (1.0 - p) / kTheta);
      EXPECT_NEAR(static_cast<double>(hits[q]) / kTheta, p,
                  5.0 * sigma + 1e-6)
          << (q % 2 == 0 ? "front" : "rear") << " of node "
          << queries[q].node << ", kernel " << SamplingKernelName(kernel);
    }
  }
}

TEST(DeltaRateTest, CountKernelFractionsMatchTheExactOracle) {
  const Instance tree = TreeInstance();
  ExpectKernelMatchesOracle(tree.graph, {}, {}, {8}, {0});
  ExpectKernelMatchesOracle(tree.graph, {8, 9}, {8}, {3, 7}, {0, 1});
  const Instance overlap = OverlapInstance();
  ExpectKernelMatchesOracle(overlap.graph, {}, {}, {1}, {0});
  ExpectKernelMatchesOracle(overlap.graph, {1, 8}, {1}, {3}, {0, 2});
}

}  // namespace
}  // namespace atpm
