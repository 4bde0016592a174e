// Viral marketing campaign: the scenario from the paper's introduction.
//
// A company has access to a subscription list (the target set T) and a
// promotion budget per influencer (cashback / coupons -> the cost c(u)).
// It deploys seeds in batches: after investing in one influencer it
// observes who actually got influenced (market feedback) before deciding
// on the next. This example drives HATP step by step and prints the
// decision log — the adaptive feedback loop of Section II-B — then
// contrasts the outcome with a one-shot (nonadaptive) campaign and a
// random coupon drop on the same market realization.
//
// Build & run:  ./examples/viral_marketing_campaign
#include <cstdio>

#include "bench_util/experiment.h"
#include "core/ars.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/target_selection.h"
#include "graph/generators.h"
#include "graph/weighting.h"

namespace {

const char* DecisionName(atpm::SeedDecision decision) {
  switch (decision) {
    case atpm::SeedDecision::kSelected:
      return "INVEST ";
    case atpm::SeedDecision::kAbandoned:
      return "skip   ";
    case atpm::SeedDecision::kSkippedActivated:
      return "reached";
    case atpm::SeedDecision::kBudgetExhausted:
      return "no data";
  }
  return "?";
}

}  // namespace

int main() {
  // The "social platform": a directed R-MAT graph (skewed follower
  // counts), weighted-cascade influence probabilities.
  atpm::Rng rng(11);
  atpm::RMatOptions graph_options;
  graph_options.scale = 13;  // 8192 users
  graph_options.num_edges = 80000;
  atpm::Graph graph =
      atpm::GenerateRMat(graph_options, &rng).value_or(atpm::Graph());
  if (graph.num_nodes() == 0) return 1;
  atpm::ApplyWeightedCascade(&graph);

  // The subscription list: top-30 influencers; promotion budget
  // distributed proportionally to reach (degree-proportional costs).
  atpm::Result<atpm::TargetSelectionResult> selection =
      atpm::BuildTopKTargetProblem(graph, 30,
                                   atpm::CostScheme::kDegreeProportional);
  if (!selection.ok()) {
    std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
    return 1;
  }
  const atpm::ProfitProblem& problem = selection.value().problem;
  std::printf("market: %u users, %llu follow edges\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));
  std::printf("subscription list: %u influencers, total budget %.0f\n\n",
              problem.k(), problem.TotalTargetCost());

  // The actual market outcome is one realization; every strategy below
  // faces the same one.
  atpm::Rng world_rng(2024);
  const atpm::Realization world = atpm::Realization::Sample(graph, &world_rng);

  // --- Adaptive campaign (HATP). ---
  atpm::AdaptiveEnvironment env{atpm::Realization(world)};
  atpm::HatpOptions options;
  options.sampling.num_threads = 4;
  atpm::HatpPolicy hatp(options);
  atpm::Rng policy_rng(5);
  atpm::Result<atpm::AdaptiveRunResult> run =
      hatp.Run(problem, &env, &policy_rng);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }

  std::printf("adaptive campaign log (decision | influencer | cost | newly "
              "reached | cumulative reach):\n");
  uint32_t cumulative = 0;
  for (const atpm::AdaptiveStepRecord& step : run.value().steps) {
    cumulative += step.newly_activated;
    std::printf("  %s u%-6u cost=%6.1f  +%-5u  reach=%u\n",
                DecisionName(step.decision), step.node,
                problem.CostOf(step.node), step.newly_activated, cumulative);
  }
  std::printf("adaptive profit: %.1f (reach %u - investment %.1f)\n\n",
              run.value().realized_profit, run.value().realized_spread,
              run.value().seed_cost);

  // --- One-shot campaign (HNTP): same estimator, no feedback. ---
  atpm::Rng hntp_rng(6);
  atpm::Result<atpm::HntpResult> hntp = RunHntp(problem, options, &hntp_rng);
  if (!hntp.ok()) return 1;
  const double hntp_profit =
      atpm::RealizedProfit(problem, world, hntp.value().seeds);
  std::printf("one-shot (HNTP) : %zu influencers, profit %.1f\n",
              hntp.value().seeds.size(), hntp_profit);

  // --- Random coupon drop (ARS). ---
  atpm::AdaptiveEnvironment ars_env{atpm::Realization(world)};
  atpm::ArsPolicy ars;
  atpm::Rng ars_rng(7);
  atpm::Result<atpm::AdaptiveRunResult> ars_run =
      ars.Run(problem, &ars_env, &ars_rng);
  if (!ars_run.ok()) return 1;
  std::printf("random (ARS)    : %zu influencers, profit %.1f\n",
              ars_run.value().seeds.size(), ars_run.value().realized_profit);

  // One market outcome is an anecdote; the paper averages over many
  // realizations. Repeat the comparison over 8 shared worlds.
  std::printf("\nmean profit over 8 market realizations:\n");
  atpm::ExperimentRunner runner(problem, 8, 555);
  atpm::Result<atpm::AlgoStats> hatp_mean = runner.RunAdaptive(&hatp);
  atpm::Result<atpm::AlgoStats> ars_mean = runner.RunAdaptive(&ars);
  if (!hatp_mean.ok() || !ars_mean.ok()) return 1;
  std::printf("  adaptive (HATP): %8.1f\n", hatp_mean.value().mean_profit);
  std::printf("  one-shot (HNTP): %8.1f\n",
              runner.EvaluateFixedSet(hntp.value().seeds, 0.0).mean_profit);
  std::printf("  random   (ARS) : %8.1f\n", ars_mean.value().mean_profit);
  return 0;
}
