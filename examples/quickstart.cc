// Quickstart: the smallest end-to-end use of the library.
//
//   1. Build a probabilistic social graph (synthetic, weighted cascade).
//   2. Pick a target set and per-node seeding costs.
//   3. Run HATP — the paper's practical adaptive algorithm — against one
//      sampled ground-truth realization, observing activations after every
//      seeding decision.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/hatp.h"
#include "core/target_selection.h"
#include "graph/generators.h"
#include "graph/weighting.h"

int main() {
  // 1. A 2000-node preferential-attachment graph with the paper's
  //    weighted-cascade probabilities p(u,v) = 1/indeg(v).
  atpm::Rng rng(7);
  atpm::BarabasiAlbertOptions graph_options;
  graph_options.num_nodes = 2000;
  graph_options.edges_per_node = 2;
  atpm::Result<atpm::Graph> graph_result =
      atpm::GenerateBarabasiAlbert(graph_options, &rng);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  atpm::Graph graph = std::move(graph_result).value();
  atpm::ApplyWeightedCascade(&graph);
  std::printf("graph: n=%u, m=%llu\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  // 2. Target set = the top-20 influential users (IMM), with costs
  //    calibrated so c(T) equals a lower bound on E[I(T)] (Section VI-A
  //    of the paper).
  atpm::Result<atpm::TargetSelectionResult> selection =
      atpm::BuildTopKTargetProblem(graph, 20,
                                   atpm::CostScheme::kDegreeProportional);
  if (!selection.ok()) {
    std::fprintf(stderr, "target selection failed: %s\n",
                 selection.status().ToString().c_str());
    return 1;
  }
  const atpm::ProfitProblem& problem = selection.value().problem;
  std::printf("targets: k=%u, c(T)=%.1f (= E_l[I(T)])\n", problem.k(),
              problem.TotalTargetCost());

  // 3. Sample one ground-truth world and run HATP against it. The thread
  //    count picks the RR-sampling backend: 1 runs the serial engine
  //    (reproducible against the single-threaded reference), more runs the
  //    persistent worker pool.
  atpm::Rng world_rng(42);
  atpm::AdaptiveEnvironment env(
      atpm::Realization::Sample(graph, &world_rng));
  atpm::HatpOptions hatp_options;  // paper defaults: eps0=0.5, eps=0.05
  hatp_options.sampling.num_threads = 4;
  // Speculative cross-candidate pipelining: each halving round's RR pool
  // also answers the first-round queries of the next 4 candidates, served
  // for free when no seeding invalidated them (same seed set either way).
  hatp_options.sampling.lookahead_window = 4;
  atpm::HatpPolicy hatp(hatp_options);
  atpm::Rng policy_rng(1);
  atpm::Result<atpm::AdaptiveRunResult> run =
      hatp.Run(problem, &env, &policy_rng);
  if (!run.ok()) {
    std::fprintf(stderr, "HATP failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  std::printf("\nHATP selected %zu of %u candidates\n",
              run.value().seeds.size(), problem.k());
  std::printf("realized spread  : %u users\n", run.value().realized_spread);
  std::printf("seeding cost     : %.1f\n", run.value().seed_cost);
  std::printf("realized profit  : %.1f\n", run.value().realized_profit);
  std::printf("RR sets generated: %llu\n",
              static_cast<unsigned long long>(run.value().total_rr_sets));
  std::printf("speculation      : %llu/%llu first rounds served free "
              "(%llu rounds total, %llu discarded)\n",
              static_cast<unsigned long long>(run.value().speculation_hits),
              static_cast<unsigned long long>(run.value().speculation_hits +
                                              run.value().speculation_misses),
              static_cast<unsigned long long>(
                  run.value().speculation_rounds_served),
              static_cast<unsigned long long>(
                  run.value().speculation_discarded));
  return 0;
}
