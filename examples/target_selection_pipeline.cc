// Target-selection pipeline: reproduces one cell of the paper's main
// experiment end to end, with every algorithm evaluated on the same set of
// sampled realizations (the protocol of Section VI-A):
//
//   dataset -> IMM top-k targets -> E_l[I(T)]-calibrated costs ->
//   {HATP, HNTP, NSG, NDG, ARS, Baseline} -> mean profit over worlds.
//
// Build & run:  ./examples/target_selection_pipeline [k] [worlds]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_util/datasets.h"
#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "common/timer.h"
#include "core/ars.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/nonadaptive_greedy.h"
#include "core/target_selection.h"

int main(int argc, char** argv) {
  const uint32_t k = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 50;
  const uint32_t worlds =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 5;

  atpm::Result<atpm::BenchDataset> dataset =
      atpm::BuildDataset("HepMini", 1.0, 3);
  if (!dataset.ok()) return 1;
  const atpm::Graph& graph = dataset.value().graph;
  std::printf("dataset: HepMini (n=%u, m=%llu), k=%u, %u realizations\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), k, worlds);

  atpm::WallTimer selection_timer;
  atpm::Result<atpm::TargetSelectionResult> selection =
      atpm::BuildTopKTargetProblem(graph, k,
                                   atpm::CostScheme::kDegreeProportional);
  if (!selection.ok()) {
    std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
    return 1;
  }
  const atpm::ProfitProblem& problem = selection.value().problem;
  std::printf("IMM target selection took %.2fs; E_l[I(T)] = c(T) = %.1f\n\n",
              selection_timer.ElapsedSeconds(), problem.TotalTargetCost());

  atpm::ExperimentRunner runner(problem, worlds, 99);
  atpm::TablePrinter table({"algorithm", "mean profit", "mean #seeds",
                            "time (s)"});

  // Adaptive algorithms. All sampling goes through the SamplingEngine
  // layer; four threads keep one warm worker pool across every world.
  atpm::HatpOptions hatp_options;
  hatp_options.sampling.num_threads = 4;
  atpm::HatpPolicy hatp(hatp_options);
  atpm::Result<atpm::AlgoStats> hatp_stats = runner.RunAdaptive(&hatp);
  if (!hatp_stats.ok()) return 1;
  table.AddRow({"HATP (adaptive)",
                atpm::FormatDouble(hatp_stats.value().mean_profit, 1),
                atpm::FormatDouble(hatp_stats.value().mean_seeds, 1),
                atpm::FormatSeconds(hatp_stats.value().mean_seconds)});

  atpm::ArsPolicy ars;
  atpm::Result<atpm::AlgoStats> ars_stats = runner.RunAdaptive(&ars);
  if (!ars_stats.ok()) return 1;
  table.AddRow({"ARS (adaptive, random)",
                atpm::FormatDouble(ars_stats.value().mean_profit, 1),
                atpm::FormatDouble(ars_stats.value().mean_seeds, 1),
                atpm::FormatSeconds(ars_stats.value().mean_seconds)});

  // Nonadaptive batches, sized by HATP's largest per-iteration spend (in
  // shared-pool units, the paper's sizing rule).
  const uint64_t theta = std::max<uint64_t>(
      atpm::SharedPoolIterationSpend(
          hatp_options.sampling,
          hatp_stats.value().max_rr_sets_per_iteration),
      1024);

  {
    atpm::Rng rng(31);
    atpm::WallTimer timer;
    atpm::Result<atpm::HntpResult> hntp =
        RunHntp(problem, hatp_options, &rng);
    if (!hntp.ok()) return 1;
    atpm::AlgoStats stats =
        runner.EvaluateFixedSet(hntp.value().seeds, timer.ElapsedSeconds());
    table.AddRow({"HNTP (nonadaptive HATP)",
                  atpm::FormatDouble(stats.mean_profit, 1),
                  atpm::FormatDouble(stats.mean_seeds, 0),
                  atpm::FormatSeconds(stats.mean_seconds)});
  }
  {
    atpm::Rng rng(32);
    atpm::WallTimer timer;
    atpm::Result<atpm::NonadaptiveResult> nsg =
        RunNsg(problem, theta, &rng);
    if (!nsg.ok()) return 1;
    atpm::AlgoStats stats =
        runner.EvaluateFixedSet(nsg.value().seeds, timer.ElapsedSeconds());
    table.AddRow({"NSG (simple greedy)",
                  atpm::FormatDouble(stats.mean_profit, 1),
                  atpm::FormatDouble(stats.mean_seeds, 0),
                  atpm::FormatSeconds(stats.mean_seconds)});
  }
  {
    atpm::Rng rng(33);
    atpm::WallTimer timer;
    atpm::Result<atpm::NonadaptiveResult> ndg =
        RunNdg(problem, theta, &rng);
    if (!ndg.ok()) return 1;
    atpm::AlgoStats stats =
        runner.EvaluateFixedSet(ndg.value().seeds, timer.ElapsedSeconds());
    table.AddRow({"NDG (double greedy)",
                  atpm::FormatDouble(stats.mean_profit, 1),
                  atpm::FormatDouble(stats.mean_seeds, 0),
                  atpm::FormatSeconds(stats.mean_seconds)});
  }

  atpm::AlgoStats baseline = runner.EvaluateBaseline();
  table.AddRow({"Baseline (seed all of T)",
                atpm::FormatDouble(baseline.mean_profit, 1),
                atpm::FormatDouble(baseline.mean_seeds, 0), "0"});

  table.Print(std::cout);
  std::printf("\n(NSG/NDG pool: theta = %llu RR sets — HATP's largest "
              "per-iteration spend, the paper's sizing rule.)\n",
              static_cast<unsigned long long>(theta));
  return 0;
}
