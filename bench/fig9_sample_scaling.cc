// Fig. 9 of the paper: NSG and NDG with the sample size scaled by
// {1, 2, 4, 8, 16, 32} on Epinions (largest k, degree-proportional cost).
//   (a) running time grows linearly with the sample size;
//   (b) profit stays essentially flat — the adaptive advantage of HATP is
//       due to adaptivity, not sample count.
//
// On top of the paper's figure, this bench instruments the batched
// coverage-query layer: HATP runs once with batched rounds (one shared RR
// pool answers a round's front + rear queries) and once with the literal
// two-pools-per-round sampling, and the RR-sets-per-decision ratio between
// the two is reported. Results are also emitted as BENCH_batching.json
// (override the path with ATPM_BENCH_OUT) so the perf trajectory of the
// batching layer is machine-readable.
//
// A third HATP run enables speculative cross-candidate pipelining
// (lookahead_window > 0): each round's pool also answers the first-round
// queries of upcoming candidates, so decisions whose epoch never moved
// start with a free round. The pipelined-vs-batched count-pools-per-
// decision ratio and the speculation hit rate are emitted as
// BENCH_pipelining.json (override with ATPM_BENCH_PIPELINE_OUT).
//
// Finally, the RR-generation kernel is compared end to end: two more HATP
// runs (batched rounds, no lookahead) under the geometric-jump and
// per-edge kernels, with the engine injected so its lifetime SamplingStats
// (rng_draws / edges_examined) are readable afterwards. The
// draws-per-edge ratio and wall-clock speedup are emitted as
// BENCH_kernel_e2e.json (override with ATPM_BENCH_KERNEL_OUT); the
// microbenchmark-grade kernel series lives in BENCH_kernel.json, written
// by micro_substrates under --benchmark_filter=Kernel.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/datasets.h"
#include "bench_util/experiment.h"
#include "bench_util/grid.h"
#include "bench_util/table_printer.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/hatp.h"
#include "core/nonadaptive_greedy.h"
#include "core/target_selection.h"

namespace {

// Per-mode HATP sampling-effort summary derived from the run telemetry.
struct HatpEffort {
  uint64_t total_rr_sets = 0;
  uint64_t decisions = 0;  // examined candidates (sampled or served free)
  uint64_t coverage_queries = 0;
  uint64_t count_pools = 0;
  uint64_t speculation_hits = 0;
  uint64_t speculation_misses = 0;
  uint64_t speculation_discarded = 0;
  double seconds = 0.0;
  double profit = 0.0;

  double RrSetsPerDecision() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(total_rr_sets) /
                                static_cast<double>(decisions);
  }
  double PoolsPerDecision() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(count_pools) /
                                static_cast<double>(decisions);
  }
  double SpeculationHitRate() const {
    const uint64_t attempts = speculation_hits + speculation_misses;
    return attempts == 0 ? 0.0
                         : static_cast<double>(speculation_hits) /
                               static_cast<double>(attempts);
  }
  double ReuseRatio() const {
    return count_pools == 0 ? 0.0
                            : static_cast<double>(coverage_queries) /
                                  static_cast<double>(count_pools);
  }
};

HatpEffort SummarizeHatp(const atpm::AdaptiveRunResult& run, double seconds) {
  HatpEffort effort;
  effort.total_rr_sets = run.total_rr_sets;
  effort.coverage_queries = run.total_coverage_queries;
  effort.count_pools = run.total_count_pools;
  effort.speculation_hits = run.speculation_hits;
  effort.speculation_misses = run.speculation_misses;
  effort.speculation_discarded = run.speculation_discarded;
  effort.seconds = seconds;
  effort.profit = run.realized_profit;
  for (const atpm::AdaptiveStepRecord& step : run.steps) {
    if (step.rr_sets_used > 0 || step.first_round_speculative) {
      ++effort.decisions;
    }
  }
  return effort;
}

void PrintEffortJson(std::FILE* out, const char* key,
                     const HatpEffort& effort) {
  std::fprintf(out,
               "    \"%s\": {\"total_rr_sets\": %llu, \"decisions\": %llu, "
               "\"rr_sets_per_decision\": %.1f, \"coverage_queries\": %llu, "
               "\"count_pools\": %llu, \"pools_per_decision\": %.3f, "
               "\"reuse_ratio\": %.3f, \"speculation_hits\": %llu, "
               "\"speculation_misses\": %llu, "
               "\"speculation_discarded\": %llu, "
               "\"speculation_hit_rate\": %.3f, "
               "\"seconds\": %.3f, \"profit\": %.2f}",
               key, static_cast<unsigned long long>(effort.total_rr_sets),
               static_cast<unsigned long long>(effort.decisions),
               effort.RrSetsPerDecision(),
               static_cast<unsigned long long>(effort.coverage_queries),
               static_cast<unsigned long long>(effort.count_pools),
               effort.PoolsPerDecision(), effort.ReuseRatio(),
               static_cast<unsigned long long>(effort.speculation_hits),
               static_cast<unsigned long long>(effort.speculation_misses),
               static_cast<unsigned long long>(effort.speculation_discarded),
               effort.SpeculationHitRate(), effort.seconds, effort.profit);
}

}  // namespace

int main() {
  atpm::GridConfig config = atpm::GridConfig::FromEnv();
  atpm::Result<atpm::BenchDataset> dataset =
      atpm::BuildDataset("Epinions", config.scale, config.seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const atpm::Graph& graph = dataset.value().graph;
  const uint32_t k = atpm::BenchSeedGrid(graph.num_nodes() / 4).back();

  atpm::TargetSelectionOptions sel_options;
  sel_options.seed = config.seed + k;
  sel_options.num_threads = config.threads;
  atpm::Result<atpm::TargetSelectionResult> selection =
      atpm::BuildTopKTargetProblem(
          graph, k, atpm::CostScheme::kDegreeProportional, sel_options);
  if (!selection.ok()) {
    std::fprintf(stderr, "target selection failed: %s\n",
                 selection.status().ToString().c_str());
    return 1;
  }
  const atpm::ProfitProblem& problem = selection.value().problem;
  atpm::ExperimentRunner runner(problem, config.realizations, config.seed);

  // --- HATP, batched vs unbatched rounds, on the same world and seed. The
  // RR-sets-per-decision ratio is the headline number of the batching
  // layer: one shared pool per halving round vs two. The comparison runs
  // get budget headroom above the configured cap — a cap-truncated
  // decision spends the cap in either mode, which measures the budget, not
  // the batching (RR sets are counted, never stored, so this costs time,
  // not memory).
  atpm::HatpOptions hatp_options;
  hatp_options.sampling.max_rr_sets_per_decision = std::max<uint64_t>(
      config.hatp_rr_cap, atpm::SamplingOptions{}.max_rr_sets_per_decision);
  hatp_options.sampling.num_threads = config.threads;
  constexpr uint32_t kLookaheadWindow = 4;
  // Modes: 0 = batched rounds, 1 = the literal two pools per round,
  // 2 = batched + speculative cross-candidate pipelining.
  constexpr int kNumModes = 3;
  const char* mode_names[kNumModes] = {"batched", "unbatched", "pipelined"};
  HatpEffort efforts[kNumModes];
  atpm::AdaptiveRunResult batched_run;
  for (int mode = 0; mode < kNumModes; ++mode) {
    atpm::HatpOptions options = hatp_options;
    options.sampling.batched_rounds = mode != 1;
    options.sampling.lookahead_window = mode == 2 ? kLookaheadWindow : 0;
    atpm::HatpPolicy hatp(options);
    atpm::AdaptiveEnvironment env{atpm::Realization(runner.worlds()[0])};
    atpm::Rng rng(runner.WorldSeed(0));
    atpm::WallTimer timer;
    atpm::Result<atpm::AdaptiveRunResult> run =
        hatp.Run(problem, &env, &rng);
    if (!run.ok()) {
      std::fprintf(stderr, "HATP (%s) failed: %s\n", mode_names[mode],
                   run.status().ToString().c_str());
      return 1;
    }
    efforts[mode] = SummarizeHatp(run.value(), timer.ElapsedSeconds());
    if (mode == 0) batched_run = std::move(run).value();
  }
  const double per_decision_ratio =
      efforts[0].RrSetsPerDecision() > 0.0
          ? efforts[1].RrSetsPerDecision() / efforts[0].RrSetsPerDecision()
          : 0.0;
  const double pools_per_decision_ratio =
      efforts[2].PoolsPerDecision() > 0.0
          ? efforts[0].PoolsPerDecision() / efforts[2].PoolsPerDecision()
          : 0.0;

  std::printf("=== Batched coverage-query layer: HATP RR-set effort ===\n");
  atpm::TablePrinter effort_table(
      {"mode", "RR sets", "decisions", "RR/decision", "queries", "pools",
       "pools/dec", "reuse", "spec hit", "time(s)"});
  for (int mode = 0; mode < kNumModes; ++mode) {
    effort_table.AddRow(
        {mode_names[mode], std::to_string(efforts[mode].total_rr_sets),
         std::to_string(efforts[mode].decisions),
         atpm::FormatDouble(efforts[mode].RrSetsPerDecision(), 1),
         std::to_string(efforts[mode].coverage_queries),
         std::to_string(efforts[mode].count_pools),
         atpm::FormatDouble(efforts[mode].PoolsPerDecision(), 2),
         atpm::FormatDouble(efforts[mode].ReuseRatio(), 2),
         atpm::FormatDouble(efforts[mode].SpeculationHitRate(), 2),
         atpm::FormatSeconds(efforts[mode].seconds)});
  }
  effort_table.Print(std::cout);
  std::printf("RR sets per decision: unbatched/batched = %.2fx\n",
              per_decision_ratio);
  std::printf(
      "Count pools per decision: batched/pipelined = %.2fx "
      "(lookahead %u, hit rate %.2f, discarded %llu)\n\n",
      pools_per_decision_ratio, kLookaheadWindow,
      efforts[2].SpeculationHitRate(),
      static_cast<unsigned long long>(efforts[2].speculation_discarded));

  // --- Kernel comparison: the same batched HATP decision loop under the
  // geometric-jump vs per-edge kernels. Engines are injected so the
  // lifetime draw/edge accounting is readable after the run (the run
  // telemetry itself carries RR-set counts only).
  struct KernelRun {
    double seconds = 0.0;
    double profit = 0.0;
    uint64_t rr_sets = 0;
    uint64_t rng_draws = 0;
    uint64_t edges_examined = 0;
    double DrawsPerEdge() const {
      return edges_examined == 0 ? 0.0
                                 : static_cast<double>(rng_draws) /
                                       static_cast<double>(edges_examined);
    }
  };
  const char* kernel_names[2] = {"geometric-jump", "per-edge"};
  KernelRun kernel_runs[2];
  for (int kmode = 0; kmode < 2; ++kmode) {
    atpm::HatpOptions options = hatp_options;
    options.sampling.kernel = kmode == 0 ? atpm::SamplingKernel::kGeometricJump
                                         : atpm::SamplingKernel::kPerEdge;
    std::unique_ptr<atpm::SamplingEngine> engine = atpm::CreateSamplingEngine(
        graph, options.model, options.sampling);
    atpm::HatpPolicy hatp(options);
    hatp.set_engine(engine.get());
    atpm::AdaptiveEnvironment env{atpm::Realization(runner.worlds()[0])};
    atpm::Rng rng(runner.WorldSeed(0));
    atpm::WallTimer timer;
    atpm::Result<atpm::AdaptiveRunResult> run = hatp.Run(problem, &env, &rng);
    if (!run.ok()) {
      std::fprintf(stderr, "HATP (%s kernel) failed: %s\n",
                   kernel_names[kmode], run.status().ToString().c_str());
      return 1;
    }
    KernelRun& record = kernel_runs[kmode];
    record.seconds = timer.ElapsedSeconds();
    record.profit = run.value().realized_profit;
    record.rr_sets = run.value().total_rr_sets;
    record.rng_draws = engine->stats().rng_draws;
    record.edges_examined = engine->stats().edges_examined;
  }
  const double draws_per_edge_ratio =
      kernel_runs[0].DrawsPerEdge() > 0.0
          ? kernel_runs[1].DrawsPerEdge() / kernel_runs[0].DrawsPerEdge()
          : 0.0;
  const double kernel_speedup = kernel_runs[0].seconds > 0.0
                                    ? kernel_runs[1].seconds /
                                          kernel_runs[0].seconds
                                    : 0.0;

  std::printf("=== RR-generation kernel: HATP end to end ===\n");
  atpm::TablePrinter kernel_table(
      {"kernel", "RR sets", "RNG draws", "edges", "draws/edge", "time(s)",
       "profit"});
  for (int kmode = 0; kmode < 2; ++kmode) {
    const KernelRun& record = kernel_runs[kmode];
    kernel_table.AddRow(
        {kernel_names[kmode], std::to_string(record.rr_sets),
         std::to_string(record.rng_draws),
         std::to_string(record.edges_examined),
         atpm::FormatDouble(record.DrawsPerEdge(), 3),
         atpm::FormatSeconds(record.seconds),
         atpm::FormatDouble(record.profit, 1)});
  }
  kernel_table.Print(std::cout);
  std::printf(
      "Draws per edge: per-edge/geometric-jump = %.2fx; kernel speedup = "
      "%.2fx\n\n",
      draws_per_edge_ratio, kernel_speedup);

  // Baseline sample size: HATP's largest per-iteration spend on one world
  // (the paper's NSG/NDG sizing rule; shared-pool units under batching),
  // clamped back to the configured cap's shared-pool ceiling (cap/2, since
  // the cap is in R1+R2 units) so the scaling series stays at the
  // historical magnitude even though the comparison runs had headroom.
  const uint64_t theta_base = std::max<uint64_t>(
      std::min<uint64_t>(batched_run.max_rr_sets_per_iteration,
                         config.hatp_rr_cap / 2),
      1024);

  std::printf("=== Fig. 9: NSG/NDG vs sample size, Epinions, k=%u, "
              "degree cost (base theta=%llu) ===\n",
              k, static_cast<unsigned long long>(theta_base));
  atpm::TablePrinter table({"scale", "NSG time(s)", "NDG time(s)",
                            "NSG profit", "NDG profit", "RR sets",
                            "reuse(q/pool)"});

  struct ScalingRow {
    uint32_t scale;
    double nsg_time, ndg_time, nsg_profit, ndg_profit;
    uint64_t rr_sets, batched_queries;
  };
  std::vector<ScalingRow> rows;

  for (uint32_t scale : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const uint64_t theta = theta_base * scale;

    atpm::Rng nsg_rng(config.seed * 17 + scale);
    atpm::WallTimer nsg_timer;
    atpm::Result<atpm::NonadaptiveResult> nsg =
        atpm::RunNsg(problem, theta, &nsg_rng);
    const double nsg_time = nsg_timer.ElapsedSeconds();
    if (!nsg.ok()) return 1;

    atpm::Rng ndg_rng(config.seed * 19 + scale);
    atpm::WallTimer ndg_timer;
    atpm::Result<atpm::NonadaptiveResult> ndg =
        atpm::RunNdg(problem, theta, &ndg_rng);
    const double ndg_time = ndg_timer.ElapsedSeconds();
    if (!ndg.ok()) return 1;

    ScalingRow row;
    row.scale = scale;
    row.nsg_time = nsg_time;
    row.ndg_time = ndg_time;
    row.nsg_profit =
        runner.EvaluateFixedSet(nsg.value().seeds, 0.0).mean_profit;
    row.ndg_profit =
        runner.EvaluateFixedSet(ndg.value().seeds, 0.0).mean_profit;
    // Each greedy samples its own pool of theta sets and answers its whole
    // target sweep on it.
    row.rr_sets = nsg.value().num_rr_sets + ndg.value().num_rr_sets;
    row.batched_queries =
        nsg.value().batched_queries + ndg.value().batched_queries;
    rows.push_back(row);

    table.AddRow({std::to_string(scale), atpm::FormatSeconds(nsg_time),
                  atpm::FormatSeconds(ndg_time),
                  atpm::FormatDouble(row.nsg_profit, 1),
                  atpm::FormatDouble(row.ndg_profit, 1),
                  std::to_string(row.rr_sets),
                  atpm::FormatDouble(
                      static_cast<double>(row.batched_queries) / 2.0, 1)});
  }
  table.Print(std::cout);
  std::printf("\nHATP profit on the same instance (for reference): %.1f\n",
              batched_run.realized_profit);

  // --- Machine-readable trajectory for CI artifacts.
  const char* out_path = std::getenv("ATPM_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_batching.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fig9_sample_scaling\",\n");
  std::fprintf(out, "  \"dataset\": \"Epinions\",\n  \"k\": %u,\n", k);
  std::fprintf(out, "  \"hatp\": {\n");
  PrintEffortJson(out, "batched", efforts[0]);
  std::fprintf(out, ",\n");
  PrintEffortJson(out, "unbatched", efforts[1]);
  std::fprintf(out, ",\n    \"rr_sets_per_decision_ratio\": %.3f\n  },\n",
               per_decision_ratio);
  std::fprintf(out, "  \"scaling\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& row = rows[i];
    std::fprintf(out,
                 "    {\"scale\": %u, \"nsg_seconds\": %.3f, "
                 "\"ndg_seconds\": %.3f, \"nsg_profit\": %.2f, "
                 "\"ndg_profit\": %.2f, \"rr_sets\": %llu, "
                 "\"batched_queries\": %llu}%s\n",
                 row.scale, row.nsg_time, row.ndg_time, row.nsg_profit,
                 row.ndg_profit,
                 static_cast<unsigned long long>(row.rr_sets),
                 static_cast<unsigned long long>(row.batched_queries),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  // --- Pipelining trajectory: pipelined vs plain batched rounds.
  const char* pipeline_path = std::getenv("ATPM_BENCH_PIPELINE_OUT");
  if (pipeline_path == nullptr) pipeline_path = "BENCH_pipelining.json";
  std::FILE* pipeline_out = std::fopen(pipeline_path, "w");
  if (pipeline_out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", pipeline_path);
    return 1;
  }
  std::fprintf(pipeline_out, "{\n  \"benchmark\": \"fig9_pipelining\",\n");
  std::fprintf(pipeline_out,
               "  \"dataset\": \"Epinions\",\n  \"k\": %u,\n"
               "  \"lookahead_window\": %u,\n  \"hatp\": {\n",
               k, kLookaheadWindow);
  PrintEffortJson(pipeline_out, "batched", efforts[0]);
  std::fprintf(pipeline_out, ",\n");
  PrintEffortJson(pipeline_out, "pipelined", efforts[2]);
  std::fprintf(pipeline_out,
               ",\n    \"count_pools_per_decision_ratio\": %.3f\n  }\n}\n",
               pools_per_decision_ratio);
  std::fclose(pipeline_out);
  std::printf("wrote %s\n", pipeline_path);

  // --- End-to-end kernel trajectory.
  const char* kernel_path = std::getenv("ATPM_BENCH_KERNEL_OUT");
  if (kernel_path == nullptr) kernel_path = "BENCH_kernel_e2e.json";
  std::FILE* kernel_out = std::fopen(kernel_path, "w");
  if (kernel_out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", kernel_path);
    return 1;
  }
  std::fprintf(kernel_out, "{\n  \"benchmark\": \"fig9_kernel\",\n");
  std::fprintf(kernel_out,
               "  \"dataset\": \"Epinions\",\n  \"k\": %u,\n"
               "  \"hatp\": {\n",
               k);
  for (int kmode = 0; kmode < 2; ++kmode) {
    const KernelRun& record = kernel_runs[kmode];
    std::fprintf(kernel_out,
                 "    \"%s\": {\"rr_sets\": %llu, \"rng_draws\": %llu, "
                 "\"edges_examined\": %llu, \"draws_per_edge\": %.4f, "
                 "\"seconds\": %.3f, \"profit\": %.2f},\n",
                 kernel_names[kmode],
                 static_cast<unsigned long long>(record.rr_sets),
                 static_cast<unsigned long long>(record.rng_draws),
                 static_cast<unsigned long long>(record.edges_examined),
                 record.DrawsPerEdge(), record.seconds, record.profit);
  }
  std::fprintf(kernel_out,
               "    \"draws_per_edge_ratio\": %.3f,\n"
               "    \"kernel_speedup\": %.3f\n  }\n}\n",
               draws_per_edge_ratio, kernel_speedup);
  std::fclose(kernel_out);
  std::printf("wrote %s\n", kernel_path);

  // --- Observability artifacts. When tracing is on (ATPM_TRACE=1) the
  // whole run above was recorded as nested decision -> round -> pool-fill
  // spans and mirrored into the process metric registry; persist both so
  // CI can upload the timeline (Perfetto / chrome://tracing loadable) and
  // sanity-check the metric run-report.
  if (atpm::obs::TraceEnabled()) {
    const char* prefix = std::getenv("ATPM_OBS_OUT_PREFIX");
    if (prefix == nullptr) prefix = "fig9";
    const std::string trace_json = std::string(prefix) + "_trace.json";
    const std::string trace_bin = std::string(prefix) + "_trace.atrace";
    for (const auto& [path, status] :
         {std::pair(trace_json, atpm::obs::WriteChromeTrace(trace_json)),
          std::pair(trace_bin, atpm::obs::WriteBinaryTrace(trace_bin))}) {
      if (!status.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 1;
      }
    }
    const std::pair<std::string, std::string> reports[] = {
        {std::string(prefix) + "_metrics.json",
         atpm::obs::MetricsRegistry::Global().ExportJson()},
        {std::string(prefix) + "_metrics.prom",
         atpm::obs::MetricsRegistry::Global().ExportPrometheus()},
    };
    for (const auto& [path, body] : reports) {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      std::fputs(body.c_str(), f);
      std::fclose(f);
    }
    std::printf(
        "wrote %s_trace.{json,atrace} + %s_metrics.{json,prom} "
        "(%zu spans kept, %llu dropped)\n",
        prefix, prefix, atpm::obs::CollectTraceEvents().size(),
        static_cast<unsigned long long>(atpm::obs::DroppedTraceEvents()));
  }
  return 0;
}
