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
// the two is reported. A third HATP run enables speculative cross-
// candidate pipelining (lookahead_window > 0): each round's pool also
// answers the first-round queries of upcoming candidates, so decisions
// whose epoch never moved start with a free round; the pipelined-vs-
// batched count-pools-per-decision ratio and the speculation hit rate are
// reported. With ATPM_TRACE=1 the whole run is also written out as a
// trace and a metrics report, and a per-span time summary is printed (see
// the end of main).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
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
  for (const atpm::AdaptiveStepRecord& step : run.steps) {
    if (step.rr_sets_used > 0 || step.first_round_speculative) {
      ++effort.decisions;
    }
  }
  return effort;
}

// Writes `contents` to `path`; on a failed open or a short write or close,
// reports the path and returns false.
bool WriteArtifact(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != contents.size() || !closed) {
    std::fprintf(stderr, "short write on %s\n", path.c_str());
    return false;
  }
  return true;
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

  // Baseline sample size: HATP's largest per-iteration spend on one world
  // (the paper's NSG/NDG sizing rule). Batched rounds keep their counts,
  // so that spend is the θ of a decision's last round, not Σ θ_i. It is
  // clamped to half the configured cap (the cap's shared-pool ceiling in
  // R1+R2 units) so the scaling series stays at the historical magnitude
  // even though the comparison runs had headroom.
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

    // Each greedy samples its own pool of theta sets and answers its whole
    // target sweep on it.
    const uint64_t batched_queries =
        nsg.value().batched_queries + ndg.value().batched_queries;
    table.AddRow(
        {std::to_string(scale), atpm::FormatSeconds(nsg_time),
         atpm::FormatSeconds(ndg_time),
         atpm::FormatDouble(
             runner.EvaluateFixedSet(nsg.value().seeds, 0.0).mean_profit, 1),
         atpm::FormatDouble(
             runner.EvaluateFixedSet(ndg.value().seeds, 0.0).mean_profit, 1),
         std::to_string(nsg.value().num_rr_sets + ndg.value().num_rr_sets),
         atpm::FormatDouble(static_cast<double>(batched_queries) / 2.0, 1)});
  }
  table.Print(std::cout);
  std::printf("\nHATP profit on the same instance (for reference): %.1f\n",
              batched_run.realized_profit);

  // --- Observability artifacts. When tracing is on (ATPM_TRACE=1) the
  // whole run above was recorded as nested decision -> round -> pool-fill
  // spans, and the process metric registry holds the engine's latency and
  // batch-size histograms; persist both so CI can upload the timeline
  // (Perfetto / chrome://tracing loadable) and sanity-check the metrics,
  // and print where the traced time went per span name.
  if (atpm::obs::TraceEnabled()) {
    const char* prefix = std::getenv("ATPM_OBS_OUT_PREFIX");
    if (prefix == nullptr) prefix = "fig9";
    const std::string trace_path = std::string(prefix) + "_trace.json";
    const std::string prom_path = std::string(prefix) + "_metrics.prom";
    if (!WriteArtifact(trace_path, atpm::obs::ExportChromeTraceJson()) ||
        !WriteArtifact(
            prom_path,
            atpm::obs::MetricsRegistry::Global().ExportPrometheus())) {
      return 1;
    }
    const std::vector<atpm::obs::TraceEvent> events =
        atpm::obs::CollectTraceEvents();
    std::printf("\n=== Trace span summary (%zu spans kept, %llu dropped) ===\n",
                events.size(),
                static_cast<unsigned long long>(
                    atpm::obs::DroppedTraceEvents()));
    atpm::TablePrinter span_table(
        {"span", "count", "total_ms", "self_ms", "mean_us", "max_us"});
    // Span durations are in ns: totals print in ms, per-span figures in µs.
    const auto ms = [](double ns) { return atpm::FormatDouble(ns * 1e-6, 3); };
    const auto us = [](double ns) { return atpm::FormatDouble(ns * 1e-3, 3); };
    for (const atpm::obs::SpanSummary& row :
         atpm::obs::SummarizeSpans(events)) {
      span_table.AddRow({row.name, std::to_string(row.count),
                         ms(static_cast<double>(row.total_ns)),
                         ms(static_cast<double>(row.self_ns)),
                         us(static_cast<double>(row.total_ns) /
                            static_cast<double>(row.count)),
                         us(static_cast<double>(row.max_ns))});
    }
    span_table.Print(std::cout);
    std::printf("wrote %s + %s\n", trace_path.c_str(), prom_path.c_str());
  }
  return 0;
}
