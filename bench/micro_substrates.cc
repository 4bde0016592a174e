// google-benchmark microbenchmarks for the substrate layers: graph
// construction, generators, IC simulation, realization sampling, RR-set
// generation, and coverage queries. These are the kernels whose cost the
// paper's complexity analysis (Theorems 3, 5) is expressed in.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "diffusion/ic_model.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"
#include "rris/sampling_stats.h"

namespace atpm {
namespace {

Graph BenchGraph(NodeId n) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

// Fails the benchmark on a sampling error (a micro benchmark has no
// degraded mode worth timing); returns whether the call succeeded.
bool Sampled(benchmark::State& state, const Status& status) {
  if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  return status.ok();
}

// Weighting schemes for the kernel benches: 0 = weighted cascade,
// 1 = trivalency, 2 = uniform-random (the general-class fallback).
// `edges_per_node` controls vector length: the reverse series keeps the
// historical 3; the forward series uses 8, where probability vectors are
// long enough for the inverse-CDF jump to amortize its per-vector draw.
Graph KernelBenchGraph(NodeId n, int weighting, int edges_per_node = 3) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = edges_per_node;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  Rng wrng(99);
  switch (weighting) {
    case 0:
      ApplyWeightedCascade(&g);
      break;
    case 1:
      ApplyTrivalency(&g, &wrng);
      break;
    default:
      ApplyUniformRandomProbability(&g, 0.01, 0.5, &wrng);
      break;
  }
  return g;
}

void BM_GraphBuildCsr(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  std::vector<WeightedEdge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 0; j < 6; ++j) {
      edges.push_back(WeightedEdge{
          u, static_cast<NodeId>(rng.UniformInt(n)), 0.1f});
    }
  }
  for (auto _ : state) {
    GraphBuilder builder;
    for (const WeightedEdge& e : edges) builder.AddEdge(e.src, e.dst, e.prob);
    Graph g = builder.Build().value();
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuildCsr)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  Rng rng(5);
  BarabasiAlbertOptions options;
  options.num_nodes = static_cast<NodeId>(state.range(0));
  options.edges_per_node = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateBarabasiAlbert(options, &rng).value().num_edges());
  }
}
BENCHMARK(BM_GenerateBarabasiAlbert)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenerateRMat(benchmark::State& state) {
  Rng rng(6);
  RMatOptions options;
  options.scale = static_cast<uint32_t>(state.range(0));
  options.num_edges = (1ull << options.scale) * 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRMat(options, &rng).value().num_edges());
  }
}
BENCHMARK(BM_GenerateRMat)->Arg(12)->Arg(14);

void BM_ForwardIcSimulation(benchmark::State& state) {
  const Graph g = BenchGraph(static_cast<NodeId>(state.range(0)));
  Rng rng(11);
  std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateIC(g, seeds, &rng));
  }
}
BENCHMARK(BM_ForwardIcSimulation)->Arg(1 << 12)->Arg(1 << 15);

void BM_RealizationSample(benchmark::State& state) {
  const Graph g = BenchGraph(static_cast<NodeId>(state.range(0)));
  Rng rng(13);
  for (auto _ : state) {
    Realization world = Realization::Sample(g, &rng);
    benchmark::DoNotOptimize(world.NumLiveEdges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_RealizationSample)->Arg(1 << 12)->Arg(1 << 15);

void BM_RrSetGeneration(benchmark::State& state) {
  const Graph g = BenchGraph(static_cast<NodeId>(state.range(0)));
  RRSetGenerator generator(g);
  Rng rng(17);
  std::vector<NodeId> rr;
  for (auto _ : state) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    benchmark::DoNotOptimize(rr.size());
  }
}
BENCHMARK(BM_RrSetGeneration)->Arg(1 << 12)->Arg(1 << 15);

void BM_RrCountCovering(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  RRSetGenerator generator(g);
  Rng rng(19);
  BitVector base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) base.Set(v);
  const uint64_t theta = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.CountCovering(
        nullptr, g.num_nodes(), theta, 0, &base, &rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(theta));
}
BENCHMARK(BM_RrCountCovering)->Arg(1 << 10)->Arg(1 << 13);

// Counting through the policies' engine slot (SamplingEngineHandle): the
// persistent worker pool replaces the retired ParallelCountCovering
// wrapper, which paid a full thread-pool spin-up per query.
void BM_HandleCountCovering(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  BitVector base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) base.Set(v);
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SamplingOptions options;
  options.num_threads = threads;
  SamplingEngineHandle handle;
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  uint64_t salt = 1;
  for (auto _ : state) {
    SamplingEngine* engine =
        handle.Get(g, DiffusionModel::kIndependentCascade, options);
    const Result<uint64_t> sampled =
        engine->TryCountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(),
                                            1 << 15, ++salt);
    if (!Sampled(state, sampled.status())) break;
    benchmark::DoNotOptimize(batch.hits(0));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_HandleCountCovering)->Arg(1)->Arg(4)->Arg(8);

// Sampler-scaling series: the two SamplingEngine operations across thread
// counts, sized so the parallel backend is actually engaged. The acceptance
// bar for the engine layer is count-path throughput at 4 threads >= 2x the
// 1-thread run of the same benchmark.
void BM_SamplingEngineCountScaling(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SamplingOptions options;
  options.num_threads = threads;
  auto engine = CreateSamplingEngine(
      g, DiffusionModel::kIndependentCascade, options);
  BitVector base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) base.Set(v);
  Rng rng(37);
  const uint64_t theta = 1 << 15;
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  for (auto _ : state) {
    const Result<uint64_t> sampled =
        engine->TryCountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                                      &rng);
    if (!Sampled(state, sampled.status())) break;
    benchmark::DoNotOptimize(batch.hits(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(theta));
}
BENCHMARK(BM_SamplingEngineCountScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Batched coverage queries: one shared pool of theta RR sets answers a
// front/rear pair (the ADDATP/HATP round shape) in a single pass. Counters
// report the engine's RR-set accounting and the pool-reuse ratio — the
// whole point of the batch layer is reuse_ratio 2.0 at roughly the
// single-query pool cost.
void BM_SamplingEngineBatchCountScaling(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SamplingOptions options;
  options.num_threads = threads;
  auto engine = CreateSamplingEngine(
      g, DiffusionModel::kIndependentCascade, options);
  BitVector front_base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) front_base.Set(v);
  BitVector rear_base(g.num_nodes());
  for (NodeId v = 100; v < 400; ++v) rear_base.Set(v);
  Rng rng(43);
  const uint64_t theta = 1 << 15;
  CoverageQueryBatch batch;
  for (auto _ : state) {
    batch.Clear();
    batch.Add(0, &front_base);
    batch.Add(0, &rear_base);
    const Result<uint64_t> sampled =
        engine->TryCountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                                      &rng);
    if (!Sampled(state, sampled.status())) break;
    benchmark::DoNotOptimize(batch.hits(0) + batch.hits(1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(theta));
  state.counters["rr_sets_generated"] = static_cast<double>(
      engine->stats().rr_sets_generated);
  state.counters["reuse_ratio"] = engine->stats().ReuseRatio();
}
BENCHMARK(BM_SamplingEngineBatchCountScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// Kernel cost vs batch width: how much does each extra per-seed counter add
// to the single-pass walk? Width 1 is the historical one-query kernel.
void BM_CountCoveringBatchWidth(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  RRSetGenerator generator(g);
  Rng rng(47);
  BitVector base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) base.Set(v);
  const size_t width = static_cast<size_t>(state.range(0));
  std::vector<CoverageQuery> queries;
  for (size_t q = 0; q < width; ++q) {
    queries.push_back(CoverageQuery{static_cast<NodeId>(q), &base});
  }
  std::vector<uint64_t> hits(width);
  const uint64_t theta = 1 << 12;
  for (auto _ : state) {
    generator.CountCoveringBatch(nullptr, g.num_nodes(), theta, queries,
                                 hits.data(), &rng);
    benchmark::DoNotOptimize(hits[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(theta * width));
  state.counters["queries"] = static_cast<double>(width);
}
BENCHMARK(BM_CountCoveringBatchWidth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Stored-pool batch answering on the general (unindexed) scan path: a
// whole conditional-marginal sweep against one pool in one CSR pass — the
// RisSpreadOracle::ExpectedMarginalSpreads shape, every candidate
// conditioned on the same base. (The NSG/NDG all-unconditional shape takes
// the O(1)-per-query indexed fast path instead and is not worth timing.)
void BM_RrCollectionAnswerBatch(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 13);
  RRSetGenerator generator(g);
  RRCollection pool(g.num_nodes());
  Rng rng(53);
  pool.Generate(&generator, nullptr, g.num_nodes(), 1 << 14, &rng);
  BitVector base(g.num_nodes());
  for (NodeId v = 4000; v < 4100; ++v) base.Set(v);
  const size_t width = static_cast<size_t>(state.range(0));
  CoverageQueryBatch batch;
  for (size_t q = 0; q < width; ++q) {
    batch.Add(static_cast<NodeId>(q * 7 % 4000), &base);
  }
  for (auto _ : state) {
    pool.AnswerBatch(&batch);
    benchmark::DoNotOptimize(batch.hits(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(width));
}
BENCHMARK(BM_RrCollectionAnswerBatch)->Arg(16)->Arg(64)->Arg(256);

void BM_SamplingEnginePoolScaling(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SamplingOptions options;
  options.num_threads = threads;
  auto engine = CreateSamplingEngine(
      g, DiffusionModel::kIndependentCascade, options);
  Rng rng(41);
  const uint64_t count = 1 << 14;
  for (auto _ : state) {
    engine->ResetPool();
    const Status filled =
        engine->TryGeneratePool(nullptr, g.num_nodes(), count, &rng);
    if (!Sampled(state, filled)) break;
    benchmark::DoNotOptimize(engine->pool().total_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
}
BENCHMARK(BM_SamplingEnginePoolScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// ---- RR-generation kernel series (--benchmark_filter=Kernel): RR
// sets/sec and RNG draws per edge examined, per weighting class x kernel.
// The draw and edge counts behind draws_per_edge are pinned exactly by
// rr_kernel_test; scripts/bench_regression_check.py --fresh bounds the
// same-run jump/per-edge time ratios of the LT and world-sample series
// and the batched speedup of BM_KernelBatchGeneration.

void BM_KernelRrGeneration(benchmark::State& state) {
  const Graph g = KernelBenchGraph(1 << 14, static_cast<int>(state.range(0)));
  const SamplingKernel kernel = state.range(1) == 0
                                    ? SamplingKernel::kPerEdge
                                    : SamplingKernel::kGeometricJump;
  RRSetGenerator generator(g, DiffusionModel::kIndependentCascade, kernel);
  Rng rng(17);
  std::vector<NodeId> rr;
  uint64_t edges = 0;
  for (auto _ : state) {
    edges += generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    benchmark::DoNotOptimize(rr.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["draws_per_edge"] =
      edges == 0 ? 0.0
                 : static_cast<double>(generator.rng_draws()) /
                       static_cast<double>(edges);
  state.counters["jumpable_edge_fraction"] =
      g.InWeightClassProfile().JumpableEdgeFraction();
}
BENCHMARK(BM_KernelRrGeneration)
    ->ArgNames({"weighting", "jump"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}});

void BM_KernelLtRrGeneration(benchmark::State& state) {
  const Graph g = KernelBenchGraph(1 << 14, static_cast<int>(state.range(0)));
  const SamplingKernel kernel = state.range(1) == 0
                                    ? SamplingKernel::kPerEdge
                                    : SamplingKernel::kGeometricJump;
  RRSetGenerator generator(g, DiffusionModel::kLinearThreshold, kernel);
  Rng rng(19);
  std::vector<NodeId> rr;
  uint64_t edges = 0;
  for (auto _ : state) {
    edges += generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    benchmark::DoNotOptimize(rr.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["draws_per_edge"] =
      edges == 0 ? 0.0
                 : static_cast<double>(generator.rng_draws()) /
                       static_cast<double>(edges);
}
BENCHMARK(BM_KernelLtRrGeneration)
    ->ArgNames({"weighting", "jump"})
    ->ArgsProduct({{0, 1}, {0, 1}});

// Counting path at fig9-smoke magnitude: one θ-pool conditional-coverage
// query per iteration, reporting the engine-level draw accounting.
void BM_KernelCountCovering(benchmark::State& state) {
  const Graph g = KernelBenchGraph(1 << 13, static_cast<int>(state.range(0)));
  const SamplingKernel kernel = state.range(1) == 0
                                    ? SamplingKernel::kPerEdge
                                    : SamplingKernel::kGeometricJump;
  SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                              kernel);
  BitVector base(g.num_nodes());
  for (NodeId v = 100; v < 200; ++v) base.Set(v);
  Rng rng(23);
  const uint64_t theta = 1 << 12;
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  for (auto _ : state) {
    const Result<uint64_t> sampled =
        engine.TryCountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                                     &rng);
    if (!Sampled(state, sampled.status())) break;
    benchmark::DoNotOptimize(batch.hits(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(theta));
  state.counters["draws_per_edge"] = engine.stats().DrawsPerEdge();
  state.counters["rr_sets_generated"] =
      static_cast<double>(engine.stats().rr_sets_generated);
}
BENCHMARK(BM_KernelCountCovering)
    ->ArgNames({"weighting", "jump"})
    ->ArgsProduct({{0, 1}, {0, 1}});

// ---- Whole-world realization sampling: the same draws-per-edge
// accounting as the reverse RR benches. The jump kernel sweeps the
// in-edge weight-class index; the per-edge kernel flips every forward
// edge.

void BM_KernelWorldSample(benchmark::State& state) {
  const Graph g =
      KernelBenchGraph(1 << 14, static_cast<int>(state.range(0)), 8);
  const SamplingKernel kernel = state.range(1) == 0
                                    ? SamplingKernel::kPerEdge
                                    : SamplingKernel::kGeometricJump;
  Rng rng(37);
  SamplingStats stats;
  for (auto _ : state) {
    Realization world = Realization::Sample(
        g, &rng, DiffusionModel::kIndependentCascade, kernel, &stats);
    benchmark::DoNotOptimize(world.NumLiveEdges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
  state.counters["draws_per_edge"] = stats.DrawsPerEdge();
}
BENCHMARK(BM_KernelWorldSample)
    ->ArgNames({"weighting", "jump"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}});

// Batched vs looped pool fill on a heavily depleted residual graph (alive
// fraction below the root sampler's 2^-6 rejection cutoff, the late-round
// shape of heavily seeded adaptive instances) — the regime where
// GenerateBatch's single alive-root-cache build (vs one rebuild per
// Generate call, by contract) dominates. Throughput acceptance: batched
// items_per_second >= 1.3x the looped variant.
void BM_KernelBatchGeneration(benchmark::State& state) {
  // Trivalency reverse sets are tiny (mean prob ~0.04), so the per-call
  // alive-list rebuild is the dominant loop cost the batch amortizes.
  const Graph g = KernelBenchGraph(1 << 14, 1);
  const bool batched = state.range(0) != 0;
  BitVector removed(g.num_nodes());
  const uint32_t num_alive = 128;
  for (NodeId v = num_alive; v < g.num_nodes(); ++v) removed.Set(v);
  RRSetGenerator generator(g);
  Rng rng(43);
  const uint64_t count = 1 << 10;
  std::vector<NodeId> rr;
  for (auto _ : state) {
    RRCollection pool(g.num_nodes());
    if (batched) {
      pool.Generate(&generator, &removed, num_alive, count, &rng);
    } else {
      for (uint64_t i = 0; i < count; ++i) {
        generator.Generate(&removed, num_alive, &rng, &rr);
        pool.AddSet(rr);
      }
    }
    benchmark::DoNotOptimize(pool.total_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
}
BENCHMARK(BM_KernelBatchGeneration)->ArgNames({"batched"})->Arg(0)->Arg(1);

// Observability overhead: the same serial pool fill with the metric
// registry and tracer both off (obs:0) vs both on (obs:1), measured in the
// same run. Instruments accrue per batch/span, never per draw or set —
// trace_test pins that their touches do not grow with the batch — so the
// two timings should agree within noise. The disabled path is the
// guarantee the hot layers rely on: one relaxed atomic load per
// instrument touch.
void BM_ObservabilityOverhead(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  const bool enabled = state.range(0) != 0;
  obs::SetMetricsEnabled(enabled);
  obs::SetTraceEnabled(enabled);
  SerialSamplingEngine engine(g);
  Rng rng(61);
  const uint64_t count = 1 << 13;
  for (auto _ : state) {
    engine.ResetPool();
    const Status filled =
        engine.TryGeneratePool(nullptr, g.num_nodes(), count, &rng);
    if (!Sampled(state, filled)) break;
    benchmark::DoNotOptimize(engine.pool().total_nodes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
  // Restore the process defaults (metrics on, tracing off) so later
  // benchmarks in the same invocation see the stock configuration.
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(false);
  obs::ResetTrace();
}
BENCHMARK(BM_ObservabilityOverhead)
    ->ArgNames({"obs"})->Arg(0)->Arg(1)
    ->UseRealTime();

void BM_CoverageQueries(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 13);
  RRSetGenerator generator(g);
  RRCollection pool(g.num_nodes());
  Rng rng(23);
  pool.Generate(&generator, nullptr, g.num_nodes(),
                static_cast<uint64_t>(state.range(0)), &rng);
  BitVector base(g.num_nodes());
  for (NodeId v = 50; v < 120; ++v) base.Set(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ConditionalCoverage(0, base));
  }
}
BENCHMARK(BM_CoverageQueries)->Arg(1 << 12)->Arg(1 << 14);

void BM_RealizationSpreadQuery(benchmark::State& state) {
  const Graph g = BenchGraph(1 << 14);
  Rng rng(29);
  Realization world = Realization::Sample(g, &rng);
  std::vector<NodeId> seeds = {0, 1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.Spread(seeds));
  }
}
BENCHMARK(BM_RealizationSpreadQuery);

}  // namespace
}  // namespace atpm

// Custom main: unless the caller overrides it, benchmark JSON goes to
// BENCH_sampling.json so every series is machine-readable by default (run
// with --benchmark_filter=SamplingEngine for just the sampler-scaling
// series, or --benchmark_filter=Kernel for the RR-kernel series).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: --benchmark_out_format alone must not suppress the
    // default output file.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_sampling.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  // Build type of the *timed* code (this binary). The stock
  // "library_build_type" context reports how the google-benchmark library
  // was compiled — Debian's packaged libbenchmark ships without NDEBUG and
  // thus always says "debug", which is about the harness, not the kernels
  // being measured. CI asserts on this field to reject accidentally
  // unoptimized benchmark records.
#ifdef NDEBUG
  benchmark::AddCustomContext("atpm_build_type", "release");
#else
  benchmark::AddCustomContext("atpm_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
