// Ablation: storage-free conditional-coverage counting (with early abort)
// vs the naive generate-store-scan pipeline.
//
// ADDATP/HATP use each per-round RR pool for exactly one Cov(u | base)
// query. A count batch folds the query into generation: no pool storage,
// and a reverse BFS aborts the moment it touches `base`. This ablation
// measures both implementations on identical workloads, and prints the
// count batch's settled-walk share and mean walk size from SamplingStats.
#include <cstdio>
#include <iostream>

#include "bench_util/table_printer.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/coverage_batch.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"

int main() {
  atpm::Rng graph_rng(7);
  atpm::BarabasiAlbertOptions options;
  options.num_nodes = 20000;
  options.edges_per_node = 3;
  atpm::Graph g =
      atpm::GenerateBarabasiAlbert(options, &graph_rng).value_or(
          atpm::Graph());
  if (g.num_nodes() == 0) return 1;
  atpm::ApplyWeightedCascade(&g);

  // Rear-style base: the most connected nodes (they appear in many RR
  // sets, so early abort fires often — the realistic HATP regime).
  atpm::BitVector base(g.num_nodes());
  for (atpm::NodeId v = 1; v <= 64; ++v) base.Set(v);
  const atpm::NodeId u = 0;

  std::printf("=== Ablation: counting generation vs store+scan "
              "(n=%u, |base|=64) ===\n",
              g.num_nodes());
  atpm::TablePrinter table({"theta", "count+abort (s)", "store+scan (s)",
                            "speedup", "estimates agree?", "settled walks",
                            "nodes/walk"});

  for (uint64_t theta : {1u << 14, 1u << 16, 1u << 18}) {
    atpm::SerialSamplingEngine counting_engine(g);
    atpm::CoverageQueryBatch batch;
    batch.Add(u, &base);
    atpm::Rng rng_a(11);
    atpm::WallTimer count_timer;
    if (!counting_engine
             .TryCountCoverageBatch(&batch, nullptr, g.num_nodes(), theta,
                                    &rng_a)
             .ok()) {
      return 1;
    }
    const uint64_t counted = batch.hits(0);
    const double count_seconds = count_timer.ElapsedSeconds();
    const atpm::SamplingStats& stats = counting_engine.stats();

    atpm::RRSetGenerator storing_gen(g);
    atpm::RRCollection pool(g.num_nodes());
    atpm::Rng rng_b(11);
    atpm::WallTimer store_timer;
    pool.Generate(&storing_gen, nullptr, g.num_nodes(), theta, &rng_b);
    const uint64_t scanned = pool.ConditionalCoverage(u, base);
    const double store_seconds = store_timer.ElapsedSeconds();

    const double cov_a = static_cast<double>(counted) / theta;
    const double cov_b = static_cast<double>(scanned) / theta;
    table.AddRow(
        {std::to_string(theta), atpm::FormatSeconds(count_seconds),
         atpm::FormatSeconds(store_seconds),
         atpm::FormatDouble(store_seconds / std::max(count_seconds, 1e-9),
                            1),
         std::abs(cov_a - cov_b) < 0.02 ? "yes" : "NO",
         atpm::FormatDouble(static_cast<double>(stats.settled_walks) /
                                static_cast<double>(theta),
                            3),
         atpm::FormatDouble(static_cast<double>(stats.count_walk_nodes) /
                                static_cast<double>(theta),
                            2)});
  }
  table.Print(std::cout);
  return 0;
}
