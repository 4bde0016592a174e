#include "bench_util/datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"

namespace atpm {

std::vector<std::string> StandardDatasetNames() {
  return {"NetHEPT", "Epinions", "DBLP", "LiveJournal"};
}

namespace {

Result<Graph> BuildRaw(std::string_view name, double scale, Rng* rng) {
  if (name == "NetHEPT") {
    // Collaboration network, paper: 15.2K nodes / 31.4K undirected edges.
    BarabasiAlbertOptions options;
    options.num_nodes = static_cast<NodeId>(15200 * scale);
    options.edges_per_node = 2;
    options.undirected = true;
    return GenerateBarabasiAlbert(options, rng);
  }
  if (name == "HepMini") {
    // Small collaboration graph sized so ADDATP's quadratic sampling is
    // feasible; not part of Table II.
    BarabasiAlbertOptions options;
    options.num_nodes = static_cast<NodeId>(
        std::max(600.0, 2000 * scale));
    options.edges_per_node = 2;
    options.undirected = true;
    return GenerateBarabasiAlbert(options, rng);
  }
  if (name == "Epinions") {
    // Directed trust network, paper: 132K nodes / 841K arcs (avg 13.4).
    RMatOptions options;
    options.scale = scale >= 0.99 ? 15u : (scale >= 0.6 ? 14u : 13u);
    options.num_edges = static_cast<uint64_t>((1u << options.scale) * 13.4);
    return GenerateRMat(options, rng);
  }
  if (name == "DBLP") {
    // Collaboration network, paper: 655K nodes / 1.99M undirected edges
    // (avg arc degree 6.08).
    BarabasiAlbertOptions options;
    options.num_nodes = static_cast<NodeId>(65536 * scale);
    options.edges_per_node = 3;
    options.undirected = true;
    return GenerateBarabasiAlbert(options, rng);
  }
  if (name == "LiveJournal") {
    // Directed social network, paper: 4.85M nodes / 69M arcs. Largest
    // stand-in; density reduced (avg 14 vs 28.5) to keep the suite
    // runnable — recorded in EXPERIMENTS.md.
    RMatOptions options;
    options.scale = scale >= 0.99 ? 17u
                                  : (scale >= 0.6 ? 16u
                                                  : (scale >= 0.25 ? 15u
                                                                   : 14u));
    options.num_edges = static_cast<uint64_t>((1u << options.scale) * 14.0);
    return GenerateRMat(options, rng);
  }
  return Status::NotFound("unknown dataset '" + std::string(name) + "'");
}

}  // namespace

std::string DatasetStorePath(std::string_view name, double scale,
                             uint64_t seed) {
  const char* dir = std::getenv("ATPM_BENCH_STORE_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  char suffix[96];
  std::snprintf(suffix, sizeof(suffix), "_s%g_seed%llu_v%u.atpm", scale,
                static_cast<unsigned long long>(seed), kGraphStoreVersion);
  return std::string(dir) + "/" + std::string(name) + suffix;
}

Result<BenchDataset> BuildDataset(std::string_view name, double scale,
                                  uint64_t seed) {
  if (!(scale > 0.0 && scale <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("dataset scale must be in (0, 1]");
  }
  BenchDataset dataset;
  dataset.name = std::string(name);
  dataset.type =
      (name == "Epinions" || name == "LiveJournal") ? "directed"
                                                    : "undirected";

  // Pack-once cache: with ATPM_BENCH_STORE_DIR set, the fully prepared
  // graph (weighting + weight-class index included) is memory-mapped from
  // a store file keyed on (name, scale, seed, format version). Header and
  // section-table checksums still run; the payload hash is skipped — this
  // is the warm path the store exists for. Any load failure falls through
  // to a rebuild that refreshes the cache.
  const std::string store_path = DatasetStorePath(name, scale, seed);
  if (!store_path.empty()) {
    GraphStoreLoadOptions load;
    load.verify_payload = false;
    Result<Graph> mapped = LoadGraphStore(store_path, load);
    if (mapped.ok()) {
      dataset.graph = std::move(mapped).value();
      return dataset;
    }
  }

  Rng rng(seed ^ 0xda7a5e7ULL);
  Result<Graph> graph = BuildRaw(name, scale, &rng);
  if (!graph.ok()) return graph.status();
  dataset.graph = std::move(graph).value();
  // The paper's edge-probability setting: p(u,v) = 1/indeg(v).
  ApplyWeightedCascade(&dataset.graph);

  if (!store_path.empty()) {
    // Best-effort: a failed save (missing directory, full disk) just means
    // the next run rebuilds again.
    SaveGraphStore(dataset.graph, store_path).ok();
  }
  return dataset;
}

namespace {

// The value of `var` when it is one whole, finite number; `fallback` when
// it is unset or empty. Anything else (whitespace, trailing characters,
// NaN, infinity) prints the variable and aborts, as SwitchFromEnv does: a
// typo must not silently run the default configuration.
double EnvDouble(const char* var, double fallback) {
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return fallback;
  double parsed = 0.0;
  if (!ParseWholeNumber(raw, &parsed) || !std::isfinite(parsed)) {
    std::fprintf(stderr, "%s: expected a finite number, got '%s'\n", var,
                 raw);
    std::abort();
  }
  return parsed;
}

}  // namespace

double BenchScaleFromEnv() {
  return Clamp(EnvDouble("ATPM_BENCH_SCALE", 0.2), 0.01, 1.0);
}

uint32_t BenchRealizationsFromEnv() {
  const double v = EnvDouble("ATPM_BENCH_REALIZATIONS", 2.0);
  return static_cast<uint32_t>(Clamp(v, 1.0, 100.0));
}

uint32_t BenchKMaxFromEnv() {
  const double v = EnvDouble("ATPM_BENCH_K_MAX", 200.0);
  return static_cast<uint32_t>(Clamp(v, 1.0, 10000.0));
}

uint32_t BenchThreadsFromEnv() {
  const double v = EnvDouble("ATPM_BENCH_THREADS", 8.0);
  return static_cast<uint32_t>(Clamp(v, 1.0, 64.0));
}

std::vector<uint32_t> BenchSeedGrid(uint32_t limit) {
  const uint32_t k_max = std::min(BenchKMaxFromEnv(), limit);
  std::vector<uint32_t> grid;
  for (uint32_t k : {10u, 25u, 50u, 100u, 200u, 500u}) {
    if (k <= k_max) grid.push_back(k);
  }
  if (grid.empty()) grid.push_back(k_max);
  return grid;
}

}  // namespace atpm
