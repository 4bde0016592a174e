#ifndef ATPM_BENCH_UTIL_DATASETS_H_
#define ATPM_BENCH_UTIL_DATASETS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace atpm {

/// A named benchmark graph (synthetic stand-in for a SNAP dataset, see
/// DESIGN.md §4) with weighted-cascade probabilities already applied.
struct BenchDataset {
  std::string name;
  std::string type;  // "directed" / "undirected"
  Graph graph;
};

/// The four stand-ins of Table II, in the paper's order, plus "HepMini"
/// (a small collaboration graph for ADDATP, whose additive-only sampling
/// is infeasible beyond small graphs — mirroring the paper, where ADDATP
/// only completes on NetHEPT).
std::vector<std::string> StandardDatasetNames();

/// Builds dataset `name` ("NetHEPT", "Epinions", "DBLP", "LiveJournal",
/// "HepMini") at `scale` in (0, 1]: node counts shrink linearly with scale
/// (edge structure follows the generator). Deterministic given `seed`.
///
/// When the ATPM_BENCH_STORE_DIR env var names a directory, the prepared
/// graph is cached there as a graph store (see graph/graph_store.h): the
/// first build packs, every later call memory-maps — no generator, no
/// weighting, no index rebuild. Cache files are keyed on (name, scale,
/// seed, store version), so changing any knob rebuilds rather than
/// reusing a stale file. `atpm_graph_pack pack-dataset` pre-warms the
/// same cache offline.
Result<BenchDataset> BuildDataset(std::string_view name, double scale,
                                  uint64_t seed);

/// The store-cache path BuildDataset would use for this configuration, or
/// "" when ATPM_BENCH_STORE_DIR is unset.
std::string DatasetStorePath(std::string_view name, double scale,
                             uint64_t seed);

/// The ATPM_BENCH_* numbers below take their default when the variable is
/// unset or empty; any other value that is not one whole, finite number
/// (e.g. "4abc", " 4", "nan") prints the variable and aborts.
///
/// ATPM_BENCH_SCALE env var (default 0.2), clamped to [0.01, 1.0]. Scales
/// dataset sizes so the full suite stays runnable on small machines.
double BenchScaleFromEnv();

/// ATPM_BENCH_REALIZATIONS env var (default 2; the paper uses 20). Number
/// of possible worlds each configuration is averaged over.
uint32_t BenchRealizationsFromEnv();

/// ATPM_BENCH_K_MAX env var (default 200): largest k of the paper's seed
/// grid {10, 25, 50, 100, 200, 500} to include.
uint32_t BenchKMaxFromEnv();

/// ATPM_BENCH_THREADS env var (default 8): worker threads for RR counting
/// inside HATP/ADDATP/HNTP.
uint32_t BenchThreadsFromEnv();

/// The paper's seed-count grid, truncated at BenchKMaxFromEnv() and at
/// `limit` (pass the dataset's target-pool ceiling).
std::vector<uint32_t> BenchSeedGrid(uint32_t limit);

}  // namespace atpm

#endif  // ATPM_BENCH_UTIL_DATASETS_H_
