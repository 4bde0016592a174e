// Graph-store load-path scaling: for each table2 smoke dataset, compares
//   (1) parse-and-build   — text edge list -> LoadEdgeList -> weighted
//                           cascade -> weight-class index rebuild,
//   (2) cold mmap         — LoadGraphStore after evicting the store file
//                           from the page cache (posix_fadvise DONTNEED),
//   (3) warm mmap         — LoadGraphStore with the file cached (best of
//                           several runs; the steady-state bench path),
// plus the pack time, the resident-set delta attributable to each loaded
// graph after one RR batch, and the first-RR-batch latency on a freshly
// mapped graph (the cost of faulting the working set in lazily) vs a
// builder-built one, one stdout line per dataset. Fixed-seed RR pool
// hashes for built vs mapped graphs are compared inline — a mismatch fails
// the run with a non-zero exit.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util/datasets.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/edge_list_io.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"
#include "rris/sampling_engine.h"

namespace {

using namespace atpm;

constexpr int kLoadReps = 5;
constexpr uint64_t kRrBatch = 2000;

// Current resident set in bytes (VmRSS), from /proc/self/statm.
uint64_t ResidentBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(statm, "%llu %llu", &total, &resident);
  std::fclose(statm);
  if (fields != 2) return 0;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

void EvictFromPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto s = pool.set(i);
    h = (h ^ s.size()) * 1099511628211ull;
    for (NodeId v : s) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

struct RrBatchResult {
  double seconds = 0.0;
  uint64_t pool_hash = 0;
  uint64_t rss_delta_bytes = 0;
};

RrBatchResult TimeRrBatch(const Graph& g, uint64_t rss_before) {
  RrBatchResult result;
  Rng rng(77);
  SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade);
  WallTimer timer;
  const Status filled =
      engine.TryGeneratePool(nullptr, g.num_nodes(), kRrBatch, &rng);
  result.seconds = timer.ElapsedSeconds();
  if (!filled.ok()) {
    std::fprintf(stderr, "RR batch failed: %s\n", filled.ToString().c_str());
  }
  ATPM_CHECK(filled.ok());
  const RRCollection& pool = engine.pool();
  result.pool_hash = PoolHash(pool);
  const uint64_t rss_after = ResidentBytes();
  result.rss_delta_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
  return result;
}

struct DatasetRow {
  std::string name;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t file_bytes = 0;
  double parse_build_seconds = 0.0;
  double pack_seconds = 0.0;
  double cold_load_seconds = 0.0;
  double warm_load_seconds = 0.0;
  RrBatchResult built_batch;
  RrBatchResult mapped_batch;
  bool pool_hash_match = false;

  double WarmSpeedup() const {
    return warm_load_seconds > 0.0 ? parse_build_seconds / warm_load_seconds
                                   : 0.0;
  }
};

std::string TempPath(const std::string& stem) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") + "/" +
         stem;
}

bool RunDataset(const std::string& name, double scale, DatasetRow* row) {
  Result<BenchDataset> dataset = BuildDataset(name, scale, 1);
  if (!dataset.ok()) {
    std::fprintf(stderr, "build %s failed: %s\n", name.c_str(),
                 dataset.status().ToString().c_str());
    return false;
  }
  const Graph& built = dataset.value().graph;
  row->name = name;
  row->nodes = built.num_nodes();
  row->edges = built.num_edges();

  const std::string edge_path = TempPath("atpm_bench_" + name + ".txt");
  const std::string store_path = TempPath("atpm_bench_" + name + ".atpm");

  // (1) parse-and-build: the full text pipeline a store-less run pays.
  if (!SaveEdgeList(built, edge_path).ok()) return false;
  row->parse_build_seconds = 1e9;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    WallTimer timer;
    Result<Graph> parsed = LoadEdgeList(edge_path);
    if (!parsed.ok()) return false;
    Graph g = std::move(parsed).value();
    ApplyWeightedCascade(&g);
    row->parse_build_seconds =
        std::min(row->parse_build_seconds, timer.ElapsedSeconds());
  }

  // Pack once (timed), then read back the on-disk metadata.
  {
    WallTimer timer;
    if (!SaveGraphStore(built, store_path).ok()) return false;
    row->pack_seconds = timer.ElapsedSeconds();
  }
  Result<GraphStoreInfo> info = ReadGraphStoreInfo(store_path);
  if (!info.ok()) return false;
  row->file_bytes = info.value().file_bytes;

  GraphStoreLoadOptions load;
  load.verify_payload = false;  // the out-of-core serving configuration

  // (2) cold mmap: evict, then load. One shot — the second run would be
  // warm by definition.
  EvictFromPageCache(store_path);
  {
    WallTimer timer;
    Result<Graph> mapped = LoadGraphStore(store_path, load);
    if (!mapped.ok()) return false;
    row->cold_load_seconds = timer.ElapsedSeconds();
  }

  // (3) warm mmap, best of kLoadReps.
  row->warm_load_seconds = 1e9;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    WallTimer timer;
    Result<Graph> mapped = LoadGraphStore(store_path, load);
    if (!mapped.ok()) return false;
    row->warm_load_seconds =
        std::min(row->warm_load_seconds, timer.ElapsedSeconds());
  }

  // First-RR-batch latency + RSS accounting, built vs freshly mapped.
  row->built_batch = TimeRrBatch(built, ResidentBytes());
  EvictFromPageCache(store_path);
  const uint64_t rss_before_map = ResidentBytes();
  Result<Graph> mapped = LoadGraphStore(store_path, load);
  if (!mapped.ok()) return false;
  row->mapped_batch = TimeRrBatch(mapped.value(), rss_before_map);
  row->pool_hash_match =
      row->built_batch.pool_hash == row->mapped_batch.pool_hash;

  std::remove(edge_path.c_str());
  std::remove(store_path.c_str());
  return true;
}

}  // namespace

int main() {
  const double scale = BenchScaleFromEnv();
  const std::vector<std::string> datasets = {"NetHEPT", "Epinions"};

  bool all_hashes_match = true;
  for (const std::string& name : datasets) {
    DatasetRow row;
    if (!RunDataset(name, scale, &row)) return 1;
    std::printf(
        "%-10s n=%-8llu m=%-9llu parse+build %8.2f ms | pack %8.2f ms | "
        "cold %7.3f ms | warm %7.3f ms (%.0fx) | rr-batch built %7.2f ms "
        "mapped %7.2f ms | rss built %llu KiB mapped %llu KiB | store %llu "
        "B | hash %s\n",
        row.name.c_str(), static_cast<unsigned long long>(row.nodes),
        static_cast<unsigned long long>(row.edges),
        row.parse_build_seconds * 1e3, row.pack_seconds * 1e3,
        row.cold_load_seconds * 1e3, row.warm_load_seconds * 1e3,
        row.WarmSpeedup(), row.built_batch.seconds * 1e3,
        row.mapped_batch.seconds * 1e3,
        static_cast<unsigned long long>(row.built_batch.rss_delta_bytes >> 10),
        static_cast<unsigned long long>(row.mapped_batch.rss_delta_bytes >> 10),
        static_cast<unsigned long long>(row.file_bytes),
        row.pool_hash_match ? "match" : "MISMATCH");
    all_hashes_match = all_hashes_match && row.pool_hash_match;
  }
  if (!all_hashes_match) {
    std::fprintf(stderr,
                 "FAIL: mapped graph produced a different RR pool hash\n");
    return 1;
  }
  return 0;
}
