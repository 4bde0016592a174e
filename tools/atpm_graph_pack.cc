// atpm_graph_pack: packs graphs into the memory-mapped binary store
// (graph/graph_store.h) and inspects existing store files.
//
//   atpm_graph_pack pack <edges.txt> <out.atpm> [options]
//       Parses a SNAP-style edge list, prepares the graph, writes a store.
//       --undirected        each line adds both arcs
//       --default-prob P    probability for lines without a third column
//       --weighted-cascade  overwrite probabilities with p(u,v) = 1/indeg(v)
//                           (the paper's setting) before packing
//
//   atpm_graph_pack pack-dataset <name> <out.atpm|-> [options]
//       Packs a synthetic benchmark stand-in (NetHEPT, Epinions, DBLP,
//       LiveJournal, HepMini). With "-" as the output, writes into the
//       ATPM_BENCH_STORE_DIR cache at the exact path BuildDataset reads,
//       pre-warming the bench suite.
//       --scale S           dataset scale in (0, 1] (default: bench env)
//       --seed N            generator seed (default 1, the bench default)
//
//   atpm_graph_pack info <store.atpm>
//       Prints the validated header (version, counts, sections).
//
//   atpm_graph_pack verify <store.atpm>
//       Full integrity check including the payload hash; exits nonzero on
//       any mismatch.
//
// A numeric flag value must parse whole; a malformed one exits 2, like an
// unknown option.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util/datasets.h"
#include "common/math_util.h"
#include "graph/edge_list_io.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"

namespace atpm {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  atpm_graph_pack pack <edges.txt> <out.atpm> [--undirected]\n"
      "                  [--default-prob P] [--weighted-cascade]\n"
      "  atpm_graph_pack pack-dataset <name> <out.atpm|-> [--scale S]\n"
      "                  [--seed N]\n"
      "  atpm_graph_pack info <store.atpm>\n"
      "  atpm_graph_pack verify <store.atpm>\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "atpm_graph_pack: %s\n", status.ToString().c_str());
  return 1;
}

bool ParseFlag(int argc, char** argv, int* i, const char* name,
               const char** value) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "atpm_graph_pack: %s needs a value\n", name);
    std::exit(2);
  }
  *value = argv[++*i];
  return true;
}

// Parses all of `value` as a T, or exits 2.
template <typename T>
T ParseNumber(const char* name, const char* value) {
  T parsed{};
  if (!ParseWholeNumber(value, &parsed)) {
    std::fprintf(stderr, "atpm_graph_pack: bad value for %s: '%s'\n", name,
                 value);
    std::exit(2);
  }
  return parsed;
}

int PackEdgeList(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string input = argv[2];
  const std::string output = argv[3];
  EdgeListLoadOptions load;
  bool weighted_cascade = false;
  for (int i = 4; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argc, argv, &i, "--default-prob", &value)) {
      load.default_prob = ParseNumber<double>("--default-prob", value);
    } else if (std::strcmp(argv[i], "--undirected") == 0) {
      load.directed = false;
    } else if (std::strcmp(argv[i], "--weighted-cascade") == 0) {
      weighted_cascade = true;
    } else {
      std::fprintf(stderr, "atpm_graph_pack: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  Result<Graph> graph = LoadEdgeList(input, load);
  if (!graph.ok()) return Fail(graph.status());
  Graph g = std::move(graph).value();
  if (weighted_cascade) ApplyWeightedCascade(&g);
  const Status saved = SaveGraphStore(g, output);
  if (!saved.ok()) return Fail(saved);
  std::printf("packed %s: %u nodes, %llu edges -> %s\n", input.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              output.c_str());
  return 0;
}

int PackDataset(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string name = argv[2];
  std::string output = argv[3];
  double scale = BenchScaleFromEnv();
  uint64_t seed = 1;
  for (int i = 4; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argc, argv, &i, "--scale", &value)) {
      scale = ParseNumber<double>("--scale", value);
    } else if (ParseFlag(argc, argv, &i, "--seed", &value)) {
      seed = ParseNumber<uint64_t>("--seed", value);
    } else {
      std::fprintf(stderr, "atpm_graph_pack: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  if (output == "-") {
    output = DatasetStorePath(name, scale, seed);
    if (output.empty()) {
      std::fprintf(stderr,
                   "atpm_graph_pack: output '-' needs ATPM_BENCH_STORE_DIR\n");
      return 2;
    }
  }
  // Build WITHOUT the cache env so a stale store file is never copied
  // forward; this command is the cache writer.
  Result<BenchDataset> dataset = [&] {
    const char* saved_dir = std::getenv("ATPM_BENCH_STORE_DIR");
    std::string restore = saved_dir == nullptr ? "" : saved_dir;
    ::unsetenv("ATPM_BENCH_STORE_DIR");
    Result<BenchDataset> built = BuildDataset(name, scale, seed);
    if (saved_dir != nullptr) {
      ::setenv("ATPM_BENCH_STORE_DIR", restore.c_str(), 1);
    }
    return built;
  }();
  if (!dataset.ok()) return Fail(dataset.status());
  const Graph& g = dataset.value().graph;
  const Status saved = SaveGraphStore(g, output);
  if (!saved.ok()) return Fail(saved);
  std::printf(
      "packed dataset %s (scale %g, seed %llu): %u nodes, %llu edges -> %s\n",
      name.c_str(), scale, static_cast<unsigned long long>(seed),
      g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
      output.c_str());
  return 0;
}

int Info(const std::string& path) {
  Result<GraphStoreInfo> info = ReadGraphStoreInfo(path);
  if (!info.ok()) return Fail(info.status());
  const GraphStoreInfo& meta = info.value();
  std::printf("%s\n", path.c_str());
  std::printf("  format version : %u\n", meta.version);
  std::printf("  nodes          : %llu\n",
              static_cast<unsigned long long>(meta.num_nodes));
  std::printf("  edges          : %llu\n",
              static_cast<unsigned long long>(meta.num_edges));
  std::printf("  file bytes     : %llu\n",
              static_cast<unsigned long long>(meta.file_bytes));
  std::printf("  sections       : %u\n", meta.section_count);
  return 0;
}

int Verify(const std::string& path) {
  GraphStoreLoadOptions load;
  load.verify_payload = true;
  Result<Graph> graph = LoadGraphStore(path, load);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("%s: OK (%u nodes, %llu edges)\n", path.c_str(),
              graph.value().num_nodes(),
              static_cast<unsigned long long>(graph.value().num_edges()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "pack") return PackEdgeList(argc, argv);
  if (command == "pack-dataset") return PackDataset(argc, argv);
  if (command == "info" && argc == 3) return Info(argv[2]);
  if (command == "verify" && argc == 3) return Verify(argv[2]);
  return Usage();
}

}  // namespace
}  // namespace atpm

int main(int argc, char** argv) { return atpm::Run(argc, argv); }
