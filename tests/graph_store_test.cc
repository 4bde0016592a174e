// Tests for the memory-mapped binary graph store: pack -> mmap round-trip
// equality (CSR, probabilities, edge indices, weight-class census), header /
// version / checksum rejection on truncated and bit-flipped files,
// copy-on-write reweighting of mapped graphs, and bit-identical RR pools + HATP decision sequences
// for mmap-loaded vs builder-built graphs at fixed seeds.
#include "graph/graph_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hatp.h"
#include "core/target_selection.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

Graph WcGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

Graph TrivalencyGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  Rng wrng(99);
  ApplyTrivalency(&g, &wrng);
  return g;
}

void ExpectProfilesEqual(const WeightClassProfile& a,
                         const WeightClassProfile& b) {
  EXPECT_EQ(a.empty_nodes, b.empty_nodes);
  EXPECT_EQ(a.uniform_nodes, b.uniform_nodes);
  EXPECT_EQ(a.few_distinct_nodes, b.few_distinct_nodes);
  EXPECT_EQ(a.general_nodes, b.general_nodes);
  EXPECT_EQ(a.segmented_nodes, b.segmented_nodes);
  EXPECT_EQ(a.jumpable_edges, b.jumpable_edges);
  EXPECT_EQ(a.total_edges, b.total_edges);
  EXPECT_EQ(a.lt_fast_nodes, b.lt_fast_nodes);
}

// Element-for-element equality of everything the sampling kernels read.
// Probabilities are compared bit-exactly — the store memcpy's floats, so
// any tolerance here would mask a format bug.
void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.OutDegree(u), b.OutDegree(u)) << "node " << u;
    ASSERT_EQ(a.InDegree(u), b.InDegree(u)) << "node " << u;
    const auto a_out = a.OutNeighbors(u);
    const auto b_out = b.OutNeighbors(u);
    const auto a_op = a.OutProbs(u);
    const auto b_op = b.OutProbs(u);
    for (uint32_t j = 0; j < a.OutDegree(u); ++j) {
      ASSERT_EQ(a_out[j], b_out[j]) << "out arc " << u << "/" << j;
      ASSERT_EQ(a_op[j], b_op[j]) << "out prob " << u << "/" << j;
    }
    const auto a_in = a.InNeighbors(u);
    const auto b_in = b.InNeighbors(u);
    const auto a_ip = a.InProbs(u);
    const auto b_ip = b.InProbs(u);
    for (uint32_t j = 0; j < a.InDegree(u); ++j) {
      ASSERT_EQ(a_in[j], b_in[j]) << "in arc " << u << "/" << j;
      ASSERT_EQ(a_ip[j], b_ip[j]) << "in prob " << u << "/" << j;
      ASSERT_EQ(a.InEdgeIndex(u, j), b.InEdgeIndex(u, j))
          << "edge index " << u << "/" << j;
    }
  }
  EXPECT_EQ(a.InJumpableEdges(), b.InJumpableEdges());
  EXPECT_EQ(a.OutJumpableEdges(), b.OutJumpableEdges());
  ExpectProfilesEqual(a.InWeightClassProfile(), b.InWeightClassProfile());
  ExpectProfilesEqual(a.OutWeightClassProfile(), b.OutWeightClassProfile());
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

uint64_t PoolHashFor(const Graph& g, DiffusionModel model, uint64_t seed,
                     uint64_t num_sets) {
  Rng rng(seed);
  SerialSamplingEngine engine(g, model);
  return PoolHash(FillPool(engine, nullptr, g.num_nodes(), num_sets, &rng));
}

class GraphStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/atpm_graph_store_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".atpm";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Graph SaveAndLoad(const Graph& g) {
    Status save = SaveGraphStore(g, path_);
    EXPECT_TRUE(save.ok()) << save.ToString();
    Result<Graph> loaded = LoadGraphStore(path_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).value();
  }

  // Flips one bit at `byte_offset` in the stored file.
  void FlipBit(uint64_t byte_offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(byte_offset));
    char c = 0;
    f.read(&c, 1);
    c ^= 0x10;
    f.seekp(static_cast<std::streamoff>(byte_offset));
    f.write(&c, 1);
  }

  std::string path_;
};

// ---- Round-trip equality.

TEST_F(GraphStoreTest, RoundTripIsExact) {
  const Graph g = WcGraph();
  const Graph loaded = SaveAndLoad(g);
  EXPECT_TRUE(loaded.is_mapped());
  ExpectGraphsEqual(g, loaded);
}

TEST_F(GraphStoreTest, TrivalencyJumpIndexSurvivesRoundTrip) {
  // Trivalency produces kFewDistinct nodes, exercising the segment /
  // jump-view / alias sections that weighted cascade leaves empty.
  const Graph g = TrivalencyGraph();
  ExpectGraphsEqual(g, SaveAndLoad(g));
}

TEST_F(GraphStoreTest, EmptyGraphRoundTrips) {
  GraphBuilder builder;
  builder.ReserveNodes(5);
  const Graph g = builder.Build().value();
  const Graph loaded = SaveAndLoad(g);
  EXPECT_EQ(loaded.num_nodes(), 5u);
  EXPECT_EQ(loaded.num_edges(), 0u);
  ExpectGraphsEqual(g, loaded);
}

TEST_F(GraphStoreTest, RepackingMappedGraphRoundTrips) {
  // Save, load (the graph now views the mapping), save that mapped graph
  // again, load again: still identical to the original.
  const Graph g = TrivalencyGraph();
  const Graph mapped = SaveAndLoad(g);
  const std::string second = path_ + ".repack";
  ASSERT_TRUE(SaveGraphStore(mapped, second).ok());
  Result<Graph> loaded = LoadGraphStore(second);
  std::remove(second.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(g, loaded.value());
}

TEST_F(GraphStoreTest, InfoReportsHeaderFields) {
  const Graph g = WcGraph();
  ASSERT_TRUE(SaveGraphStore(g, path_).ok());
  Result<GraphStoreInfo> info = ReadGraphStoreInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, kGraphStoreVersion);
  EXPECT_EQ(info.value().num_nodes, 300u);
  EXPECT_EQ(info.value().num_edges, g.num_edges());
}

// ---- Corruption and format rejection.

TEST_F(GraphStoreTest, RejectsMissingFile) {
  Result<Graph> loaded = LoadGraphStore(path_ + ".nope");
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST_F(GraphStoreTest, RejectsNonStoreFile) {
  std::ofstream out(path_);
  for (int i = 0; i < 40; ++i) out << "0 1 0.5\n1 2 0.25\n";
  out.close();
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("magic"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTruncatedFile) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Chop off the tail; the header's recorded file_bytes no longer match.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamoff>(bytes.size() / 2));
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTruncationWithinSectionTable) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Cut the file right after the header: the header itself still hashes
  // clean, so the rejection must come from the size / table validation.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), 88);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTrailingGarbage) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // A partially overwritten (longer) file is as suspect as a truncated
  // one: the header's recorded size must match exactly in both directions.
  std::ofstream(path_, std::ios::binary | std::ios::app).write("junk", 4);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("trailing garbage"),
            std::string::npos);
}

TEST_F(GraphStoreTest, SaveIsAtomicOverExistingStore) {
  // Re-saving over an existing store goes through a temp file + rename:
  // afterwards the new content is fully visible and no temp file remains.
  const Graph first = WcGraph();
  ASSERT_TRUE(SaveGraphStore(first, path_).ok());
  const Graph second = TrivalencyGraph();
  ASSERT_TRUE(SaveGraphStore(second, path_).ok());
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(second, loaded.value());
}

TEST_F(GraphStoreTest, RejectsHeaderShortFile) {
  std::ofstream(path_, std::ios::binary) << "ATPMGRF1";
  Result<Graph> loaded = LoadGraphStore(path_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(GraphStoreTest, RejectsUnknownVersion) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // The version field is the u32 right after the 8-byte magic. The check
  // runs before the header checksum, so the error names the version.
  FlipBit(8);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsVersionOneStore) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Stamp the file as a version-1 store. The version check runs before the
  // header checksum, so no rehash is needed to reach it.
  const uint32_t old_version = 1;
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof(old_version));
  }
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("format version 1"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("repack with atpm_graph_pack"),
            std::string::npos);
  EXPECT_TRUE(ReadGraphStoreInfo(path_).status().IsInvalidArgument());
}

TEST_F(GraphStoreTest, RejectsBitFlippedHeader) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  FlipBit(16);  // inside num_nodes
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("header checksum"),
            std::string::npos);
}

TEST_F(GraphStoreTest, RejectsBitFlippedSectionTable) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  FlipBit(88 + 8);  // first section entry's offset field
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("section table"),
            std::string::npos);
}

TEST_F(GraphStoreTest, RejectsBitFlippedPayload) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  in.close();
  FlipBit(size - 7);  // deep in the last payload section
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("payload checksum"),
            std::string::npos);

  // The same flip sails through when payload verification is waived (the
  // out-of-core configuration documents this trade explicitly).
  GraphStoreLoadOptions trusting;
  trusting.verify_payload = false;
  EXPECT_TRUE(LoadGraphStore(path_, trusting).ok());
}

// ---- Copy-on-write: mutating a mapped graph must detach, not crash (the
// mapping is PROT_READ) and must not disturb the file.

TEST_F(GraphStoreTest, ReweightingMappedGraphDetachesFromMapping) {
  const Graph original = TrivalencyGraph();
  Graph mapped = SaveAndLoad(original);
  ASSERT_TRUE(mapped.is_mapped());

  ApplyWeightedCascade(&mapped);
  EXPECT_FALSE(mapped.is_mapped());
  Graph expected = TrivalencyGraph();
  ApplyWeightedCascade(&expected);
  ExpectGraphsEqual(expected, mapped);

  // The store file is untouched: reloading still yields the trivalency
  // weighting.
  Result<Graph> reloaded = LoadGraphStore(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectGraphsEqual(original, reloaded.value());
}

// ---- Functional indistinguishability: fixed-seed RR pools and adaptive
// policy runs must be bit-identical between builder-built and mmap-loaded
// graphs (ISSUE acceptance criterion).

TEST_F(GraphStoreTest, RrPoolsBitIdenticalBuilderVsMapped) {
  const Graph g = WcGraph();
  const Graph mapped = SaveAndLoad(g);
  EXPECT_EQ(
      PoolHashFor(g, DiffusionModel::kIndependentCascade, 77, 2000),
      PoolHashFor(mapped, DiffusionModel::kIndependentCascade, 77, 2000));
  EXPECT_EQ(PoolHashFor(g, DiffusionModel::kLinearThreshold, 77, 1000),
            PoolHashFor(mapped, DiffusionModel::kLinearThreshold, 77, 1000));
}

TEST_F(GraphStoreTest, TrivalencyPoolsBitIdenticalBuilderVsMapped) {
  const Graph g = TrivalencyGraph();
  const Graph mapped = SaveAndLoad(g);
  EXPECT_EQ(
      PoolHashFor(g, DiffusionModel::kIndependentCascade, 77, 2000),
      PoolHashFor(mapped, DiffusionModel::kIndependentCascade, 77, 2000));
}

TEST_F(GraphStoreTest, HatpDecisionSequenceIdenticalOnMappedGraph) {
  // The golden HATP run from rr_kernel_test, replayed on the mmap-loaded
  // graph: same seeds picked in the same order, same RR-set count, same
  // profit. Matches the recorded golden values, so the mapped graph is
  // also bit-compatible with the pre-kernel tree.
  const Graph g = SaveAndLoad(WcGraph());

  TargetSelectionOptions sel;
  sel.kernel = SamplingKernel::kPerEdge;
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional, sel);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();

  HatpOptions hopt;
  hopt.sampling.kernel = SamplingKernel::kPerEdge;
  HatpPolicy policy(hopt);
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(
      g, &world_rng, DiffusionModel::kIndependentCascade,
      SamplingKernel::kPerEdge));
  Rng rng(1);
  auto run = policy.Run(selection.value().problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 780520u);
  EXPECT_NEAR(run.value().realized_profit, 17.745389, 1e-4);
}

}  // namespace
}  // namespace atpm
