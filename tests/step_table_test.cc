// Tests for the reverse step's per-node records (rris/step_table.h): every
// record agrees with the Graph's in-CSR and weight-class index on
// builder-built, verified-mapped and trusting-mapped graphs under weighted
// cascade, trivalency and uniform-random weights, and engines of 1, 2 and
// 4 workers, whose generators share one table, draw the same hits, pools,
// edges, draws and count-walk counters as a standalone generator.
#include "rris/step_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "graph/weighting.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

enum class Weighting { kWeightedCascade, kTrivalency, kUniformRandom };

Graph TestGraph(Weighting weighting, NodeId n = 500) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  Rng wrng(99);
  switch (weighting) {
    case Weighting::kWeightedCascade:
      ApplyWeightedCascade(&g);
      break;
    case Weighting::kTrivalency:
      ApplyTrivalency(&g, &wrng);
      break;
    case Weighting::kUniformRandom:
      ApplyUniformRandomProbability(&g, 0.01, 0.5, &wrng);
      break;
  }
  return g;
}

// Checks every record of `g`'s table against the Graph accessors; returns
// how many nodes took each StepKind.
std::vector<uint32_t> ExpectRecordsMatch(const Graph& g) {
  const StepTable table(g);
  EXPECT_EQ(table.size(), g.num_nodes());
  std::vector<uint32_t> kinds(4, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    SCOPED_TRACE(::testing::Message() << "node " << v);
    const StepRecord& record = table[v];
    const auto neigh = g.InNeighbors(v);
    EXPECT_EQ(record.InDegree(), g.InDegree(v));
    EXPECT_EQ(table.in_adj() + record.in_begin, neigh.data());
    ++kinds[record.kind];
    const auto segments = g.InProbSegments(v);
    switch (record.Kind()) {
      case StepKind::kEmpty:
        EXPECT_EQ(g.InDegree(v), 0u);
        EXPECT_EQ(g.InWeightClass(v), NodeWeightClass::kEmpty);
        break;
      case StepKind::kJump:
      case StepKind::kScan:
        EXPECT_EQ(g.InWeightClass(v), NodeWeightClass::kUniform);
        EXPECT_EQ(segments.size(), 1u);
        if (segments.size() != 1) break;
        EXPECT_EQ(record.segment.length, segments[0].length);
        EXPECT_EQ(record.segment.prob, segments[0].prob);
        EXPECT_EQ(record.segment.log1p_neg, segments[0].log1p_neg);
        EXPECT_EQ(record.segment.run_any_prob, segments[0].run_any_prob);
        EXPECT_EQ(record.Kind() == StepKind::kJump,
                  segments[0].log1p_neg != 0.0);
        break;
      case StepKind::kOther:
        EXPECT_GT(g.InDegree(v), 0u);
        EXPECT_TRUE(g.InWeightClass(v) == NodeWeightClass::kFewDistinct ||
                    g.InWeightClass(v) == NodeWeightClass::kGeneral);
        break;
    }
  }
  return kinds;
}

class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "/atpm_step_table_" + name + ".store") {}
  ~StoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(StepTableTest, RecordsAgreeWithGraphOnEveryLoadPath) {
  for (const Weighting weighting :
       {Weighting::kWeightedCascade, Weighting::kTrivalency,
        Weighting::kUniformRandom}) {
    const Graph built = TestGraph(weighting);
    const StoreFile file(std::to_string(static_cast<int>(weighting)));
    ASSERT_TRUE(SaveGraphStore(built, file.path()).ok());
    GraphStoreLoadOptions verified;
    GraphStoreLoadOptions trusting;
    trusting.verify_payload = false;
    const Graph verified_map = LoadGraphStore(file.path(), verified).value();
    const Graph trusting_map = LoadGraphStore(file.path(), trusting).value();
    ASSERT_TRUE(verified_map.is_mapped());
    ASSERT_TRUE(trusting_map.is_mapped());
    for (const Graph* g : {&built, &verified_map, &trusting_map}) {
      SCOPED_TRACE(::testing::Message()
                   << "weighting " << static_cast<int>(weighting)
                   << " mapped " << g->is_mapped());
      const std::vector<uint32_t> kinds = ExpectRecordsMatch(*g);
      switch (weighting) {
        case Weighting::kWeightedCascade:  // in-degree 3 gates, 4+ jumps
          EXPECT_GT(kinds[static_cast<int>(StepKind::kJump)], 0u);
          EXPECT_GT(kinds[static_cast<int>(StepKind::kScan)], 0u);
          EXPECT_EQ(kinds[static_cast<int>(StepKind::kOther)], 0u);
          break;
        case Weighting::kTrivalency:
          EXPECT_GT(kinds[static_cast<int>(StepKind::kJump)], 0u);
          EXPECT_GT(kinds[static_cast<int>(StepKind::kOther)], 0u);
          break;
        case Weighting::kUniformRandom:
          EXPECT_GT(kinds[static_cast<int>(StepKind::kOther)], 0u);
          break;
      }
    }
  }
}

TEST(StepTableTest, DegenerateProbabilitiesAndEmptyNodesScanOrReturn) {
  // Path 0 -> 1 -> ... at p = 1: node 0 has no in-edge, the rest one
  // drawless p = 1 edge. Complete graph at p = 0: drawless, never fires.
  const std::vector<uint32_t> path = ExpectRecordsMatch(MakePathGraph(6, 1.0));
  EXPECT_EQ(path[static_cast<int>(StepKind::kEmpty)], 1u);
  EXPECT_EQ(path[static_cast<int>(StepKind::kScan)], 5u);
  const std::vector<uint32_t> complete =
      ExpectRecordsMatch(MakeCompleteGraph(6, 0.0));
  EXPECT_EQ(complete[static_cast<int>(StepKind::kScan)], 6u);
  EXPECT_EQ(StepTable(Graph()).size(), 0u);
}

TEST(StepTableTest, EnginesOfOneTwoAndFourWorkersAgreeWithAStandaloneWalk) {
  // min_parallel_batch = 1 fans every batch out, so the workers read the
  // shared table concurrently (the TSan lane runs this binary).
  for (const Weighting weighting :
       {Weighting::kWeightedCascade, Weighting::kTrivalency}) {
    const Graph g = TestGraph(weighting, 2000);
    BitVector removed(g.num_nodes());
    for (NodeId v = 100; v < 140; ++v) removed.Set(v);
    BitVector base(g.num_nodes());
    for (NodeId v = 1; v <= 4; ++v) base.Set(v);
    const uint32_t alive = g.num_nodes() - 40;
    // A walk settles once it finds node 0 and touches the base: the hubs
    // of a Barabási–Albert graph, so many walks end early.
    const std::vector<CoverageQuery> queries = {
        {0, nullptr}, {0, &base}, {9, &base}};
    const uint64_t theta = 6000;
    const uint64_t count_seed = 77;
    const uint64_t fill_seed = 78;

    // The standalone walks: one generator counts, another fills. A fill
    // seeds its chunks with one draw of the caller's stream.
    RRSetGenerator counter(g);
    std::vector<uint64_t> expected_hits;
    const uint64_t count_edges = ChunkedReferenceCount(
        &counter, &removed, alive, theta, queries, count_seed, &expected_hits);
    RRSetGenerator filler(g);
    RRCollection expected_pool(g.num_nodes());
    const uint64_t fill_edges =
        ChunkedReferencePool(&filler, &removed, alive, theta,
                             Rng(fill_seed).Next(), &expected_pool);
    ASSERT_GT(counter.settled_walks(), 0u);
    ASSERT_GT(counter.count_walk_nodes(), theta);

    for (uint32_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "weighting " << static_cast<int>(weighting)
                   << " workers " << workers);
      ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                    workers, /*min_parallel_batch=*/1);
      CoverageQueryBatch batch;
      for (const CoverageQuery& query : queries) {
        batch.Add(query.node, query.base);
      }
      CountBatch(engine, &batch, &removed, alive, theta, count_seed);
      EXPECT_EQ(std::vector<uint64_t>(batch.hits().begin(),
                                      batch.hits().end()),
                expected_hits);
      Rng fill_rng(fill_seed);
      const RRCollection& pool =
          FillPool(engine, &removed, alive, theta, &fill_rng);
      ASSERT_EQ(pool.num_sets(), expected_pool.num_sets());
      ASSERT_EQ(pool.total_nodes(), expected_pool.total_nodes());
      for (uint64_t i = 0; i < pool.num_sets(); ++i) {
        const auto got = pool.set(i);
        const auto want = expected_pool.set(i);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "set " << i;
      }
      const SamplingStats& stats = engine.stats();
      EXPECT_EQ(stats.edges_examined, count_edges + fill_edges);
      EXPECT_EQ(stats.rng_draws, counter.rng_draws() + filler.rng_draws());
      EXPECT_EQ(stats.settled_walks, counter.settled_walks());
      EXPECT_EQ(stats.count_walk_nodes, counter.count_walk_nodes());
    }
  }
}

}  // namespace
}  // namespace atpm
