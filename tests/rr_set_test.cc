#include "rris/rr_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

TEST(RRSetTest, RootAlwaysPresentAndFirst) {
  const Graph g = MakePathGraph(6, 0.5);
  RRSetGenerator generator(g);
  Rng rng(1);
  std::vector<NodeId> rr;
  for (int i = 0; i < 100; ++i) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    ASSERT_FALSE(rr.empty());
    EXPECT_LT(rr[0], g.num_nodes());
  }
}

TEST(RRSetTest, DeterministicEdgesGiveFullAncestry) {
  // Path 0 -> 1 -> 2 -> 3 at p = 1: RR(v) = {v, v-1, ..., 0}.
  const Graph g = MakePathGraph(4, 1.0);
  RRSetGenerator generator(g);
  Rng rng(2);
  std::vector<NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    const NodeId root = rr[0];
    EXPECT_EQ(rr.size(), static_cast<size_t>(root) + 1);
    std::vector<NodeId> sorted(rr.begin(), rr.end());
    std::sort(sorted.begin(), sorted.end());
    for (NodeId v = 0; v <= root; ++v) EXPECT_EQ(sorted[v], v);
  }
}

TEST(RRSetTest, ZeroProbabilityGivesSingletons) {
  const Graph g = MakeCompleteGraph(5, 0.0);
  RRSetGenerator generator(g);
  Rng rng(3);
  std::vector<NodeId> rr;
  for (int i = 0; i < 50; ++i) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    EXPECT_EQ(rr.size(), 1u);
  }
}

TEST(RRSetTest, RootsAreUniform) {
  const Graph g = MakeCompleteGraph(10, 0.0);
  RRSetGenerator generator(g);
  Rng rng(4);
  std::vector<int> counts(10, 0);
  std::vector<NodeId> rr;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    ++counts[rr[0]];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
  }
}

TEST(RRSetTest, RemovedNodesNeverAppear) {
  const Graph g = MakeCompleteGraph(8, 0.5);
  RRSetGenerator generator(g);
  Rng rng(5);
  BitVector removed(8);
  removed.Set(2);
  removed.Set(5);
  std::vector<NodeId> rr;
  for (int i = 0; i < 2000; ++i) {
    generator.Generate(&removed, 6, &rng, &rr);
    for (NodeId v : rr) {
      EXPECT_NE(v, 2u);
      EXPECT_NE(v, 5u);
    }
  }
}

TEST(RRSetTest, RootUniformOverAliveNodes) {
  const Graph g = MakeCompleteGraph(6, 0.0);
  RRSetGenerator generator(g);
  Rng rng(6);
  BitVector removed(6);
  removed.Set(0);
  removed.Set(1);
  std::map<NodeId, int> counts;
  std::vector<NodeId> rr;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    generator.Generate(&removed, 4, &rng, &rr);
    ++counts[rr[0]];
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [node, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.02) << node;
  }
}

TEST(RRSetTest, HeavilyDepletedGraphFallsBackToScan) {
  const Graph g = MakeCompleteGraph(64, 0.0);
  RRSetGenerator generator(g);
  Rng rng(7);
  BitVector removed(64);
  for (NodeId v = 0; v < 63; ++v) removed.Set(v);  // only node 63 alive
  std::vector<NodeId> rr;
  for (int i = 0; i < 100; ++i) {
    generator.Generate(&removed, 1, &rng, &rr);
    ASSERT_EQ(rr.size(), 1u);
    EXPECT_EQ(rr[0], 63u);
  }
}

// RIS duality: Pr[u in RR(random root)] = E[I({u})] / n. Verified against
// the exact oracle on enumerable graphs.
class RisDualityTest : public ::testing::TestWithParam<int> {};

TEST_P(RisDualityTest, MembershipFrequencyMatchesNormalizedSpread) {
  Graph g;
  switch (GetParam()) {
    case 0:
      g = MakePathGraph(4, 0.5);
      break;
    case 1:
      g = MakeStarGraph(5, 0.3);
      break;
    case 2:
      g = MakeCycleGraph(5, 0.6);
      break;
    default:
      g = MakePaperFigure1Graph();
  }
  auto exact = ExactSpreadOracle::Create(g);
  ASSERT_TRUE(exact.ok());

  RRSetGenerator generator(g);
  Rng rng(100 + GetParam());
  const int trials = 200000;
  std::vector<int> membership(g.num_nodes(), 0);
  std::vector<NodeId> rr;
  for (int t = 0; t < trials; ++t) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    for (NodeId v : rr) ++membership[v];
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> seeds = {u};
    const double expected =
        exact.value()->ExpectedSpread(seeds, nullptr) / g.num_nodes();
    EXPECT_NEAR(static_cast<double>(membership[u]) / trials, expected, 0.01)
        << "node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, RisDualityTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(CountCoveringTest, MatchesStoredGeneration) {
  // CountCovering(u, base=null) should estimate Cov({u}) like explicit sets.
  const Graph g = MakeStarGraph(10, 0.4);
  Rng rng(8);
  RRSetGenerator generator(g);
  const uint64_t theta = 100000;
  const uint64_t covered =
      generator.CountCovering(nullptr, g.num_nodes(), theta, 0, nullptr,
                              &rng);
  // Hub's spread = 1 + 9 * 0.4 = 4.6; Pr[0 in RR] = 4.6 / 10.
  EXPECT_NEAR(static_cast<double>(covered) / theta, 0.46, 0.01);
}

TEST(CountCoveringTest, BaseDisqualifiesCoveredSets) {
  // Path 0 -> 1 at p=1, base = {1}: every RR set rooted at 1 contains both
  // 0 and 1 -> disqualified; RR(0) = {0} does not contain... u=0 qualifies
  // only via root 0.
  const Graph g = MakePathGraph(2, 1.0);
  Rng rng(9);
  RRSetGenerator generator(g);
  BitVector base(2);
  base.Set(1);
  const uint64_t theta = 50000;
  const uint64_t covered =
      generator.CountCovering(nullptr, 2, theta, 0, &base, &rng);
  EXPECT_NEAR(static_cast<double>(covered) / theta, 0.5, 0.01);
}

TEST(CountCoveringTest, EarlyAbortDoesNotBiasCounts) {
  // Compare CountCovering against explicit generation + conditional check
  // on a graph where base hits are frequent.
  const Graph g = MakeCompleteGraph(8, 0.3);
  BitVector base(8);
  base.Set(3);
  base.Set(4);

  Rng rng_count(10);
  RRSetGenerator gen_count(g);
  const uint64_t theta = 200000;
  const uint64_t counted =
      gen_count.CountCovering(nullptr, 8, theta, 0, &base, &rng_count);

  Rng rng_full(11);
  RRSetGenerator gen_full(g);
  std::vector<NodeId> rr;
  uint64_t expected = 0;
  for (uint64_t t = 0; t < theta; ++t) {
    gen_full.Generate(nullptr, 8, &rng_full, &rr);
    bool has_u = false;
    bool hits_base = false;
    for (NodeId v : rr) {
      has_u |= v == 0;
      hits_base |= base.Test(v);
    }
    if (has_u && !hits_base) ++expected;
  }
  EXPECT_NEAR(static_cast<double>(counted) / theta,
              static_cast<double>(expected) / theta, 0.01);
}

// Parallel counting goes through a SamplingEngineHandle (the policies'
// embedded slot); the legacy ParallelCountCovering wrapper — which spun up
// a fresh thread pool per call — is gone.

TEST(ParallelCountingTest, DeterministicGivenSeedAndThreads) {
  const Graph g = MakeStarGraph(20, 0.3);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                /*num_threads=*/4,
                                /*min_parallel_batch=*/1024);
  const uint64_t a = CountOne(engine, 0, nullptr, nullptr, 20, 50000, 42);
  const uint64_t b = CountOne(engine, 0, nullptr, nullptr, 20, 50000, 42);
  EXPECT_EQ(a, b);
}

TEST(ParallelCountingTest, ThreadCountsAgreeStatistically) {
  const Graph g = MakeStarGraph(20, 0.3);
  const uint64_t theta = 200000;
  SamplingEngineHandle handle;
  SamplingOptions serial_options;
  const uint64_t single = CountOne(
      *handle.Get(g, DiffusionModel::kIndependentCascade, serial_options), 0,
      nullptr, nullptr, 20, theta, 1);
  SamplingOptions parallel_options;
  parallel_options.num_threads = 8;
  const uint64_t multi = CountOne(
      *handle.Get(g, DiffusionModel::kIndependentCascade, parallel_options), 0,
      nullptr, nullptr, 20, theta, 1);
  EXPECT_NEAR(static_cast<double>(single) / theta,
              static_cast<double>(multi) / theta, 0.01);
}

TEST(GenerateTest, ReportsEdgesExamined) {
  const Graph g = MakePathGraph(5, 1.0);
  RRSetGenerator generator(g);
  Rng rng(12);
  std::vector<NodeId> rr;
  const uint64_t edges = generator.Generate(nullptr, 5, &rng, &rr);
  // Reverse BFS from root r examines the in-edges of every reached node:
  // nodes 1..r each have one in-edge.
  EXPECT_EQ(edges, static_cast<uint64_t>(rr[0]));
}

}  // namespace
}  // namespace atpm
