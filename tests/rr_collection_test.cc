#include "rris/rr_collection.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"

namespace atpm {
namespace {

// Handcrafted pool over 5 nodes:
//   set 0: {0, 1}
//   set 1: {1, 2}
//   set 2: {2}
//   set 3: {0, 3, 4}
RRCollection MakeHandPool() {
  RRCollection pool(5);
  pool.AddSet(std::vector<NodeId>{0, 1});
  pool.AddSet(std::vector<NodeId>{1, 2});
  pool.AddSet(std::vector<NodeId>{2});
  pool.AddSet(std::vector<NodeId>{0, 3, 4});
  return pool;
}

BitVector Members(std::initializer_list<NodeId> nodes) {
  BitVector b(5);
  for (NodeId v : nodes) b.Set(v);
  return b;
}

TEST(RRCollectionTest, SizesAndSets) {
  RRCollection pool = MakeHandPool();
  EXPECT_EQ(pool.num_sets(), 4u);
  EXPECT_EQ(pool.num_nodes(), 5u);
  EXPECT_EQ(pool.total_nodes(), 8u);
  EXPECT_EQ(pool.set(0).size(), 2u);
  EXPECT_EQ(pool.set(3)[2], 4u);
}

TEST(RRCollectionTest, CoverageOfNode) {
  RRCollection pool = MakeHandPool();
  EXPECT_EQ(pool.CoverageOfNode(0), 2u);
  EXPECT_EQ(pool.CoverageOfNode(1), 2u);
  EXPECT_EQ(pool.CoverageOfNode(2), 2u);
  EXPECT_EQ(pool.CoverageOfNode(3), 1u);
  EXPECT_EQ(pool.CoverageOfNode(4), 1u);
}

TEST(RRCollectionTest, CoverageOfNodeWithIndexMatchesScan) {
  RRCollection pool = MakeHandPool();
  std::vector<uint64_t> scan(5);
  for (NodeId u = 0; u < 5; ++u) scan[u] = pool.CoverageOfNode(u);
  pool.BuildIndex();
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_EQ(pool.CoverageOfNode(u), scan[u]) << u;
  }
}

TEST(RRCollectionTest, CoverageOfSet) {
  RRCollection pool = MakeHandPool();
  EXPECT_EQ(pool.CoverageOfSet(Members({0})), 2u);
  EXPECT_EQ(pool.CoverageOfSet(Members({0, 2})), 4u);
  EXPECT_EQ(pool.CoverageOfSet(Members({3, 4})), 1u);
  EXPECT_EQ(pool.CoverageOfSet(Members({})), 0u);
  EXPECT_EQ(pool.CoverageOfSet(Members({0, 1, 2, 3, 4})), 4u);
}

TEST(RRCollectionTest, ConditionalCoverage) {
  RRCollection pool = MakeHandPool();
  // Cov(0 | {1}) : sets with 0, without 1 -> set 3 only.
  EXPECT_EQ(pool.ConditionalCoverage(0, Members({1})), 1u);
  // Cov(0 | {}) = Cov(0).
  EXPECT_EQ(pool.ConditionalCoverage(0, Members({})), 2u);
  // Cov(2 | {1}) : set 2 only (set 1 contains 1).
  EXPECT_EQ(pool.ConditionalCoverage(2, Members({1})), 1u);
  // Cov(4 | {0, 3}) : set 3 contains 0 -> 0.
  EXPECT_EQ(pool.ConditionalCoverage(4, Members({0, 3})), 0u);
}

TEST(RRCollectionTest, ConditionalCoverageEqualsCoverageDifference) {
  // Cov(u | S) == Cov(S u {u}) - Cov(S) — the defining identity.
  RRCollection pool = MakeHandPool();
  for (NodeId u = 0; u < 5; ++u) {
    for (uint32_t mask = 0; mask < 32; ++mask) {
      if (mask & (1u << u)) continue;
      BitVector base(5);
      BitVector with(5);
      with.Set(u);
      for (NodeId v = 0; v < 5; ++v) {
        if (mask & (1u << v)) {
          base.Set(v);
          with.Set(v);
        }
      }
      EXPECT_EQ(pool.ConditionalCoverage(u, base),
                pool.CoverageOfSet(with) - pool.CoverageOfSet(base))
          << "u=" << u << " mask=" << mask;
    }
  }
}

TEST(RRCollectionTest, InvertedIndexListsCoveringSets) {
  RRCollection pool = MakeHandPool();
  pool.BuildIndex();
  ASSERT_TRUE(pool.index_built());
  const auto sets0 = pool.CoveringSets(0);
  ASSERT_EQ(sets0.size(), 2u);
  EXPECT_EQ(sets0[0], 0u);
  EXPECT_EQ(sets0[1], 3u);
  EXPECT_EQ(pool.CoveringSets(2).size(), 2u);
}

TEST(RRCollectionTest, AddSetInvalidatesIndex) {
  RRCollection pool = MakeHandPool();
  pool.BuildIndex();
  EXPECT_TRUE(pool.index_built());
  pool.AddSet(std::vector<NodeId>{4});
  EXPECT_FALSE(pool.index_built());
  pool.BuildIndex();
  EXPECT_EQ(pool.CoveringSets(4).size(), 2u);
}

TEST(RRCollectionTest, ClearEmptiesPool) {
  RRCollection pool = MakeHandPool();
  pool.Clear();
  EXPECT_EQ(pool.num_sets(), 0u);
  EXPECT_EQ(pool.total_nodes(), 0u);
  EXPECT_EQ(pool.CoverageOfNode(0), 0u);
}

TEST(RRCollectionTest, GenerateProducesRequestedCount) {
  const Graph g = MakeStarGraph(10, 0.5);
  RRSetGenerator generator(g);
  RRCollection pool(10);
  Rng rng(1);
  const uint64_t edges =
      pool.Generate(&generator, nullptr, 10, 500, &rng);
  EXPECT_EQ(pool.num_sets(), 500u);
  EXPECT_GT(edges, 0u);
}

TEST(RRCollectionTest, GeneratedCoverageMatchesSpreadEstimate) {
  // On the star with p = 0.5, hub coverage fraction ~ (1 + 9*0.5)/10.
  const Graph g = MakeStarGraph(10, 0.5);
  RRSetGenerator generator(g);
  RRCollection pool(10);
  Rng rng(2);
  pool.Generate(&generator, nullptr, 10, 100000, &rng);
  EXPECT_NEAR(
      static_cast<double>(pool.CoverageOfNode(0)) / pool.num_sets(),
      0.55, 0.01);
}

TEST(RRCollectionTest, RestrictedPoolRejectsNonMemberQueriesInDebug) {
  RRCollection pool(5);
  const std::vector<NodeId> members = {1, 2};
  pool.RestrictTo(members);
  pool.AddSet(std::vector<NodeId>{1, 2});
  pool.BuildIndex();
  EXPECT_EQ(pool.CoverageOfNode(1), 1u);
  EXPECT_DEBUG_DEATH(pool.CoverageOfNode(0), "Answers");
  EXPECT_DEBUG_DEATH(pool.CoveringSets(3), "Answers");
  EXPECT_DEBUG_DEATH(pool.CoverageOfSet(Members({2, 4})), "Answers");
  EXPECT_DEBUG_DEATH(pool.ConditionalCoverage(1, Members({0})), "Answers");
  CoverageQueryBatch batch;
  const BitVector base = Members({3});
  batch.Add(1, &base);
  EXPECT_DEBUG_DEATH(pool.AnswerBatch(&batch), "Answers");
}

TEST(RRCollectionTest, RestrictionToEveryNodeIsNoRestriction) {
  RRCollection pool(4);
  const std::vector<NodeId> all = {3, 1, 0, 2};
  pool.RestrictTo(all);
  EXPECT_EQ(pool.members(), nullptr);
}

TEST(RRCollectionTest, ClearDropsRestriction) {
  RRCollection pool(5);
  const std::vector<NodeId> members = {1, 2};
  pool.RestrictTo(members);
  ASSERT_NE(pool.members(), nullptr);
  EXPECT_TRUE(pool.members()->Test(2));
  EXPECT_FALSE(pool.members()->Test(0));
  pool.Clear();
  EXPECT_EQ(pool.members(), nullptr);
}

TEST(RRCollectionTest, EmptyPoolQueriesAreZero) {
  RRCollection pool(3);
  EXPECT_EQ(pool.num_sets(), 0u);
  EXPECT_EQ(pool.CoverageOfNode(1), 0u);
  BitVector b(3);
  b.Set(0);
  EXPECT_EQ(pool.CoverageOfSet(b), 0u);
}

}  // namespace
}  // namespace atpm
