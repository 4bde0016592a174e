// RIS spread estimation (n * Cov / θ over an RR pool) checked against the
// exact IC spread oracle on small graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "rris/rr_set.h"

namespace atpm {
namespace {

// RIS spread estimate num_alive * cov / θ over `pool`.
double RisEstimate(const RRCollection& pool, uint64_t cov,
                   uint32_t num_alive) {
  return static_cast<double>(num_alive) * static_cast<double>(cov) /
         static_cast<double>(pool.num_sets());
}

// Property: RIS estimates converge to exact expected spreads.
class RisAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(RisAccuracyTest, EstimatesMatchExactOracle) {
  Graph g;
  switch (GetParam()) {
    case 0:
      g = MakePathGraph(5, 0.5);
      break;
    case 1:
      g = MakeStarGraph(7, 0.35);
      break;
    case 2:
      g = MakeCycleGraph(6, 0.4);
      break;
    default:
      g = MakePaperFigure1Graph();
  }
  auto exact = ExactSpreadOracle::Create(g);
  ASSERT_TRUE(exact.ok());

  RRSetGenerator generator(g);
  RRCollection pool(g.num_nodes());
  Rng rng(500 + GetParam());
  pool.Generate(&generator, nullptr, g.num_nodes(), 200000, &rng);

  // Single nodes.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> seeds = {u};
    EXPECT_NEAR(RisEstimate(pool, pool.CoverageOfNode(u), g.num_nodes()),
                exact.value()->ExpectedSpread(seeds, nullptr), 0.08)
        << "node " << u;
  }
  // A two-node set and its marginal.
  std::vector<NodeId> pair = {0, static_cast<NodeId>(g.num_nodes() - 1)};
  BitVector members(g.num_nodes());
  for (NodeId v : pair) members.Set(v);
  EXPECT_NEAR(RisEstimate(pool, pool.CoverageOfSet(members), g.num_nodes()),
              exact.value()->ExpectedSpread(pair, nullptr), 0.1);

  std::vector<NodeId> base = {0};
  BitVector base_b(g.num_nodes());
  base_b.Set(0);
  EXPECT_NEAR(
      RisEstimate(pool, pool.ConditionalCoverage(pair[1], base_b),
                  g.num_nodes()),
      exact.value()->ExpectedMarginalSpread(pair[1], base, nullptr), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Graphs, RisAccuracyTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(RisEstimatorTest, ResidualGraphEstimates) {
  // Path 0 -> 1 -> 2 -> 3 at p = 1 with node 2 removed: alive = {0, 1, 3},
  // E[I_res({0})] = 2.
  const Graph g = MakePathGraph(4, 1.0);
  BitVector removed(4);
  removed.Set(2);
  RRSetGenerator generator(g);
  RRCollection pool(4);
  Rng rng(9);
  pool.Generate(&generator, &removed, 3, 60000, &rng);
  EXPECT_NEAR(RisEstimate(pool, pool.CoverageOfNode(0), 3), 2.0, 0.05);
  EXPECT_NEAR(RisEstimate(pool, pool.CoverageOfNode(3), 3), 1.0, 0.05);
}

}  // namespace
}  // namespace atpm
