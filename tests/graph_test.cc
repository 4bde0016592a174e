#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "graph/graph_builder.h"

namespace atpm {
namespace {

Graph Build(GraphBuilder* builder, const GraphBuildOptions& options = {}) {
  Result<Graph> result = builder->Build(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphBuilderTest, BuildsSimpleTriangle) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.25);
  b.AddEdge(2, 0, 1.0);
  Graph g = Build(&b);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  EXPECT_FLOAT_EQ(g.OutProbs(0)[0], 0.5f);
  EXPECT_EQ(g.InNeighbors(0)[0], 2u);
  EXPECT_FLOAT_EQ(g.InProbs(0)[0], 1.0f);
}

TEST(GraphBuilderTest, InfersNodeCountFromMaxId) {
  GraphBuilder b;
  b.AddEdge(2, 9, 0.1);
  Graph g = Build(&b);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.OutDegree(5), 0u);
}

TEST(GraphBuilderTest, ReserveNodesCreatesIsolatedNodes) {
  GraphBuilder b;
  b.ReserveNodes(20);
  b.AddEdge(0, 1, 0.3);
  Graph g = Build(&b);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, RemovesSelfLoopsByDefault) {
  GraphBuilder b;
  b.AddEdge(1, 1, 0.5);
  b.AddEdge(0, 1, 0.5);
  Graph g = Build(&b);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, KeepsSelfLoopsWhenAsked) {
  GraphBuilder b;
  b.AddEdge(1, 1, 0.5);
  GraphBuildOptions options;
  options.remove_self_loops = false;
  Graph g = Build(&b, options);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdgesKeepingMaxProb) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.2);
  b.AddEdge(0, 1, 0.7);
  b.AddEdge(0, 1, 0.4);
  Graph g = Build(&b);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_FLOAT_EQ(g.OutProbs(0)[0], 0.7f);
}

TEST(GraphBuilderTest, KeepsParallelEdgesWhenDedupDisabled) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.2);
  b.AddEdge(0, 1, 0.7);
  GraphBuildOptions options;
  options.deduplicate = false;
  Graph g = Build(&b, options);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, UndirectedEdgeAddsBothArcs) {
  GraphBuilder b;
  b.AddUndirectedEdge(0, 1, 0.5);
  Graph g = Build(&b);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(GraphBuilderTest, RejectsProbabilityAboveOne) {
  GraphBuilder b;
  b.AddEdge(0, 1, 1.5);
  Result<Graph> result = b.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsNegativeProbability) {
  GraphBuilder b;
  b.AddEdge(0, 1, -0.1);
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, RejectsEndpointAtNodeIdMax) {
  // At 2^32 - 1 the node count max id + 1 wraps to 0; at 2^32 - 2 the
  // offsets arrays' n + 1 entries do.
  const NodeId kNodeIdMax = std::numeric_limits<NodeId>::max();
  for (const NodeId max_id : {kNodeIdMax, kNodeIdMax - 1}) {
    for (const bool as_src : {true, false}) {
      GraphBuilder b;
      b.AddEdge(as_src ? max_id : 0, as_src ? 0 : max_id, 0.5);
      Result<Graph> result = b.Build();
      ASSERT_FALSE(result.ok()) << max_id;
      EXPECT_TRUE(result.status().IsInvalidArgument()) << max_id;
    }
  }
}

TEST(GraphBuilderTest, RejectsReservedNodeCountAboveMax) {
  // ReserveNodes(2^32 - 1) would make the offsets arrays' n + 1 wrap to 0.
  GraphBuilder b;
  b.ReserveNodes(kMaxNodeCount + 1);
  b.AddEdge(0, 1, 0.5);
  Result<Graph> result = b.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GraphTest, ForwardAndReverseViewsAgree) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.1);
  b.AddEdge(0, 2, 0.2);
  b.AddEdge(1, 2, 0.3);
  b.AddEdge(3, 2, 0.4);
  b.AddEdge(2, 0, 0.5);
  Graph g = Build(&b);

  // Every forward arc appears exactly once in the reverse view with the
  // same probability, and vice versa.
  std::multiset<std::tuple<NodeId, NodeId, float>> forward;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto neigh = g.OutNeighbors(u);
    const auto probs = g.OutProbs(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      forward.insert({u, neigh[j], probs[j]});
    }
  }
  std::multiset<std::tuple<NodeId, NodeId, float>> reverse;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto neigh = g.InNeighbors(v);
    const auto probs = g.InProbs(v);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      reverse.insert({neigh[j], v, probs[j]});
    }
  }
  EXPECT_EQ(forward, reverse);
}

TEST(GraphTest, DegreeSumsMatchEdgeCount) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.1);
  b.AddEdge(1, 2, 0.1);
  b.AddEdge(2, 3, 0.1);
  b.AddEdge(3, 0, 0.1);
  b.AddEdge(0, 2, 0.1);
  Graph g = Build(&b);
  uint64_t out_sum = 0;
  uint64_t in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(GraphTest, OutEdgeIndexIsGloballyUniqueAndDense) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.1);
  b.AddEdge(0, 2, 0.1);
  b.AddEdge(1, 0, 0.1);
  b.AddEdge(2, 1, 0.1);
  Graph g = Build(&b);
  std::set<uint64_t> indices;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (uint32_t j = 0; j < g.OutDegree(u); ++j) {
      indices.insert(g.OutEdgeIndex(u, j));
    }
  }
  EXPECT_EQ(indices.size(), g.num_edges());
  EXPECT_EQ(*indices.begin(), 0u);
  EXPECT_EQ(*indices.rbegin(), g.num_edges() - 1);
}

TEST(GraphTest, CollectEdgesRoundTrips) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.25);
  b.AddEdge(2, 1, 0.75);
  Graph g = Build(&b);
  std::vector<WeightedEdge> edges = g.CollectEdges();
  ASSERT_EQ(edges.size(), 2u);
  GraphBuilder b2;
  for (const WeightedEdge& e : edges) b2.AddEdge(e.src, e.dst, e.prob);
  Graph g2 = Build(&b2);
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(GraphTest, AverageDegree) {
  GraphBuilder b;
  b.ReserveNodes(4);
  b.AddEdge(0, 1, 0.1);
  b.AddEdge(1, 2, 0.1);
  Graph g = Build(&b);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.5);
}

TEST(GraphTest, AssignProbabilitiesUpdatesBothViews) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.0);
  b.AddEdge(1, 2, 0.0);
  b.AddEdge(2, 0, 0.0);
  Graph g = Build(&b);
  g.AssignProbabilities([](NodeId src, NodeId dst) {
    return 0.1 * static_cast<double>(src) + 0.01 * static_cast<double>(dst);
  });
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto neigh = g.OutNeighbors(u);
    const auto probs = g.OutProbs(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      EXPECT_FLOAT_EQ(probs[j],
                      static_cast<float>(0.1 * u + 0.01 * neigh[j]));
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto neigh = g.InNeighbors(v);
    const auto probs = g.InProbs(v);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      EXPECT_FLOAT_EQ(probs[j],
                      static_cast<float>(0.1 * neigh[j] + 0.01 * v));
    }
  }
}

TEST(GraphBuilderTest, BuildConsumesPendingEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1, 0.5);
  EXPECT_EQ(b.num_pending_edges(), 1u);
  Build(&b);
  EXPECT_EQ(b.num_pending_edges(), 0u);
}

TEST(GraphBuilderTest, LargeStarGraph) {
  GraphBuilder b;
  const NodeId n = 10000;
  for (NodeId v = 1; v < n; ++v) b.AddEdge(0, v, 0.01);
  Graph g = Build(&b);
  EXPECT_EQ(g.OutDegree(0), n - 1);
  EXPECT_EQ(g.InDegree(0), 0u);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_EQ(g.InDegree(v), 1u);
  }
}

}  // namespace
}  // namespace atpm
