#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace atpm {

Result<Graph> GraphBuilder::Build(const GraphBuildOptions& options) {
  if (min_nodes_ > kMaxNodeCount) {
    return Status::InvalidArgument("reserved node count " +
                                   std::to_string(min_nodes_) + " above " +
                                   std::to_string(kMaxNodeCount));
  }
  NodeId n = min_nodes_;
  for (const WeightedEdge& e : edges_) {
    if (e.prob < 0.0f || e.prob > 1.0f) {
      return Status::InvalidArgument(
          "edge probability outside [0, 1]: " + std::to_string(e.prob));
    }
    const NodeId max_id = std::max(e.src, e.dst);
    if (max_id >= kMaxNodeCount) {
      return Status::InvalidArgument(
          "node id " + std::to_string(max_id) + " above " +
          std::to_string(kMaxNodeCount - 1));
    }
    n = std::max(n, max_id + 1);
  }

  std::vector<WeightedEdge> edges = std::move(edges_);
  edges_ = {};

  if (options.remove_self_loops) {
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const WeightedEdge& e) {
                                 return e.src == e.dst;
                               }),
                edges.end());
  }

  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.prob > b.prob;  // keep-max dedup picks the first
            });

  if (options.deduplicate) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const WeightedEdge& a, const WeightedEdge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }

  Graph g;
  g.n_ = n;
  const uint64_t m = edges.size();

  // Forward CSR (edges already sorted by src). Arrays are assembled as
  // plain vectors and adopted into the graph's storage blocks (which may
  // alternatively view a graph-store mapping; see array_block.h).
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (const WeightedEdge& e : edges) ++out_offsets[e.src + 1];
  for (NodeId u = 0; u < n; ++u) out_offsets[u + 1] += out_offsets[u];
  std::vector<NodeId> out_adj(m);
  std::vector<float> out_prob(m);
  {
    std::vector<uint64_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
    for (const WeightedEdge& e : edges) {
      const uint64_t pos = cursor[e.src]++;
      out_adj[pos] = e.dst;
      out_prob[pos] = e.prob;
    }
  }
  g.out_offsets_.Adopt(std::move(out_offsets));
  g.out_adj_.Adopt(std::move(out_adj));
  g.out_prob_.Adopt(std::move(out_prob));

  // Reverse CSR. Edges are in forward-index order (sorted by src), so the
  // running position in this loop *is* the forward edge index.
  std::vector<uint64_t> in_offsets(n + 1, 0);
  for (const WeightedEdge& e : edges) ++in_offsets[e.dst + 1];
  for (NodeId v = 0; v < n; ++v) in_offsets[v + 1] += in_offsets[v];
  std::vector<NodeId> in_adj(m);
  std::vector<float> in_prob(m);
  std::vector<uint64_t> in_edge_index(m);
  {
    std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (uint64_t forward_index = 0; forward_index < m; ++forward_index) {
      const WeightedEdge& e = edges[forward_index];
      const uint64_t pos = cursor[e.dst]++;
      in_adj[pos] = e.src;
      in_prob[pos] = e.prob;
      in_edge_index[pos] = forward_index;
    }
  }
  g.in_offsets_.Adopt(std::move(in_offsets));
  g.in_adj_.Adopt(std::move(in_adj));
  g.in_prob_.Adopt(std::move(in_prob));
  g.in_edge_index_.Adopt(std::move(in_edge_index));

  // Classify every in-edge probability vector so the geometric-jump
  // kernels are ready the moment the graph exists; AssignProbabilities
  // re-runs this whenever a weighting scheme replaces the probabilities.
  g.RebuildWeightIndex();

  return g;
}

}  // namespace atpm
