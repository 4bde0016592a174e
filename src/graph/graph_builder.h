#ifndef ATPM_GRAPH_GRAPH_BUILDER_H_
#define ATPM_GRAPH_GRAPH_BUILDER_H_

#include <limits>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace atpm {

/// The largest node count GraphBuilder::Build accepts. The CSR offsets arrays
/// hold n + 1 entries and n + 1 is computed in NodeId, so n stops one short
/// of the NodeId maximum; the largest node id is kMaxNodeCount - 1.
inline constexpr NodeId kMaxNodeCount = std::numeric_limits<NodeId>::max() - 1;

/// Options controlling GraphBuilder::Build.
struct GraphBuildOptions {
  /// Drop arcs u -> u.
  bool remove_self_loops = true;
  /// Collapse parallel arcs; the surviving arc keeps the maximum probability
  /// (parallel arcs do not occur in the paper's datasets, but generators may
  /// emit duplicates).
  bool deduplicate = true;
};

/// Accumulates weighted arcs and finalizes them into an immutable CSR Graph.
/// Usage:
///
///   GraphBuilder b;
///   b.AddEdge(0, 1, 0.5);
///   b.AddUndirectedEdge(1, 2, 0.3);   // adds both directions
///   ATPM_ASSIGN(Graph g, b.Build());
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares the node count; otherwise inferred as max endpoint + 1.
  void ReserveNodes(NodeId n) { min_nodes_ = n; }

  /// Adds the directed arc src -> dst with probability `prob`.
  void AddEdge(NodeId src, NodeId dst, double prob = 0.0) {
    edges_.push_back(WeightedEdge{src, dst, static_cast<float>(prob)});
  }

  /// Adds both arcs u <-> v with probability `prob` (undirected datasets are
  /// bidirected under the IC model, as in the paper's NetHEPT and DBLP).
  void AddUndirectedEdge(NodeId u, NodeId v, double prob = 0.0) {
    AddEdge(u, v, prob);
    AddEdge(v, u, prob);
  }

  /// Number of arcs accumulated so far (before dedup).
  size_t num_pending_edges() const { return edges_.size(); }

  /// Validates and finalizes the accumulated arcs into a Graph. Fails with
  /// InvalidArgument on probabilities outside [0, 1] and on a node count
  /// (max endpoint + 1, or the reserved count) above kMaxNodeCount.
  Result<Graph> Build(const GraphBuildOptions& options = {});

 private:
  NodeId min_nodes_ = 0;
  std::vector<WeightedEdge> edges_;
};

}  // namespace atpm

#endif  // ATPM_GRAPH_GRAPH_BUILDER_H_
