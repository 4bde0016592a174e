#include "diffusion/realization.h"

#include "diffusion/forward_cascade.h"
#include "graph/geometric_scan.h"

namespace atpm {

namespace {

// Jump-kernel IC world, reverse sweep: flip each node's in-edge vector
// through the weight-class index, paying one draw per live edge on
// uniform / few-distinct vectors. Every edge appears in exactly one node's
// in-list, so this covers the same independent flips as the per-edge
// forward sweep — identical world distribution, different RNG stream.
void SampleIcJumpReverse(const Graph& graph, Rng* rng, BitVector* live,
                         uint64_t* draws) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    switch (graph.InWeightClass(v)) {
      case NodeWeightClass::kEmpty:
        break;
      case NodeWeightClass::kUniform: {
        // One segment over the original CSR order.
        GeometricSegmentScan(graph.InProbSegments(v), rng, draws,
                             [&](uint32_t j) {
                               live->Set(graph.InEdgeIndex(v, j));
                               return true;
                             });
        break;
      }
      case NodeWeightClass::kFewDistinct: {
        const auto slots = graph.JumpInSlots(v);
        GeometricSegmentScan(
            graph.InProbSegments(v), rng, draws, [&](uint32_t j) {
              live->Set(graph.InEdgeIndex(v, slots[j]));
              return true;
            });
        break;
      }
      case NodeWeightClass::kGeneral: {
        const auto probs = graph.InProbs(v);
        for (uint32_t j = 0; j < probs.size(); ++j) {
          ++*draws;
          if (rng->Bernoulli(probs[j])) live->Set(graph.InEdgeIndex(v, j));
        }
        break;
      }
    }
  }
}

}  // namespace

Realization Realization::Sample(const Graph& graph, Rng* rng,
                                DiffusionModel model, SamplingKernel kernel,
                                SamplingStats* stats) {
  BitVector live(graph.num_edges());
  const bool jump = kernel == SamplingKernel::kGeometricJump;
  uint64_t draws = 0;
  if (model == DiffusionModel::kIndependentCascade) {
    if (jump) {
      SampleIcJumpReverse(graph, rng, &live, &draws);
    } else {
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        const auto probs = graph.OutProbs(u);
        for (uint32_t j = 0; j < probs.size(); ++j) {
          ++draws;
          if (rng->Bernoulli(probs[j])) live.Set(graph.OutEdgeIndex(u, j));
        }
      }
    }
  } else {
    // LT triggering sets: node v keeps at most one in-edge.
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const uint32_t slot = PickLtInEdge(graph, v, nullptr, jump, rng, &draws);
      if (slot != kNoLtPick) live.Set(graph.InEdgeIndex(v, slot));
    }
  }
  if (stats != nullptr) {
    stats->rng_draws += draws;
    stats->edges_examined += graph.num_edges();
  }
  return Realization(&graph, std::move(live));
}

Realization Realization::FromLiveEdges(const Graph& graph,
                                       BitVector live_edges) {
  ATPM_CHECK_EQ(live_edges.size(), graph.num_edges());
  return Realization(&graph, std::move(live_edges));
}

uint32_t Realization::Spread(std::span<const NodeId> seeds,
                             const BitVector* removed,
                             std::vector<NodeId>* reached_out) const {
  return ForwardCascade(*graph_, seeds, removed, reached_out, nullptr,
                        [&](NodeId u, uint32_t j, NodeId, float) {
                          return live_edges_.Test(graph_->OutEdgeIndex(u, j));
                        });
}

}  // namespace atpm
