#include "diffusion/realization.h"

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

// Jump-kernel LT triggering sets: O(1) per-node picks via the LT plans,
// landing on the original reverse-CSR slot so the live-edge bitmap is
// addressed identically to the prefix scan.
void SampleLtJump(const Graph& graph, Rng* rng, BitVector* live,
                  uint64_t* draws) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    switch (graph.LtInPlan(v)) {
      case LtPickPlan::kNone:
        break;
      case LtPickPlan::kUniform: {
        const ProbSegment seg = graph.InProbSegments(v)[0];
        const double p = static_cast<double>(seg.prob);
        if (p <= 0.0) break;
        ++*draws;
        const double j = rng->UniformDouble() / p;
        if (j < static_cast<double>(seg.length)) {
          live->Set(graph.InEdgeIndex(v, static_cast<uint32_t>(j)));
        }
        break;
      }
      case LtPickPlan::kAlias: {
        const auto slots = graph.LtAliasSlots(v);
        ++*draws;
        const double x =
            rng->UniformDouble() * static_cast<double>(slots.size());
        uint32_t i = static_cast<uint32_t>(x);
        if (i >= slots.size()) i = static_cast<uint32_t>(slots.size()) - 1;
        if (x - static_cast<double>(i) >= slots[i].threshold) {
          i = slots[i].alias;
        }
        if (i + 1 < slots.size()) live->Set(graph.InEdgeIndex(v, i));
        break;
      }
      case LtPickPlan::kPrefix: {
        const auto probs = graph.InProbs(v);
        ++*draws;
        double r = rng->UniformDouble();
        for (uint32_t j = 0; j < probs.size(); ++j) {
          if (r < probs[j]) {
            live->Set(graph.InEdgeIndex(v, j));
            break;
          }
          r -= probs[j];
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
  } else if (jump) {
    SampleLtJump(graph, rng, &live, &draws);
  } else {
    // LT triggering sets: node v keeps in-edge j with probability
    // InProbs(v)[j]; with probability 1 - Σ it keeps none.
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const auto probs = graph.InProbs(v);
      ++draws;
      double r = rng->UniformDouble();
      for (uint32_t j = 0; j < probs.size(); ++j) {
        if (r < probs[j]) {
          live.Set(graph.InEdgeIndex(v, j));
          break;
        }
        r -= probs[j];
      }
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
  const Graph& g = *graph_;
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  if (visited.size() != g.num_nodes()) {
    visited = EpochVisitedSet(g.num_nodes());
  }
  visited.NextEpoch();
  frontier.clear();

  uint32_t count = 0;
  for (NodeId s : seeds) {
    if (removed != nullptr && removed->Test(s)) continue;
    if (visited.IsMarked(s)) continue;
    visited.Mark(s);
    frontier.push_back(s);
    if (reached_out != nullptr) reached_out->push_back(s);
    ++count;
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = g.OutNeighbors(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      if (!live_edges_.Test(g.OutEdgeIndex(u, j))) continue;
      const NodeId v = neigh[j];
      if (visited.IsMarked(v)) continue;
      if (removed != nullptr && removed->Test(v)) continue;
      visited.Mark(v);
      frontier.push_back(v);
      if (reached_out != nullptr) reached_out->push_back(v);
      ++count;
    }
  }
  return count;
}

}  // namespace atpm
