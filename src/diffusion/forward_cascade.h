#ifndef ATPM_DIFFUSION_FORWARD_CASCADE_H_
#define ATPM_DIFFUSION_FORWARD_CASCADE_H_

#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "graph/graph.h"

namespace atpm {

/// The forward cascade behind every spread function (SimulateIC /
/// SimulateLT, the hashed worlds, Realization::Spread); only the edge rule
/// differs. Seeds activate at time 0, skipping removed and duplicate ones.
/// Each activated node u, in activation (BFS) order, offers its j-th
/// out-edge <u, v> of probability p to `arrive(u, j, v, p)`, in CSR order
/// and only when v is neither activated nor in `removed`; a true answer
/// activates v. Nodes in `removed` thus neither activate nor propagate.
///
/// Returns the number of activated nodes. If `reached_out` is non-null the
/// activated nodes, seeds first, are appended in activation order; if
/// `edges` is non-null every activated node's out-degree is added to it.
template <typename Arrive>
uint32_t ForwardCascade(const Graph& graph, std::span<const NodeId> seeds,
                        const BitVector* removed,
                        std::vector<NodeId>* reached_out, uint64_t* edges,
                        Arrive&& arrive) {
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  if (visited.size() != graph.num_nodes()) {
    visited = EpochVisitedSet(graph.num_nodes());
  }
  visited.NextEpoch();
  frontier.clear();
  const auto dead = [&](NodeId v) {
    return visited.IsMarked(v) || (removed != nullptr && removed->Test(v));
  };
  const auto activate = [&](NodeId v) {
    visited.Mark(v);
    frontier.push_back(v);
  };

  for (NodeId s : seeds) {
    if (!dead(s)) activate(s);
  }
  uint64_t expanded = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    expanded += neigh.size();
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId v = neigh[j];
      if (!dead(v) && arrive(u, j, v, probs[j])) activate(v);
    }
  }
  if (edges != nullptr) *edges += expanded;
  if (reached_out != nullptr) {
    reached_out->insert(reached_out->end(), frontier.begin(), frontier.end());
  }
  return static_cast<uint32_t>(frontier.size());
}

}  // namespace atpm

#endif  // ATPM_DIFFUSION_FORWARD_CASCADE_H_
