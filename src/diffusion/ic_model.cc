#include "diffusion/ic_model.h"

namespace atpm {

uint32_t SimulateIC(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed,
                    std::vector<NodeId>* activated_out, SamplingStats* stats) {
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  if (visited.size() != graph.num_nodes()) {
    visited = EpochVisitedSet(graph.num_nodes());
  }
  visited.NextEpoch();
  frontier.clear();

  uint32_t count = 0;
  for (NodeId s : seeds) {
    if (removed != nullptr && removed->Test(s)) continue;
    if (visited.IsMarked(s)) continue;
    visited.Mark(s);
    frontier.push_back(s);
    if (activated_out != nullptr) activated_out->push_back(s);
    ++count;
  }

  uint64_t draws = 0;
  uint64_t edges = 0;
  // BFS order; each edge out of an activated node fires independently.
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    edges += neigh.size();
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId v = neigh[j];
      if (visited.IsMarked(v)) continue;
      if (removed != nullptr && removed->Test(v)) continue;
      ++draws;
      if (!rng->Bernoulli(probs[j])) continue;
      visited.Mark(v);
      frontier.push_back(v);
      if (activated_out != nullptr) activated_out->push_back(v);
      ++count;
    }
  }
  if (stats != nullptr) {
    stats->rng_draws += draws;
    stats->edges_examined += edges;
  }
  return count;
}

uint32_t SimulateLT(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed,
                    std::vector<NodeId>* activated_out, SamplingStats* stats) {
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  // Lazily drawn thresholds and accumulated in-neighbor mass, epoch-reset.
  thread_local std::vector<double> threshold;
  thread_local std::vector<double> mass;
  thread_local EpochVisitedSet touched;
  if (visited.size() != graph.num_nodes()) {
    visited = EpochVisitedSet(graph.num_nodes());
    touched = EpochVisitedSet(graph.num_nodes());
    threshold.assign(graph.num_nodes(), 0.0);
    mass.assign(graph.num_nodes(), 0.0);
  }
  visited.NextEpoch();
  touched.NextEpoch();
  frontier.clear();

  uint32_t count = 0;
  for (NodeId s : seeds) {
    if (removed != nullptr && removed->Test(s)) continue;
    if (visited.IsMarked(s)) continue;
    visited.Mark(s);
    frontier.push_back(s);
    if (activated_out != nullptr) activated_out->push_back(s);
    ++count;
  }

  uint64_t draws = 0;
  uint64_t edges = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    edges += neigh.size();
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId v = neigh[j];
      if (visited.IsMarked(v)) continue;
      if (removed != nullptr && removed->Test(v)) continue;
      if (!touched.IsMarked(v)) {
        touched.Mark(v);
        ++draws;
        threshold[v] = rng->UniformDouble();
        mass[v] = 0.0;
      }
      mass[v] += probs[j];
      if (mass[v] >= threshold[v]) {
        visited.Mark(v);
        frontier.push_back(v);
        if (activated_out != nullptr) activated_out->push_back(v);
        ++count;
      }
    }
  }
  if (stats != nullptr) {
    stats->rng_draws += draws;
    stats->edges_examined += edges;
  }
  return count;
}

namespace {

// SplitMix64-style mix of (key, salt) to a uniform double in [0, 1); the
// shared kernel of EdgeCoin and NodeThreshold.
double HashUnitInterval(uint64_t key, uint64_t salt) {
  uint64_t x = key ^ (salt + 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

bool EdgeCoin(uint64_t edge_index, uint64_t salt, float prob) {
  return HashUnitInterval(edge_index, salt) < static_cast<double>(prob);
}

double NodeThreshold(NodeId node, uint64_t salt) {
  // Distinct key domain from edge indices (high bit set) so an LT threshold
  // never aliases an IC edge coin under the same salt.
  return HashUnitInterval(static_cast<uint64_t>(node) | (1ULL << 63), salt);
}

uint32_t SpreadInHashedWorldLt(const Graph& graph,
                               std::span<const NodeId> seeds, uint64_t salt,
                               const BitVector* removed) {
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  thread_local std::vector<double> mass;
  thread_local EpochVisitedSet touched;
  if (visited.size() != graph.num_nodes()) {
    visited = EpochVisitedSet(graph.num_nodes());
    touched = EpochVisitedSet(graph.num_nodes());
    mass.assign(graph.num_nodes(), 0.0);
  }
  visited.NextEpoch();
  touched.NextEpoch();
  frontier.clear();

  uint32_t count = 0;
  for (NodeId s : seeds) {
    if (removed != nullptr && removed->Test(s)) continue;
    if (visited.IsMarked(s)) continue;
    visited.Mark(s);
    frontier.push_back(s);
    ++count;
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId v = neigh[j];
      if (visited.IsMarked(v)) continue;
      if (removed != nullptr && removed->Test(v)) continue;
      if (!touched.IsMarked(v)) {
        touched.Mark(v);
        mass[v] = 0.0;
      }
      mass[v] += probs[j];
      if (mass[v] >= NodeThreshold(v, salt)) {
        visited.Mark(v);
        frontier.push_back(v);
        ++count;
      }
    }
  }
  return count;
}

uint32_t SpreadInHashedWorld(const Graph& graph,
                             std::span<const NodeId> seeds, uint64_t salt,
                             const BitVector* removed) {
  thread_local std::vector<NodeId> frontier;
  thread_local EpochVisitedSet visited;
  if (visited.size() != graph.num_nodes()) {
    visited = EpochVisitedSet(graph.num_nodes());
  }
  visited.NextEpoch();
  frontier.clear();

  uint32_t count = 0;
  for (NodeId s : seeds) {
    if (removed != nullptr && removed->Test(s)) continue;
    if (visited.IsMarked(s)) continue;
    visited.Mark(s);
    frontier.push_back(s);
    ++count;
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      const NodeId v = neigh[j];
      if (visited.IsMarked(v)) continue;
      if (removed != nullptr && removed->Test(v)) continue;
      if (!EdgeCoin(graph.OutEdgeIndex(u, j), salt, probs[j])) continue;
      visited.Mark(v);
      frontier.push_back(v);
      ++count;
    }
  }
  return count;
}

}  // namespace atpm
