#include "diffusion/ic_model.h"

#include "diffusion/forward_cascade.h"

namespace atpm {

namespace {

// The LT edge rule: v activates once the probability mass of its activated
// in-neighbours reaches its threshold, which draw(v) supplies on v's first
// touch in the cascade. Lazily set thresholds and mass, epoch-reset.
template <typename DrawThreshold>
uint32_t ThresholdCascade(const Graph& graph, std::span<const NodeId> seeds,
                          const BitVector* removed,
                          std::vector<NodeId>* activated_out, uint64_t* edges,
                          DrawThreshold&& draw) {
  thread_local EpochVisitedSet touched;
  thread_local std::vector<double> threshold;
  thread_local std::vector<double> mass;
  if (touched.size() != graph.num_nodes()) {
    touched = EpochVisitedSet(graph.num_nodes());
    threshold.assign(graph.num_nodes(), 0.0);
    mass.assign(graph.num_nodes(), 0.0);
  }
  touched.NextEpoch();
  return ForwardCascade(graph, seeds, removed, activated_out, edges,
                        [&](NodeId, uint32_t, NodeId v, float p) {
                          if (!touched.IsMarked(v)) {
                            touched.Mark(v);
                            threshold[v] = draw(v);
                            mass[v] = 0.0;
                          }
                          mass[v] += p;
                          return mass[v] >= threshold[v];
                        });
}

void Charge(SamplingStats* stats, uint64_t draws, uint64_t edges) {
  if (stats == nullptr) return;
  stats->rng_draws += draws;
  stats->edges_examined += edges;
}

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

uint32_t SimulateIC(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed,
                    std::vector<NodeId>* activated_out, SamplingStats* stats) {
  uint64_t draws = 0;
  uint64_t edges = 0;
  const uint32_t count = ForwardCascade(
      graph, seeds, removed, activated_out, &edges,
      [&](NodeId, uint32_t, NodeId, float p) {
        ++draws;
        return rng->Bernoulli(p);
      });
  Charge(stats, draws, edges);
  return count;
}

uint32_t SimulateLT(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed,
                    std::vector<NodeId>* activated_out, SamplingStats* stats) {
  uint64_t draws = 0;
  uint64_t edges = 0;
  const uint32_t count = ThresholdCascade(
      graph, seeds, removed, activated_out, &edges, [&](NodeId) {
        ++draws;
        return rng->UniformDouble();
      });
  Charge(stats, draws, edges);
  return count;
}

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
  return ThresholdCascade(graph, seeds, removed, nullptr, nullptr,
                          [&](NodeId v) { return NodeThreshold(v, salt); });
}

uint32_t SpreadInHashedWorld(const Graph& graph,
                             std::span<const NodeId> seeds, uint64_t salt,
                             const BitVector* removed) {
  return ForwardCascade(graph, seeds, removed, nullptr, nullptr,
                        [&](NodeId u, uint32_t j, NodeId, float p) {
                          return EdgeCoin(graph.OutEdgeIndex(u, j), salt, p);
                        });
}

}  // namespace atpm
