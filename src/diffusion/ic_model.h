#ifndef ATPM_DIFFUSION_IC_MODEL_H_
#define ATPM_DIFFUSION_IC_MODEL_H_

#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "rris/sampling_stats.h"

namespace atpm {

/// Forward simulation of the independent cascade (IC) model.
///
/// One trial: every seed becomes active at time 0; an edge <u, v> from a
/// newly activated u fires with probability p(u, v); the process stops when
/// no new node activates. Nodes in `removed` (if given) can neither be
/// activated nor propagate — this is how residual graphs G_i of the adaptive
/// process are simulated without copying the graph.
///
/// Each edge out of a newly activated node draws one Bernoulli coin, in
/// CSR order, skipping visited and removed targets before drawing — the
/// historical per-edge stream, bit-identical to the releases before the
/// geometric-jump kernel for a fixed seed.
///
/// If `stats` is non-null, rng_draws and edges_examined accrue into it
/// (each expanded node charges its full out-degree, the same convention as
/// the reverse generator), so DrawsPerEdge() is comparable across
/// directions.
///
/// Returns the number of activated nodes (the spread I_G(S)); if
/// `activated_out` is non-null, the activated nodes (including seeds) are
/// appended to it in activation order. Seeds that are duplicated or lie in
/// `removed` contribute nothing extra.
uint32_t SimulateIC(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed = nullptr,
                    std::vector<NodeId>* activated_out = nullptr,
                    SamplingStats* stats = nullptr);

/// Deterministic per-trial edge coin: edge `edge_index` is live in the trial
/// identified by `salt` iff this returns true. Using a hash keyed on
/// (edge, salt) gives *common random numbers* across multiple traversals of
/// the same trial — the Monte Carlo oracle exploits this to compute marginal
/// spreads E[I(S u {u})] - E[I(S)] with paired samples.
bool EdgeCoin(uint64_t edge_index, uint64_t salt, float prob);

/// Spread of `seeds` in the possible world identified by `salt`, using
/// EdgeCoin for every traversed edge. Respects `removed` like SimulateIC.
uint32_t SpreadInHashedWorld(const Graph& graph,
                             std::span<const NodeId> seeds, uint64_t salt,
                             const BitVector* removed = nullptr);

/// Deterministic per-trial node threshold in [0, 1): the LT analogue of
/// EdgeCoin, hashed on (node, salt).
double NodeThreshold(NodeId node, uint64_t salt);

/// LT spread of `seeds` in the possible world identified by `salt`: node v
/// activates once the probability mass of its activated in-neighbors
/// reaches NodeThreshold(v, salt). Two traversals with the same salt share
/// one LT world, giving common random numbers for marginal queries.
/// Respects `removed` like SimulateLT.
uint32_t SpreadInHashedWorldLt(const Graph& graph,
                               std::span<const NodeId> seeds, uint64_t salt,
                               const BitVector* removed = nullptr);

/// Forward simulation of the linear threshold (LT) model: every node draws
/// a uniform threshold in [0, 1] and activates once the probability mass of
/// its activated in-neighbors reaches it. Equivalent to the live-edge
/// process where each node keeps at most one incoming edge (Kempe et al.).
/// Requires Σ_u p(u, v) <= 1 for every v (weighted cascade satisfies this
/// with equality). Interface mirrors SimulateIC.
uint32_t SimulateLT(const Graph& graph, std::span<const NodeId> seeds,
                    Rng* rng, const BitVector* removed = nullptr,
                    std::vector<NodeId>* activated_out = nullptr,
                    SamplingStats* stats = nullptr);

}  // namespace atpm

#endif  // ATPM_DIFFUSION_IC_MODEL_H_
