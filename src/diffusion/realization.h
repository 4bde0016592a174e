#ifndef ATPM_DIFFUSION_REALIZATION_H_
#define ATPM_DIFFUSION_REALIZATION_H_

#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "diffusion/diffusion_model.h"
#include "graph/graph.h"
#include "rris/sampling_stats.h"

namespace atpm {

/// A *realization* (possible world) φ of a probabilistic graph: the residual
/// graph obtained by keeping each edge e with probability p(e). The
/// experiment protocol of the paper samples 20 realizations per dataset and
/// evaluates every policy against the same worlds.
///
/// The live-edge set is materialized eagerly as a bitmap over global edge
/// indices, so a Realization supports many queries (the adaptive feedback
/// loop re-traverses it after every seeding decision).
class Realization {
 public:
  /// Samples a fresh possible world of `graph` using `rng`.
  ///   * IC: each edge is live independently with its probability.
  ///   * LT: each node keeps at most one incoming edge, edge <u, v> with
  ///     probability p(u, v) (the triggering-set characterization).
  ///
  /// `kernel` selects the flip strategy. The default geometric-jump kernel
  /// flips edges through the graph's weight-class index, paying roughly one
  /// draw per *live* edge instead of one per edge (and O(1) LT picks). For
  /// IC it sweeps every node's in-edge vector — each edge appears in
  /// exactly one in-list, so this flips the same independent coins as the
  /// forward per-edge sweep. The same world distribution as kPerEdge, from
  /// a different RNG stream.
  ///
  /// kPerEdge is the bit-stable historical sweep — worlds are the
  /// experimental ground truth fixed-seed runs are compared on, so recorded
  /// tables from pre-jump releases need that knob to reproduce exactly
  /// (the checked-in experiment artifacts were re-baselined when the
  /// default flipped).
  ///
  /// If `stats` is non-null, rng_draws accrues into it and every edge
  /// charges one edges_examined under either kernel, so DrawsPerEdge()
  /// measures the sweep's draw reduction directly.
  static Realization Sample(
      const Graph& graph, Rng* rng,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      SamplingKernel kernel = SamplingKernel::kGeometricJump,
      SamplingStats* stats = nullptr);

  /// Builds a world with an explicit live-edge mask (tests, enumeration).
  static Realization FromLiveEdges(const Graph& graph, BitVector live_edges);

  /// True iff the j-th outgoing edge of `u` is live in this world.
  bool IsLive(NodeId u, uint32_t j) const {
    return live_edges_.Test(graph_->OutEdgeIndex(u, j));
  }

  /// Number of live edges.
  size_t NumLiveEdges() const { return live_edges_.Count(); }

  /// Spread I_φ(S): nodes reachable from `seeds` over live edges, skipping
  /// nodes in `removed` (residual-graph evaluation). If `reached_out` is
  /// non-null the reached nodes are appended.
  uint32_t Spread(std::span<const NodeId> seeds,
                  const BitVector* removed = nullptr,
                  std::vector<NodeId>* reached_out = nullptr) const;

  /// The underlying graph.
  const Graph& graph() const { return *graph_; }

 private:
  Realization(const Graph* graph, BitVector live_edges)
      : graph_(graph), live_edges_(std::move(live_edges)) {}

  const Graph* graph_;
  BitVector live_edges_;
};

}  // namespace atpm

#endif  // ATPM_DIFFUSION_REALIZATION_H_
