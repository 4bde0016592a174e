#ifndef ATPM_GRAPH_GRAPH_H_
#define ATPM_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/array_block.h"

namespace atpm {

/// Node identifier. Graphs are addressed by dense ids in [0, num_nodes).
using NodeId = uint32_t;

/// A directed edge with an activation probability, as consumed by
/// GraphBuilder and produced by the generators and loaders.
struct WeightedEdge {
  NodeId src = 0;
  NodeId dst = 0;
  float prob = 0.0f;
};

/// Which low-level edge-sampling kernel the stochastic substrates (RR-set
/// generation, possible-world sampling) should use.
enum class SamplingKernel : uint8_t {
  /// Weight-class-aware fast kernel: one geometric draw skips directly to
  /// the next successful in-edge on uniform / few-distinct probability
  /// vectors (weighted cascade, constant-p, trivalency), and the LT reverse
  /// step is an O(1) pick (closed form for uniform weights, alias table
  /// otherwise). Statistically equivalent to kPerEdge — identical success
  /// distributions per edge — but consumes a *different RNG stream*, so
  /// fixed-seed runs differ sample-by-sample while agreeing in expectation.
  /// General weight vectors fall back to the per-edge loop (over an
  /// interleaved (neighbor, prob) layout for cache locality).
  kGeometricJump,
  /// The historical kernel: one Bernoulli draw per alive unvisited in-edge
  /// (IC) and a linear prefix scan (LT). Bit-compatible with pre-kernel
  /// releases for a fixed seed; keep for reproducing recorded runs.
  kPerEdge,
};

/// Human-readable kernel name ("geometric-jump" / "per-edge").
const char* SamplingKernelName(SamplingKernel kernel);

/// Classification of one node's edge probability vector, computed at
/// graph build / weighting time (RebuildWeightIndex) for both CSR
/// directions. The classes are what make geometric-jump sampling possible:
/// within a run of equal-probability edges, the index of the next
/// successful edge is geometric, so one draw replaces one Bernoulli per
/// edge.
enum class NodeWeightClass : uint8_t {
  /// Degree 0 — nothing to sample.
  kEmpty,
  /// Every edge has the same probability (weighted cascade in-vectors:
  /// p = 1/indeg; constant-p). One segment over the CSR in its original
  /// order.
  kUniform,
  /// At most kMaxDistinctInProbs distinct probabilities (trivalency's
  /// {0.1, 0.01, 0.001}). The jump view groups the edges by probability
  /// into contiguous same-p segments.
  kFewDistinct,
  /// Anything else — the per-edge Bernoulli loop is used (over the
  /// interleaved jump view for cache locality).
  kGeneral,
  /// Irregular vector (all-distinct or more than kMaxDistinctInProbs
  /// values) whose probabilities are nonetheless low enough that splitting
  /// it into per-edge length-1 segments — in the ORIGINAL CSR order, so no
  /// arc/slot reorder view is materialized — lets the cross-segment
  /// geometric walk share one draw per success across whole runs. This is
  /// what accelerates weighted-cascade OUT-vectors, where p(u, v) =
  /// 1/indeg(v) differs per target; only the out-direction index emits
  /// this class today (the in-direction census is kept bit-stable).
  kSegmentedRuns,
};

/// Distinct-value cap for NodeWeightClass::kFewDistinct.
inline constexpr uint32_t kMaxDistinctInProbs = 8;

/// One maximal group of same-probability in-edges in the jump-ordered view
/// of a node's reverse adjacency.
struct ProbSegment {
  /// Number of edges in the segment.
  uint32_t length = 0;
  /// Shared activation probability of the segment's edges.
  float prob = 0.0f;
  /// Precomputed log1p(-prob) for geometric jumps (negative). 0 when the
  /// segment should be scanned per-edge instead: the degenerate probs
  /// {0, 1} (handled without drawing) and segments where the jump gate
  /// judged the log() not worth it (see JumpFactor in graph.cc).
  double log1p_neg = 0.0;
  /// Probability that at least one edge fires in the maximal run of jump
  /// segments starting here (1 - Π (1-p)^len over the run suffix). Lets
  /// the scan resolve the common nothing-fires case with one compare and
  /// no log at all; 0 for non-jump segments (the scan then skips the
  /// pre-test and pays the log).
  double run_any_prob = 0.0;
};

/// Interleaved (neighbor, probability) reverse-CSR slot — one cache stream
/// instead of two for kernels that touch both fields per edge.
struct InArc {
  NodeId src = 0;
  float prob = 0.0f;
};

/// Forward-CSR counterpart of InArc for the forward jump kernels.
struct OutArc {
  NodeId dst = 0;
  float prob = 0.0f;
};

/// How the LT reverse step should pick a node's (at most one) in-neighbor.
enum class LtPickPlan : uint8_t {
  /// In-degree 0: no pick, no draw.
  kNone,
  /// Uniform in-probs with indeg * p <= 1 (+eps): closed-form O(1) pick
  /// j = floor(r / p) from one uniform draw.
  kUniform,
  /// Non-uniform probs summing to <= 1 (+eps) on a long enough in-list:
  /// Walker/Vose alias table over indeg + 1 outcomes (the extra outcome is
  /// "no pick"), one draw.
  kAlias,
  /// The linear prefix scan — either because the probability mass exceeds
  /// 1 (the scan's prefix truncation is then semantically significant), or
  /// because the in-list is too short for an alias table to beat a few
  /// in-cache float compares.
  kPrefix,
};

/// One alias-table slot (Vose). A pick draws x in [0, outcomes), splits it
/// into slot i = floor(x) and fraction f = x - i, and resolves to i if
/// f < threshold, else to alias.
struct LtAliasSlot {
  double threshold = 0.0;
  uint32_t alias = 0;
  /// Names the slot's tail padding so stores write it as zeros.
  uint32_t reserved = 0;
};

/// Aggregate weight-class census of one CSR direction — what fraction of
/// the edge mass the geometric-jump kernel can actually accelerate.
/// Exposed to the diffusion oracles and the bench layer via
/// Graph::InWeightClassProfile() / Graph::OutWeightClassProfile().
struct WeightClassProfile {
  NodeId empty_nodes = 0;
  NodeId uniform_nodes = 0;
  NodeId few_distinct_nodes = 0;
  NodeId general_nodes = 0;
  /// Nodes whose irregular vector is split into per-edge segments
  /// (NodeWeightClass::kSegmentedRuns). Only the out-direction census can
  /// be nonzero today.
  NodeId segmented_nodes = 0;
  /// Edges the jump kernel samples without per-edge draws: jump-enabled
  /// segments plus the drawless degenerate (p in {0, 1}) ones. Edges of
  /// gate-rejected segments (short / high-probability runs that keep the
  /// linear Bernoulli scan even on uniform / few-distinct nodes) and of
  /// kGeneral nodes are excluded.
  uint64_t jumpable_edges = 0;
  uint64_t total_edges = 0;
  /// Nodes whose LT reverse pick is O(1) (kUniform or kAlias plan).
  NodeId lt_fast_nodes = 0;

  double JumpableEdgeFraction() const {
    return total_edges == 0
               ? 1.0
               : static_cast<double>(jumpable_edges) /
                     static_cast<double>(total_edges);
  }
};

/// Immutable probabilistic digraph in CSR form, with both forward (out) and
/// reverse (in) adjacency. The reverse view exists because reverse influence
/// sampling traverses incoming edges; keeping both directions materialized
/// avoids a transpose in every RR-set batch.
///
/// Each arc <u, v> carries an independent-cascade activation probability
/// p(u, v) in [0, 1]. Probabilities are stored as float (the paper's
/// weighted-cascade setting has at most `n` distinct values); all spread and
/// profit arithmetic is done in double.
///
/// Construction goes through GraphBuilder; a default-constructed Graph is an
/// empty graph.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes `n`.
  NodeId num_nodes() const { return n_; }
  /// Number of directed arcs `m`.
  uint64_t num_edges() const { return static_cast<uint64_t>(out_adj_.size()); }

  /// Out-degree of `u`.
  uint32_t OutDegree(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  /// In-degree of `v`.
  uint32_t InDegree(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Outgoing neighbor ids of `u` (targets of arcs u -> *).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return {out_adj_.data() + out_offsets_[u], OutDegree(u)};
  }
  /// Probabilities aligned with OutNeighbors(u).
  std::span<const float> OutProbs(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return {out_prob_.data() + out_offsets_[u], OutDegree(u)};
  }
  /// Incoming neighbor ids of `v` (sources of arcs * -> v).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {in_adj_.data() + in_offsets_[v], InDegree(v)};
  }
  /// Probabilities aligned with InNeighbors(v); prob of arc (neighbor -> v).
  std::span<const float> InProbs(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {in_prob_.data() + in_offsets_[v], InDegree(v)};
  }

  /// Global edge index of the j-th outgoing arc of `u`. Edge indices are
  /// stable identifiers in [0, num_edges) used by Realization live-edge
  /// bitmaps.
  uint64_t OutEdgeIndex(NodeId u, uint32_t j) const {
    ATPM_DCHECK(u < n_);
    ATPM_DCHECK(j < OutDegree(u));
    return out_offsets_[u] + j;
  }

  /// Global (forward) edge index of the j-th *incoming* arc of `v` — the
  /// same identifier OutEdgeIndex assigns to that arc. Lets reverse
  /// traversals and the linear-threshold sampler address live-edge bitmaps.
  uint64_t InEdgeIndex(NodeId v, uint32_t j) const {
    ATPM_DCHECK(v < n_);
    ATPM_DCHECK(j < InDegree(v));
    return in_edge_index_[in_offsets_[v] + j];
  }

  /// Enumerates all arcs as WeightedEdge records (for IO and tests).
  std::vector<WeightedEdge> CollectEdges() const;

  /// Average out-degree m / n (0 for the empty graph).
  double AverageDegree() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(num_edges()) / static_cast<double>(n_);
  }

  /// Replaces every arc probability using `prob_fn(src, dst)`. Both the
  /// forward and reverse views are updated consistently, and the weight-
  /// class index is rebuilt so the jump kernels always see fresh
  /// classifications. Used by the weighting module; see weighting.h for the
  /// standard schemes. On a memory-mapped graph this first detaches every
  /// array into owned storage (copy-on-write) — the store file is never
  /// written through.
  template <typename ProbFn>
  void AssignProbabilities(ProbFn prob_fn) {
    EnsureOwnedStorage();
    float* out_prob = out_prob_.MutableVec().data();
    for (NodeId u = 0; u < n_; ++u) {
      const auto neigh = OutNeighbors(u);
      for (uint32_t j = 0; j < neigh.size(); ++j) {
        out_prob[out_offsets_[u] + j] = static_cast<float>(prob_fn(u, neigh[j]));
      }
    }
    float* in_prob = in_prob_.MutableVec().data();
    for (NodeId v = 0; v < n_; ++v) {
      const auto neigh = InNeighbors(v);
      for (uint32_t j = 0; j < neigh.size(); ++j) {
        in_prob[in_offsets_[v] + j] = static_cast<float>(prob_fn(neigh[j], v));
      }
    }
    RebuildWeightIndex();
  }

  // ---- Weight-class index over the reverse CSR (the geometric-jump
  // substrate). Built by GraphBuilder::Build and AssignProbabilities; all
  // accessors are valid on any constructed graph.

  /// Classification of v's in-edge probability vector.
  NodeWeightClass InWeightClass(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return in_class_[v];
  }

  /// Same-probability segments of v's jump-ordered in-edge view. One
  /// segment for kUniform (the original CSR order), up to
  /// kMaxDistinctInProbs for kFewDistinct (grouped by descending
  /// probability), empty for kEmpty / kGeneral.
  std::span<const ProbSegment> InProbSegments(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {in_segments_.data() + seg_offsets_[v],
            static_cast<size_t>(seg_offsets_[v + 1] - seg_offsets_[v])};
  }

  /// Interleaved (neighbor, prob) in-edge view of v, grouped into
  /// contiguous same-probability runs — one cache stream for the segment
  /// jumps. Non-empty exactly for kFewDistinct nodes: kUniform kernels
  /// read InNeighbors directly (no reorder needed, per-edge probabilities
  /// redundant), and kEmpty / kGeneral nodes materialize nothing (the
  /// general per-edge fallback walks the original CSR).
  std::span<const InArc> JumpInArcs(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {jump_in_arcs_.data() + jump_offsets_[v],
            static_cast<size_t>(jump_offsets_[v + 1] - jump_offsets_[v])};
  }

  /// Original reverse-CSR slot of each JumpInArcs entry (same extent):
  /// JumpInArcs(v)[i] is the in-edge at InNeighbors(v)[JumpInSlots(v)[i]].
  /// Lets jump-ordered traversals address per-edge state keyed on the
  /// original layout, e.g. live-edge bitmaps via InEdgeIndex.
  std::span<const uint32_t> JumpInSlots(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {jump_in_slots_.data() + jump_offsets_[v],
            static_cast<size_t>(jump_offsets_[v + 1] - jump_offsets_[v])};
  }

  /// The O(1)-pick plan for v's LT reverse step.
  LtPickPlan LtInPlan(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return static_cast<LtPickPlan>(lt_plan_[v]);
  }

  /// Alias slots of v (indeg + 1 outcomes; the last one means "no pick").
  /// Non-empty exactly for LtPickPlan::kAlias nodes.
  std::span<const LtAliasSlot> LtAliasSlots(NodeId v) const {
    ATPM_DCHECK(v < n_);
    return {lt_alias_.data() + lt_alias_offsets_[v],
            static_cast<size_t>(lt_alias_offsets_[v + 1] -
                                lt_alias_offsets_[v])};
  }

  /// Census of the weight classes (O(n) scan; cheap relative to any
  /// sampling workload — callers that log it per decision should cache).
  WeightClassProfile InWeightClassProfile() const;

  // ---- Weight-class index over the forward CSR — the same substrate for
  // the forward direction (SimulateIC, Realization::Sample). Built by the
  // same hooks, so it can never go stale relative to the in-direction one.

  /// Classification of u's out-edge probability vector.
  NodeWeightClass OutWeightClass(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return out_class_[u];
  }

  /// Same-probability segments of u's jump-ordered out-edge view. One
  /// segment for kUniform and one *per edge* for kSegmentedRuns (both in
  /// the original CSR order), up to kMaxDistinctInProbs for kFewDistinct
  /// (grouped by descending probability), empty for kEmpty / kGeneral.
  std::span<const ProbSegment> OutProbSegments(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return {out_segments_.data() + out_seg_offsets_[u],
            static_cast<size_t>(out_seg_offsets_[u + 1] -
                                out_seg_offsets_[u])};
  }

  /// Interleaved (neighbor, prob) out-edge view of u grouped into same-p
  /// runs; non-empty exactly for kFewDistinct nodes (kUniform and
  /// kSegmentedRuns scan the original CSR directly).
  std::span<const OutArc> JumpOutArcs(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return {jump_out_arcs_.data() + out_jump_offsets_[u],
            static_cast<size_t>(out_jump_offsets_[u + 1] -
                                out_jump_offsets_[u])};
  }

  /// Original forward-CSR slot of each JumpOutArcs entry (same extent):
  /// JumpOutArcs(u)[i] is the out-edge at OutNeighbors(u)[JumpOutSlots(u)[i]].
  std::span<const uint32_t> JumpOutSlots(NodeId u) const {
    ATPM_DCHECK(u < n_);
    return {jump_out_slots_.data() + out_jump_offsets_[u],
            static_cast<size_t>(out_jump_offsets_[u + 1] -
                                out_jump_offsets_[u])};
  }

  /// Census of the out-direction weight classes. lt_fast_nodes is always 0
  /// here: the forward LT step draws per-node thresholds, not per-edge
  /// picks, so there is no out-direction LT plan.
  WeightClassProfile OutWeightClassProfile() const;

  /// Cached jumpable-edge totals of each direction (the profiles'
  /// jumpable_edges, maintained by the rebuilds) — lets hot paths such as
  /// Realization::Sample choose the better scan direction without an O(n)
  /// census per call.
  uint64_t InJumpableEdges() const { return in_jumpable_edges_; }
  uint64_t OutJumpableEdges() const { return out_jumpable_edges_; }

  /// Recomputes the weight-class index from the current in-edge
  /// probabilities. Public for callers that mutate probabilities outside
  /// AssignProbabilities; idempotent.
  void RebuildInWeightIndex();

  /// Out-direction counterpart of RebuildInWeightIndex.
  void RebuildOutWeightIndex();

  /// Rebuilds both directions — the hook GraphBuilder::Build and
  /// AssignProbabilities call.
  void RebuildWeightIndex() {
    RebuildInWeightIndex();
    RebuildOutWeightIndex();
  }

  // ---- Mapped storage (the graph-store mmap load path, graph_store.h).
  // A mapped graph's blocks are read-only views into one mapping.

  /// True when this graph's arrays are views into a graph-store mapping.
  bool is_mapped() const { return backing_ != nullptr; }

  /// Detaches every array from the mapping into owned storage and drops
  /// the mapping handle (no-op on an owned graph). The copy-on-write hook
  /// behind AssignProbabilities; public for callers that need a mapped
  /// graph to outlive its store file.
  void EnsureOwnedStorage();

 private:
  friend class GraphBuilder;
  friend class GraphStoreIO;

  /// Length rule of one graph array, in elements.
  struct Extent {
    enum Kind : uint8_t { kNodes, kOffsets, kEdges, kRagged } kind;
    /// kRagged only: the offsets array whose last entry is the length
    /// (listed, and so bound by the store loader, before the array).
    const ArrayBlock<uint64_t>* offsets = nullptr;

    /// n, n + 1, m, or the offsets array's last entry.
    uint64_t Length(NodeId n, uint64_t m) const {
      switch (kind) {
        case kNodes: return n;
        case kOffsets: return uint64_t{n} + 1;
        case kEdges: return m;
        case kRagged: return (*offsets)[offsets->size() - 1];
      }
      return 0;
    }
  };

  /// Every array that makes up a prepared graph, each named once with its
  /// extent rule: fn(name, extent, block). The graph store writes, finds
  /// and checks sections through this list, and a section's id is the
  /// array's 1-based position in it — reordering it changes the format.
  /// `Self` is Graph or const Graph.
  template <typename Self, typename Fn>
  static void ForEachArray(Self& g, Fn&& fn) {
    using E = Extent;
    fn("out_offsets", E{E::kOffsets}, g.out_offsets_);
    fn("out_adj", E{E::kEdges}, g.out_adj_);
    fn("out_prob", E{E::kEdges}, g.out_prob_);
    fn("in_offsets", E{E::kOffsets}, g.in_offsets_);
    fn("in_adj", E{E::kEdges}, g.in_adj_);
    fn("in_prob", E{E::kEdges}, g.in_prob_);
    fn("in_edge_index", E{E::kEdges}, g.in_edge_index_);
    fn("in_class", E{E::kNodes}, g.in_class_);
    fn("seg_offsets", E{E::kOffsets}, g.seg_offsets_);
    fn("in_segments", E{E::kRagged, &g.seg_offsets_}, g.in_segments_);
    fn("jump_offsets", E{E::kOffsets}, g.jump_offsets_);
    fn("jump_in_arcs", E{E::kRagged, &g.jump_offsets_}, g.jump_in_arcs_);
    fn("jump_in_slots", E{E::kRagged, &g.jump_offsets_}, g.jump_in_slots_);
    fn("lt_plan", E{E::kNodes}, g.lt_plan_);
    fn("lt_alias_offsets", E{E::kOffsets}, g.lt_alias_offsets_);
    fn("lt_alias", E{E::kRagged, &g.lt_alias_offsets_}, g.lt_alias_);
    fn("out_class", E{E::kNodes}, g.out_class_);
    fn("out_seg_offsets", E{E::kOffsets}, g.out_seg_offsets_);
    fn("out_segments", E{E::kRagged, &g.out_seg_offsets_}, g.out_segments_);
    fn("out_jump_offsets", E{E::kOffsets}, g.out_jump_offsets_);
    fn("jump_out_arcs", E{E::kRagged, &g.out_jump_offsets_},
       g.jump_out_arcs_);
    fn("jump_out_slots", E{E::kRagged, &g.out_jump_offsets_},
       g.jump_out_slots_);
  }

  NodeId n_ = 0;
  // Forward CSR.
  ArrayBlock<uint64_t> out_offsets_{0};
  ArrayBlock<NodeId> out_adj_;
  ArrayBlock<float> out_prob_;
  // Reverse CSR.
  ArrayBlock<uint64_t> in_offsets_{0};
  ArrayBlock<NodeId> in_adj_;
  ArrayBlock<float> in_prob_;
  // Forward edge index of each reverse slot (for InEdgeIndex).
  ArrayBlock<uint64_t> in_edge_index_;

  // Weight-class index (see RebuildInWeightIndex). seg/jump/alias arrays
  // are CSR-addressed per node; nodes that need no entry have zero-length
  // ranges, so the arrays stay proportional to what the kernels use.
  ArrayBlock<NodeWeightClass> in_class_;
  ArrayBlock<uint64_t> seg_offsets_{0};
  ArrayBlock<ProbSegment> in_segments_;
  ArrayBlock<uint64_t> jump_offsets_{0};
  ArrayBlock<InArc> jump_in_arcs_;
  ArrayBlock<uint32_t> jump_in_slots_;
  ArrayBlock<uint8_t> lt_plan_;
  ArrayBlock<uint64_t> lt_alias_offsets_{0};
  ArrayBlock<LtAliasSlot> lt_alias_;

  // Out-direction weight-class index (see RebuildOutWeightIndex). Same
  // CSR-addressed layout as the in-direction arrays above.
  ArrayBlock<NodeWeightClass> out_class_;
  ArrayBlock<uint64_t> out_seg_offsets_{0};
  ArrayBlock<ProbSegment> out_segments_;
  ArrayBlock<uint64_t> out_jump_offsets_{0};
  ArrayBlock<OutArc> jump_out_arcs_;
  ArrayBlock<uint32_t> jump_out_slots_;
  uint64_t in_jumpable_edges_ = 0;
  uint64_t out_jumpable_edges_ = 0;

  // Keeps the graph-store mapping alive for as long as any block views it
  // (type-erased to keep graph.h free of mmap details).
  std::shared_ptr<const void> backing_;
};

}  // namespace atpm

#endif  // ATPM_GRAPH_GRAPH_H_
