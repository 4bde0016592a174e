#ifndef ATPM_RRIS_RR_SET_H_
#define ATPM_RRIS_RR_SET_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "diffusion/diffusion_model.h"
#include "graph/graph.h"
#include "rris/coverage_batch.h"
#include "rris/step_table.h"

namespace atpm {

/// Reverse influence sampling (RIS, Borgs et al.). A random RR set is
/// generated by (1) picking a uniform root v among the *alive* nodes of the
/// residual graph and (2) running a reverse BFS from v where each incoming
/// edge <u, v'> is kept with probability p(u, v'). The fundamental identity
///
///   E[I_{G_i}(S)] = n_i * Pr[ S intersects a random RR set ]
///
/// turns spread estimation into set-coverage counting.
///
/// Two kernels drive step (2):
///  * SamplingKernel::kGeometricJump (default) — weight-class-aware: on
///    uniform / few-distinct in-edge probability vectors one geometric
///    draw skips directly to the next successful edge, and the LT reverse
///    step is an O(1) pick (closed form / alias table). On the standard
///    low-probability weightings (weighted cascade, trivalency) this cuts
///    RNG draws from one-per-edge to roughly one-per-success.
///  * SamplingKernel::kPerEdge — the historical one-Bernoulli-per-edge /
///    LT-prefix-scan loop, bit-compatible with pre-kernel releases for a
///    fixed seed.
/// The kernels are statistically equivalent (identical per-edge success
/// distributions) but consume different RNG streams; see the README's
/// RR-generation-kernel section.
///
/// Under IC with the geometric-jump kernel each reverse step reads one
/// StepRecord (rris/step_table.h) of the expanded node: a weighted-cascade
/// node takes the one-segment ledger walk and a gated or {0, 1}-probability
/// uniform node the per-edge Bernoulli scan, both straight off the record;
/// the other nodes read the Graph as before. Draws, edges and visit order
/// are those of GeometricSegmentScan over the node's segments.
///
/// Stateful generator bound to one graph; reuses its internal frontier and
/// visited marker across millions of calls. The graph must not be
/// reweighted while a generator is bound to it (the step table is a
/// snapshot): every sampling call compares the graph's weight_version()
/// with the one the generator was built at and aborts on a mismatch.
class RRSetGenerator {
 public:
  /// Creates a generator for `graph`, with its own step table when the
  /// model and kernel read one. Under LT the reverse step keeps at most one
  /// in-neighbor per node (random walk) instead of IC's independent coin
  /// per in-edge; both yield the RIS identity above.
  explicit RRSetGenerator(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      SamplingKernel kernel = SamplingKernel::kGeometricJump);

  /// Creates a generator that reads the shared `steps`, which must be
  /// MakeStepTable(graph, model, kernel): the engines build one table and
  /// hand it to every worker.
  RRSetGenerator(const Graph& graph, DiffusionModel model,
                 SamplingKernel kernel,
                 std::shared_ptr<const StepTable> steps);

  /// The step table a generator for (graph, model, kernel) reads: built
  /// for IC with the geometric-jump kernel, null otherwise (LT and the
  /// per-edge kernel read the Graph only).
  static std::shared_ptr<const StepTable> MakeStepTable(
      const Graph& graph, DiffusionModel model, SamplingKernel kernel);

  /// Samples one RR set on the residual graph G \ removed (pass nullptr for
  /// the full graph, in which case `num_alive` must equal n). `num_alive`
  /// is the number of nodes not in `removed`; the root is uniform over
  /// those. The resulting node list (root first) is written to `out`.
  ///
  /// Returns the number of edges examined during the reverse BFS — the cost
  /// measure used by IMM-style total-sample accounting (EPT). Each reached
  /// node charges its full in-degree under BOTH kernels, so EPT/θ
  /// accounting is kernel-independent.
  uint64_t Generate(const BitVector* removed, uint32_t num_alive, Rng* rng,
                    std::vector<NodeId>* out);

  /// Batched multi-set generation: samples `count` RR sets back to back,
  /// APPENDING their node lists to `nodes` (flat, concatenated; each set's
  /// root first) and each set's length to `set_sizes` — exactly the shard
  /// layout RRCollection::AppendShard splices, so pool construction needs
  /// no per-set staging copy. The whole block shares the generator's
  /// frontier/visited scratch, the root-draw stream, and — the part a
  /// Generate loop cannot share — one alive-list build on depleted
  /// residual graphs (Generate invalidates the cache per call by contract;
  /// the batch invalidates once). Bit-identical sets and RNG consumption
  /// to `count` successive Generate calls on the same stream.
  ///
  /// Returns the total edges examined (the same EPT measure as Generate,
  /// summed over the block).
  ///
  /// `members` (optional) restricts what is stored: each walk runs
  /// unchanged on the generator's own queue — same draws, same edges, same
  /// reached nodes — and only its member nodes are appended, in walk
  /// order. A set with no member node appends nothing but still counts in
  /// `set_sizes` (as a 0). Null stores every reached node.
  ///
  /// `budget` (optional): polled every kBudgetStride sets; when the gate
  /// reports exhaustion the batch stops early — the sets already appended
  /// stay valid, and set_sizes->size() tells the caller how many landed.
  /// The pool bytes appended by the batch are charged to the gate as it
  /// runs: with `members`, only the stored member entries. A null gate adds no checks and consumes no RNG state, so
  /// un-budgeted streams stay bit-identical.
  uint64_t GenerateBatch(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng, std::vector<NodeId>* nodes,
                         std::vector<uint32_t>* set_sizes,
                         const BitVector* members = nullptr,
                         BudgetGate* budget = nullptr);

  /// Generates `theta` RR sets *without storing them*, returning how many
  /// contain `u` while avoiding every node of `base` (i.e., a direct sample
  /// of Cov_R(u | base) / θ). Pass base == nullptr for an unconditional
  /// Cov_R({u}) count. Implemented as a one-query CountCoveringBatch.
  uint64_t CountCovering(const BitVector* removed, uint32_t num_alive,
                         uint64_t theta, NodeId u, const BitVector* base,
                         Rng* rng);

  /// Single-pass multi-seed counting kernel: generates `theta` throwaway RR
  /// sets and updates every query's hit counter in the same reverse BFS —
  /// hits[q] ends as |{ R : queries[q].node in R, R disjoint from
  /// queries[q].base }|. This is the hot path of ADDATP/HATP, whose halving
  /// rounds ask several conditional-coverage questions (front/rear
  /// estimates) on the same residual graph: one shared pool of θ sets
  /// answers all of them instead of one pool per query.
  ///
  /// A walk is aborted as soon as *every* query is settled: disqualified
  /// (its base was touched), or found while unkillable — its base is null
  /// or has no alive node, so nothing later in the walk can disqualify it
  /// (the adaptive front query, whose seeds are all activated, is one). The
  /// set's outcome is then fixed for every query, so the counts keep their
  /// distribution; only the RNG stream after the cut moves. With a single
  /// query that has an alive base this is the classic abort-on-base-hit.
  ///
  /// Cost per visited node is one bit test against a per-call
  /// "interesting" bitmap (the alive nodes of every base plus the query
  /// nodes), independent of the batch width. Only interesting nodes fold
  /// their per-base and per-node query masks into the set's dead / found
  /// masks (ceil(Q/64) words each).
  ///
  /// `hits` must have room for queries.size() counters; they are zeroed
  /// first. Returns the number of edges examined (each frontier node
  /// charges its full in-degree, as in Generate, even if the walk aborts
  /// mid-list — the IMM/EPT cost proxy).
  ///
  /// `budget` (optional): polled every kBudgetStride sets; on exhaustion
  /// the counting loop stops early and `*sampled` (when non-null) reports
  /// how many of the requested θ sets were actually drawn — the honest
  /// denominator for the caller's coverage estimates. With a null gate
  /// `*sampled` is always θ and behavior is bit-identical to before.
  uint64_t CountCoveringBatch(const BitVector* removed, uint32_t num_alive,
                              uint64_t theta,
                              std::span<const CoverageQuery> queries,
                              uint64_t* hits, Rng* rng,
                              const BudgetGate* budget = nullptr,
                              uint64_t* sampled = nullptr);

  /// Budget poll granularity of GenerateBatch / CountCoveringBatch: the
  /// deadline overshoot is bounded by the cost of this many RR sets.
  static constexpr uint64_t kBudgetStride = 64;

  /// The bound graph.
  const Graph& graph() const { return *graph_; }
  /// Aborts when the graph was reweighted (Graph::weight_version moved)
  /// after this generator was built.
  void CheckWeightVersion() const {
    ATPM_CHECK(graph_->weight_version() == weight_version_);
  }
  /// The kernel this generator runs.
  SamplingKernel kernel() const { return kernel_; }

  /// Cumulative RNG draws consumed by Generate / CountCoveringBatch since
  /// construction (root sampling + edge trials + LT picks; one Bernoulli,
  /// uniform, or geometric draw each counts 1). The engines snapshot this
  /// around every call to aggregate SamplingStats::rng_draws — the measure
  /// behind the kernel's draws-per-edge-examined reduction.
  uint64_t rng_draws() const { return rng_draws_; }
  /// Cumulative CountCoveringBatch walks ended by the settle rule (a root
  /// that settles every query included), and nodes those batches' walks
  /// queued (the root included unless it settled the walk). Counted once
  /// per walk; the engines harvest them into SamplingStats.
  uint64_t settled_walks() const { return settled_walks_; }
  uint64_t count_walk_nodes() const { return count_walk_nodes_; }

 private:
  /// One reverse BFS appended to `out` (root first, nothing cleared) —
  /// the shared core of Generate and GenerateBatch. With `members`, the
  /// walk runs on scratch_ and only its member nodes are appended. Does
  /// NOT touch the alive-cache validity; callers decide the invalidation
  /// scope.
  uint64_t GenerateOne(const BitVector* removed, uint32_t num_alive, Rng* rng,
                       std::vector<NodeId>* out,
                       const BitVector* members = nullptr);
  /// One reverse step from v, the shared core of GenerateOne and
  /// CountCoveringBatch. Under IC with the jump kernel it dispatches on v's
  /// StepRecord: kEmpty returns at once, kJump runs OneSegmentJumpScan and
  /// kScan ScanNonJumpSegment off the record, and kOther takes the grouped
  /// segment scan (kFewDistinct) or the per-edge loop (kGeneral) from the
  /// Graph. LT takes the pick and the per-edge kernel the per-edge loop
  /// (dead endpoints skipped before their draw). Calls visit(u) for each
  /// picked or live in-neighbour u (the jump scans and the pick may pass
  /// dead ones) and charges v's in-degree to *edges. Returns false iff
  /// visit aborted.
  template <typename Visit>
  bool ExpandNode(NodeId v, const BitVector* removed, Rng* rng,
                  uint64_t* draws, uint64_t* edges, Visit&& visit);
  NodeId SampleAliveRoot(const BitVector* removed, uint32_t num_alive,
                         Rng* rng, uint64_t* draws);
  void RebuildAliveCache(const BitVector* removed, uint32_t num_alive);
  void BuildQueryMasks(const BitVector* removed,
                       std::span<const CoverageQuery> queries);

  const Graph* graph_;
  DiffusionModel model_;
  SamplingKernel kernel_;
  /// The step table (null unless IC with the jump kernel), and its records
  /// and in-CSR for the hot path.
  std::shared_ptr<const StepTable> step_table_;
  /// The graph's weight_version() at construction.
  uint64_t weight_version_;
  const StepRecord* steps_ = nullptr;
  const NodeId* step_in_adj_ = nullptr;
  EpochVisitedSet visited_;
  /// Walk queue of CountCoveringBatch and of member-restricted walks.
  std::vector<NodeId> scratch_;
  /// CountCoveringBatch's query masks, rebuilt per call by BuildQueryMasks
  /// (capacity reused). A query is one bit in W = ceil(Q/64) words.
  /// `interesting_` has a bit per node that is alive in some query base or
  /// is a query node; every other visited node costs one bit test.
  std::vector<uint64_t> interesting_;
  /// Distinct query bases with at least one alive node (bases wholly
  /// inside `removed` can never be hit, so they drop out), and the
  /// distinct query nodes.
  std::vector<const BitVector*> mask_bases_;
  std::vector<NodeId> mask_nodes_;
  /// W words per kept base (its queries), then W per distinct node.
  std::vector<uint64_t> query_masks_;
  /// Per-set dead and found masks, then the all-queries and the unkillable
  /// masks.
  std::vector<uint64_t> set_masks_;
  uint64_t rng_draws_ = 0;
  uint64_t settled_walks_ = 0;
  uint64_t count_walk_nodes_ = 0;

  /// Alive-node list for heavily depleted residual graphs: built (and then
  /// reused) once rejection sampling starts failing, so root draws on a
  /// mostly-removed graph cost O(1) instead of an O(n) scan *per draw*.
  /// Scoped to one public kernel call: Generate / CountCoveringBatch
  /// invalidate it on entry, so a counting loop's θ draws share one O(n)
  /// build while bitmaps recycled across calls can never serve a stale
  /// list (the generator is not re-entrant, so the bitmap is stable while
  /// the cache is live).
  bool alive_cache_valid_ = false;
  const BitVector* alive_cache_removed_ = nullptr;
  uint32_t alive_cache_num_alive_ = 0;
  std::vector<NodeId> alive_cache_;
};

}  // namespace atpm

#endif  // ATPM_RRIS_RR_SET_H_
