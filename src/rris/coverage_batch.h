#ifndef ATPM_RRIS_COVERAGE_BATCH_H_
#define ATPM_RRIS_COVERAGE_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "graph/graph.h"

namespace atpm {

/// One conditional-coverage question: over a pool R of RR sets, how many
/// sets contain `node` while avoiding every node of `base` — i.e.,
/// Cov_R(node | base). `base` may be nullptr for the unconditional
/// Cov_R({node}); when non-null it must not contain `node` and must outlive
/// the query's evaluation. Kept minimal on purpose: the counting kernel
/// turns a batch into per-base and per-node query masks plus one bitmap of
/// the nodes that can change a query's state (RRSetGenerator::
/// CountCoveringBatch), so caller-side bookkeeping (e.g. the speculative
/// layer's epoch tags) lives with the harvested answers
/// (SpeculativeRoundPlanner::Entry), not here.
struct CoverageQuery {
  NodeId node = 0;
  const BitVector* base = nullptr;
};

/// A batch of coverage queries answered against ONE shared pool of RR sets.
///
/// The adaptive policies (ADDATP Alg. 3, HATP Alg. 4) historically drew a
/// fresh pool of θ RR sets for every single query — two pools per halving
/// round for the front/rear estimates. Since all queries of a round are
/// asked on the same residual graph, one pool can answer all of them: each
/// RR set is walked once and every query's per-seed hit counter is updated
/// in the same pass. That halves (or better, for wider batches) the RR sets
/// generated per decision.
///
/// Statistical contract: estimates answered on a shared pool are mutually
/// correlated but each is individually an unbiased θ-sample mean, so
/// per-query concentration bounds (Hoeffding, Relative+Additive) and the
/// union bound over a round's events are unaffected. What a pool must NOT
/// be shared across is *adaptive* boundaries: once an answer influences the
/// next query's base/residual (a new halving round, a new seed decision),
/// that next query needs a fresh pool, or the martingale analysis breaks.
///
/// Speculative cross-candidate queries do not violate that boundary: the
/// first-round front/rear questions of UPCOMING candidates are functions of
/// the residual graph as it stands when the pool is sampled, not of any
/// answer the pool produces. A speculative answer may therefore ride the
/// current round's pool — tagged with the residual-graph epoch — and be
/// consumed later iff the epoch is unchanged (no seeding happened in
/// between, so the residual graph the answer was sampled on IS the residual
/// graph of the consuming round) and the pool held at least the θ the
/// consuming round requires (more samples only tighten the same per-query
/// bound). Stale answers are discarded unread, so no estimate sampled on an
/// outdated residual graph can ever leak into a decision.
///
/// Caveat: the per-query bound is unconditional over the pool's draw, but
/// the CONSUMPTION event (epoch unchanged ⇔ the intermediate candidates
/// were not selected) was itself decided from the same pool's answers.
/// When the speculated candidate's coverage overlaps the decided
/// candidates' heavily, conditioning on consumption can bias the served
/// estimate beyond its nominal δ. The halving loop re-certifies every
/// subsequent sampled round independently, so the exposure is one round's
/// estimate, not the decision guarantee chain — see the README's
/// speculative-pipelining section for the full discussion.
///
/// Usage:
///   batch.Clear();
///   uint32_t front = batch.Add(u, &seed_bitmap);
///   uint32_t rear  = batch.Add(u, &candidates);
///   engine->TryCountCoverageBatch(&batch, &removed, n_i, theta, rng);
///   ... batch.hits(front), batch.hits(rear) ...
///
/// The batch owns the hit counters; an answering backend zeroes them
/// (ZeroHits) and accumulates into hit_data(). Batches are plain value
/// objects — reuse one across rounds to avoid reallocation.
class CoverageQueryBatch {
 public:
  /// Removes all queries (keeps capacity).
  void Clear() {
    queries_.clear();
    hits_.clear();
  }

  /// Appends the query Cov(node | base) and returns its index within the
  /// batch. Pass base == nullptr for an unconditional Cov({node}) count.
  uint32_t Add(NodeId node, const BitVector* base = nullptr) {
    ATPM_DCHECK(base == nullptr || !base->Test(node));
    queries_.push_back(CoverageQuery{node, base});
    hits_.push_back(0);
    return static_cast<uint32_t>(queries_.size() - 1);
  }

  /// Number of queries in the batch.
  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }

  /// The queries, in Add order.
  std::span<const CoverageQuery> queries() const { return queries_; }

  /// Hit counter of query `index` (valid after an engine/pool answered the
  /// batch).
  uint64_t hits(size_t index) const {
    ATPM_DCHECK(index < hits_.size());
    return hits_[index];
  }
  /// All hit counters, in Add order.
  std::span<const uint64_t> hits() const { return hits_; }

  /// Zeroes every hit counter (answering backends call this first).
  void ZeroHits() { std::fill(hits_.begin(), hits_.end(), 0); }
  /// Mutable counter storage for answering backends (size() entries).
  uint64_t* hit_data() { return hits_.data(); }

 private:
  std::vector<CoverageQuery> queries_;
  std::vector<uint64_t> hits_;
};

}  // namespace atpm

#endif  // ATPM_RRIS_COVERAGE_BATCH_H_
