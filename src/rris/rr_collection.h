#ifndef ATPM_RRIS_RR_COLLECTION_H_
#define ATPM_RRIS_RR_COLLECTION_H_

#include <optional>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "rris/rr_set.h"

namespace atpm {

/// A pool R of RR sets with coverage queries. Sets are stored flattened
/// (CSR) for cache locality; an inverted index (node -> covering set ids)
/// is built on demand for the greedy max-coverage algorithms.
///
/// Terminology follows the paper: for a node set S,
///   Cov_R(S)      = |{ R in R : R intersects S }|
///   Cov_R(u | S)  = Cov_R(S u {u}) - Cov_R(S)
///                 = |{ R : u in R, R disjoint from S }|.
///
/// A pool may carry a member restriction M (RestrictTo): each set then
/// stores R ∩ M instead of R, still one set per RR set drawn, so
/// num_sets() stays θ. A restricted pool answers only about member nodes:
/// Cov_R(S) and Cov_R(u | S) are exact iff u and every node of S are in M
/// (R ∩ S = (R ∩ M) ∩ S then), and asking about any other node is a
/// programming error (checked in debug builds). TPM seeds come only from
/// the target set T, so the NSG / NDG pools and the E_l[I(T)] pool are
/// restricted to T.
class RRCollection {
 public:
  /// Creates an empty collection over graphs with `num_nodes` nodes.
  explicit RRCollection(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Appends one RR set. Invalidate any previously built index.
  void AddSet(std::span<const NodeId> nodes);

  /// Bulk-appends `set_sizes.size()` RR sets whose node lists are
  /// concatenated in `nodes` (shard layout of the parallel sampling
  /// engine). The merge is one splice of the flat node buffer plus an
  /// offset rebase — the sets are never re-walked, so sharded generation
  /// lands in the CSR layout without a second pass.
  void AppendShard(std::span<const NodeId> nodes,
                   std::span<const uint32_t> set_sizes);

  /// Makes room for `sets` sets of `nodes` nodes in total, so appends up
  /// to that size allocate nothing.
  void Reserve(uint64_t sets, uint64_t nodes);

  /// Generates `count` RR sets with `generator` on the residual graph
  /// G \ removed; accumulates and returns the total edges examined.
  uint64_t Generate(RRSetGenerator* generator, const BitVector* removed,
                    uint32_t num_alive, uint64_t count, Rng* rng);

  /// Restricts the pool to the nodes of `members`: every set appended from
  /// here on stores only its member nodes, in walk order (see the class
  /// comment for what the pool then answers). Requires an empty pool. A
  /// list of all n nodes is no restriction, and leaves the pool
  /// unrestricted.
  void RestrictTo(std::span<const NodeId> members);
  /// The member bitmap of a restricted pool; null when unrestricted.
  const BitVector* members() const {
    return members_.has_value() ? &*members_ : nullptr;
  }

  /// Removes all sets (keeps capacity) and drops the member restriction.
  void Clear();

  /// Number of RR sets θ.
  uint64_t num_sets() const { return set_offsets_.size() - 1; }
  /// Node universe size used for index sizing.
  NodeId num_nodes() const { return num_nodes_; }
  /// Nodes of the i-th set.
  std::span<const NodeId> set(uint64_t i) const {
    return {set_nodes_.data() + set_offsets_[i],
            static_cast<size_t>(set_offsets_[i + 1] - set_offsets_[i])};
  }
  /// Total of all set sizes (proxy for memory and generation cost).
  uint64_t total_nodes() const { return set_nodes_.size(); }

  /// Cov_R({u}): number of sets containing u. O(index) after BuildIndex,
  /// full scan otherwise.
  uint64_t CoverageOfNode(NodeId u) const;

  /// Cov_R(S): number of sets intersecting S (S given as a bitmap).
  uint64_t CoverageOfSet(const BitVector& members) const;

  /// Cov_R(u | base): sets containing u and disjoint from `base`. `base`
  /// must not contain u.
  uint64_t ConditionalCoverage(NodeId u, const BitVector& base) const;

  /// Answers every query of `batch` in ONE pass over the stored pool:
  /// batch->hits(q) becomes Cov_R(node_q | base_q). The multi-seed
  /// counterpart of ConditionalCoverage — a greedy sweep evaluating many
  /// candidates against the same pool pays one CSR scan instead of one per
  /// candidate (conditional queries sharing a base bitmap share its
  /// per-node tests). Needs no inverted index, but uses it when available:
  /// an all-unconditional batch on an indexed pool is O(1) per query.
  void AnswerBatch(CoverageQueryBatch* batch) const;

  /// Builds (or rebuilds) the inverted index node -> covering set ids.
  void BuildIndex();
  /// True iff the index reflects the current pool.
  bool index_built() const { return index_built_; }
  /// Set ids covering `u` (requires BuildIndex()).
  std::span<const uint32_t> CoveringSets(NodeId u) const {
    ATPM_DCHECK(index_built_);
    ATPM_DCHECK(Answers(u));
    return {index_sets_.data() + index_offsets_[u],
            static_cast<size_t>(index_offsets_[u + 1] - index_offsets_[u])};
  }

 private:
  /// Whether the pool answers about `u` / about every node of `nodes`:
  /// always when unrestricted, otherwise iff they are members.
  bool Answers(NodeId u) const {
    return !members_.has_value() || members_->Test(u);
  }
  bool Answers(const BitVector& nodes) const;

  NodeId num_nodes_;
  std::optional<BitVector> members_;
  std::vector<uint64_t> set_offsets_{0};
  std::vector<NodeId> set_nodes_;

  bool index_built_ = false;
  std::vector<uint64_t> index_offsets_;
  std::vector<uint32_t> index_sets_;
};

}  // namespace atpm

#endif  // ATPM_RRIS_RR_COLLECTION_H_
