#ifndef ATPM_RRIS_STEP_TABLE_H_
#define ATPM_RRIS_STEP_TABLE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace atpm {

/// How the IC geometric-jump reverse step expands a node.
enum class StepKind : uint8_t {
  /// In-degree 0: nothing to expand.
  kEmpty,
  /// A kUniform node whose one segment jumps (log1p_neg != 0): the
  /// one-segment ledger walk (OneSegmentJumpScan) over the in-CSR.
  kJump,
  /// A kUniform node whose one segment does not jump (log1p_neg == 0: a
  /// gate-rejected p, or p in {0, 1}): the per-edge Bernoulli scan
  /// (ScanNonJumpSegment), drawless for p <= 0 and p >= 1.
  kScan,
  /// kFewDistinct and kGeneral nodes: the graph's grouped segment view or
  /// the per-edge loop, read from the Graph as before.
  kOther,
};

/// One node's reverse step in one 32-byte load: where its in-neighbours
/// start, its in-degree, how to expand it and, for kJump / kScan, the
/// one segment's probability, log1p_neg and run_any_prob.
struct StepRecord {
  /// Offset of the node's first in-neighbour in the in-CSR.
  uint64_t in_begin : 56;
  /// The node's StepKind.
  uint64_t kind : 8;
  /// The one segment of a kJump / kScan node (as InProbSegments(v)[0]).
  /// For every kind, segment.length is the node's in-degree.
  ProbSegment segment;

  StepKind Kind() const { return static_cast<StepKind>(kind); }
  uint32_t InDegree() const { return segment.length; }
};
static_assert(sizeof(StepRecord) == 32);

/// The read-only step records of every node of one graph, built once in
/// O(n). A sampling engine builds one and shares it with every worker's
/// RRSetGenerator; a standalone generator builds its own. It lives here
/// and not in Graph because every Graph array must be a view into the
/// store mapping on a trusting load.
///
/// A snapshot: a graph reweighted after the table was built
/// (AssignProbabilities) needs a new table, and so new generators. The
/// table records the graph's weight_version() it was built at, and every
/// generator checks the graph still has it before it samples.
class StepTable {
 public:
  explicit StepTable(const Graph& graph);

  StepTable(const StepTable&) = delete;
  StepTable& operator=(const StepTable&) = delete;

  /// Number of records (the graph's num_nodes()).
  NodeId size() const { return static_cast<NodeId>(records_.size()); }
  /// The record of node v.
  const StepRecord& operator[](NodeId v) const { return records_[v]; }
  /// All records, indexed by node id.
  const StepRecord* records() const { return records_.data(); }
  /// The in-CSR that the records' in_begin offsets index: v's
  /// in-neighbours start at in_adj() + (*this)[v].in_begin.
  const NodeId* in_adj() const { return in_adj_; }
  /// The graph's weight_version() when the table was built.
  uint64_t weight_version() const { return weight_version_; }

 private:
  std::vector<StepRecord> records_;
  const NodeId* in_adj_ = nullptr;
  uint64_t weight_version_ = 0;
};

}  // namespace atpm

#endif  // ATPM_RRIS_STEP_TABLE_H_
