#include "rris/step_table.h"

#include <span>

#include "common/logging.h"

namespace atpm {

StepTable::StepTable(const Graph& graph)
    : records_(graph.num_nodes()), weight_version_(graph.weight_version()) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return;
  in_adj_ = graph.InNeighbors(0).data();
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const NodeId> neigh = graph.InNeighbors(v);
    const uint64_t begin = static_cast<uint64_t>(neigh.data() - in_adj_);
    ATPM_CHECK(begin < (uint64_t{1} << 56));
    StepRecord& record = records_[v];
    record.in_begin = begin;
    record.segment.length = static_cast<uint32_t>(neigh.size());
    StepKind kind = StepKind::kOther;
    if (neigh.empty()) {
      kind = StepKind::kEmpty;
    } else if (graph.InWeightClass(v) == NodeWeightClass::kUniform) {
      // A uniform node has exactly one segment over its whole in-list.
      const std::span<const ProbSegment> segments = graph.InProbSegments(v);
      ATPM_CHECK(segments.size() == 1 &&
                 segments[0].length == neigh.size());
      record.segment = segments[0];
      kind = record.segment.log1p_neg != 0.0 ? StepKind::kJump
                                             : StepKind::kScan;
    }
    record.kind = static_cast<uint64_t>(kind);
  }
}

}  // namespace atpm
