#ifndef ATPM_GRAPH_EDGE_LIST_IO_H_
#define ATPM_GRAPH_EDGE_LIST_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace atpm {

/// Options for LoadEdgeList.
struct EdgeListLoadOptions {
  /// If false, each line u v [p] adds both arcs (SNAP's undirected format).
  bool directed = true;
  /// Probability used when a line has no third column. A negative value
  /// means "leave unweighted (0)" so a weighting scheme can be applied later.
  double default_prob = -1.0;
};

/// Loads a SNAP-style whitespace-separated edge list:
///
///   # comment lines start with '#'
///   <src> <dst> [prob]
///
/// Node ids must be non-negative integers; ids are used verbatim (the graph
/// has max_id + 1 nodes). Fails with IOError if the file cannot be opened
/// and InvalidArgument on malformed lines or out-of-range or NaN
/// probabilities.
Result<Graph> LoadEdgeList(const std::string& path,
                           const EdgeListLoadOptions& options = {});

/// Writes `graph` as "<src>\t<dst>\t<prob>" lines plus a header comment.
/// Probabilities are printed with max_digits10 significant digits, so a
/// save -> load round-trip (directed mode) reproduces every probability
/// bit-exactly.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace atpm

#endif  // ATPM_GRAPH_EDGE_LIST_IO_H_
