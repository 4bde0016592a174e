#ifndef ATPM_GRAPH_GRAPH_STORE_H_
#define ATPM_GRAPH_GRAPH_STORE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace atpm {

/// The graph store: a versioned binary on-disk format holding a FULLY
/// prepared Graph — forward + reverse CSR, probability arrays, the reverse
/// edge-index map, and the complete in-edge weight-class index
/// (ProbSegments, jump views, LT pick plans, alias tables) — as aligned,
/// offset-addressed sections behind a checksummed header. Loading
/// memory-maps the file and points the Graph's storage blocks straight into
/// the mapping: zero parse, zero rebuild, zero copies. Cold pages fault in
/// on first touch, so a store bigger than RAM still loads in milliseconds
/// and an RR walk only pays for the nodes it visits.
///
/// File layout (all little-endian, offsets 64-byte aligned):
///
///   [GraphStoreHeader]           magic, version, counts, checksums
///   [GraphStoreSection x N]      section table: id, elem size, offset, len
///   [section payloads...]        one aligned blob per array
///
/// The arrays are Graph's array list (Graph::ForEachArray; 16 sections in
/// version 3): a section's id is the array's 1-based position there, and
/// its element count must match the array's extent rule (n, n + 1, m, or
/// the last entry of the offsets array of a ragged one; every offsets array
/// starts at 0 — these two payload-word rules are checked with the
/// payload).
///
/// Integrity: header, section table, and payload carry independent 64-bit
/// FNV-1a checksums. The header + table checks always run (microseconds);
/// the payload check is on by default and can be skipped
/// (GraphStoreLoadOptions::verify_payload = false) for out-of-core loads
/// where faulting every page to hash it defeats the point.
///
/// Compatibility: the version is bumped on any layout change, including a
/// reordered array list; loaders reject unknown versions and foreign
/// endianness outright (no migration shims — repack from the edge list
/// with atpm_graph_pack).

/// Current store format version. Readers reject any other value.
inline constexpr uint32_t kGraphStoreVersion = 3;

/// Options for LoadGraphStore.
struct GraphStoreLoadOptions {
  /// Header and section table are always verified. A verified load also
  /// checks the payload, touching every page:
  ///  * the payload checksum;
  ///  * each ragged section's count against the last entry of its offsets
  ///    array;
  ///  * every offsets array starts at 0;
  ///  * no offsets array decreases;
  ///  * every node id entry is below n.
  /// A trusting load (false) skips all of these and binds the sections as
  /// views, copying and rebuilding nothing. It takes the payload on trust,
  /// so use it only for stores this code base's own packer wrote: the
  /// ATPM_BENCH_STORE_DIR dataset cache and graph_store_scaling.
  bool verify_payload = true;
};

/// Store metadata, readable without mapping the payload.
struct GraphStoreInfo {
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
};

/// Serializes `graph` (CSR + probabilities + weight-class index) to `path`.
/// The image goes to a same-directory temp file, is fsync'd, and is then
/// renamed over `path`, so readers see the old store or the new one, never
/// a torn file.
Status SaveGraphStore(const Graph& graph, const std::string& path);

/// Memory-maps `path` and returns a Graph whose spans point into the
/// mapping (Graph::is_mapped() == true). The mapping lives as long as any
/// copy of the returned Graph. The loaded graph is functionally
/// indistinguishable from the GraphBuilder-built one it was saved from:
/// identical CSR, probabilities, edge indices, and weight-class index, so
/// fixed-seed RR pools and policy decision sequences are bit-identical.
/// Fails with IOError on filesystem/mmap errors and InvalidArgument on
/// format, version, or checksum violations.
Result<Graph> LoadGraphStore(const std::string& path,
                             const GraphStoreLoadOptions& options = {});

/// Reads and validates only the header + section table of `path`.
Result<GraphStoreInfo> ReadGraphStoreInfo(const std::string& path);

/// Implementation backdoor used by the serializer to address Graph's
/// private storage blocks (declared a friend in graph.h).
class GraphStoreIO;

}  // namespace atpm

#endif  // ATPM_GRAPH_GRAPH_STORE_H_
