#include "graph/edge_list_io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/failpoint.h"
#include "common/io_retry.h"
#include "graph/graph_builder.h"

namespace atpm {
namespace {

// Block size for the buffered reader. Lines are parsed in place within the
// block; a partial trailing line is carried to the front of the next fill.
constexpr size_t kEdgeListChunk = size_t{1} << 20;

inline const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Parses a decimal integer token (optional sign) terminated by blank or
// line end. Returns false on empty token, stray characters, or overflow.
bool ParseIntToken(const char** cursor, const char* end, long long* out) {
  const char* p = *cursor;
  bool negative = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  const char* digits = p;
  unsigned long long value = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    if (value > (0x7FFFFFFFFFFFFFFFull - 9) / 10) return false;
    value = value * 10 + static_cast<unsigned long long>(*p - '0');
    ++p;
  }
  if (p == digits) return false;
  if (p < end && *p != ' ' && *p != '\t' && *p != '\r') return false;
  *out = negative ? -static_cast<long long>(value)
                  : static_cast<long long>(value);
  *cursor = p;
  return true;
}

struct LineParser {
  const std::string& path;
  const EdgeListLoadOptions& options;
  GraphBuilder& builder;
  uint64_t line_no = 0;

  // Parses one "<src> <dst> [prob]" line (already known non-empty,
  // non-comment at `first`).
  Status Parse(const char* first, const char* end) {
    const char* p = first;
    long long src = -1;
    long long dst = -1;
    if (!ParseIntToken(&p, end, &src) ||
        !(p = SkipBlanks(p, end), ParseIntToken(&p, end, &dst))) {
      return Malformed(first, end);
    }
    if (src < 0 || dst < 0) {
      return Status::InvalidArgument("negative node id at " + path + ":" +
                                     std::to_string(line_no));
    }
    constexpr long long kMaxNodeId = kMaxNodeCount - 1;
    if (src > kMaxNodeId || dst > kMaxNodeId) {
      return Status::InvalidArgument(
          "node id above " + std::to_string(kMaxNodeId) + " at " + path +
          ":" + std::to_string(line_no));
    }
    double prob = options.default_prob;
    p = SkipBlanks(p, end);
    if (p < end) {
      const auto [next, ec] = std::from_chars(p, end, prob);
      if (ec != std::errc()) return Malformed(first, end);
      p = next;
      // Anything after the probability (timestamps, labels) is ignored,
      // like the rest-of-line remainder always has been.
    }
    // NaN (a parsed "nan" or a NaN default) fails both range compares
    // below, so it is rejected on its own.
    if (std::isnan(prob)) {
      return Status::InvalidArgument("probability is NaN at " + path + ":" +
                                     std::to_string(line_no));
    }
    const double clamped = prob < 0.0 ? 0.0 : prob;
    if (clamped > 1.0) {
      return Status::InvalidArgument("probability > 1 at " + path + ":" +
                                     std::to_string(line_no));
    }
    if (options.directed) {
      builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                      clamped);
    } else {
      builder.AddUndirectedEdge(static_cast<NodeId>(src),
                                static_cast<NodeId>(dst), clamped);
    }
    return Status::OK();
  }

  Status Malformed(const char* first, const char* end) const {
    while (end > first && (end[-1] == '\r' || end[-1] == ' ')) --end;
    return Status::InvalidArgument("malformed edge at " + path + ":" +
                                   std::to_string(line_no) + ": '" +
                                   std::string(first, end) + "'");
  }
};

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path,
                           const EdgeListLoadOptions& options) {
  ATPM_FAILPOINT("edge_list.open");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }

  GraphBuilder builder;
  LineParser parser{path, options, builder};
  std::vector<char> buffer(kEdgeListChunk);
  size_t carry = 0;  // bytes of a partial line held at the buffer front
  bool eof = false;
  while (!eof) {
    if (carry == buffer.size()) buffer.resize(buffer.size() * 2);
    if (ATPM_FAILPOINT_FIRED("edge_list.read")) {
      std::fclose(file);
      return Status::IOError("read failure on '" + path +
                             "': injected fault");
    }
    // Short reads from EINTR (or an injected transient fault) resume
    // where they left off under a bounded backoff; a persistent stream
    // error falls through to the hard-error path below.
    const size_t want = buffer.size() - carry;
    size_t got = 0;
    for (uint32_t attempt = 0;;) {
      if (ATPM_FAILPOINT_TRANSIENT("edge_list.read.transient")) {
        if (BackoffRetry(attempt++)) continue;
        std::fclose(file);
        return Status::IOError("read failure on '" + path +
                               "': transient faults exhausted the retry "
                               "budget");
      }
      got += std::fread(buffer.data() + carry + got, 1, want - got, file);
      if (got == want || std::feof(file) != 0) break;
      if (std::ferror(file) != 0 && errno == EINTR &&
          BackoffRetry(attempt++)) {
        std::clearerr(file);
        continue;
      }
      break;
    }
    if (got < want) {
      if (std::ferror(file) != 0) {
        std::fclose(file);
        return Status::IOError("read failure on '" + path +
                               "': " + std::strerror(errno));
      }
      eof = true;
    }
    const char* cursor = buffer.data();
    const char* const data_end = buffer.data() + carry + got;
    while (cursor < data_end) {
      const char* newline = static_cast<const char*>(
          std::memchr(cursor, '\n', static_cast<size_t>(data_end - cursor)));
      if (newline == nullptr) {
        if (!eof) break;           // partial line: refill and re-scan
        newline = data_end;        // final line without a trailing '\n'
      }
      ++parser.line_no;
      const char* first = SkipBlanks(cursor, newline);
      if (first < newline && *first != '#') {
        const Status line_status = parser.Parse(first, newline);
        if (!line_status.ok()) {
          std::fclose(file);
          return line_status;
        }
      }
      cursor = newline + 1;
    }
    carry = cursor < data_end ? static_cast<size_t>(data_end - cursor) : 0;
    if (carry > 0) std::memmove(buffer.data(), cursor, carry);
  }
  std::fclose(file);
  return builder.Build();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  ATPM_FAILPOINT("edge_list.open");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  }
  bool ok = !ATPM_FAILPOINT_FIRED("edge_list.write") &&
            std::fprintf(file, "# atpm edge list: n=%u m=%llu\n",
                         graph.num_nodes(),
                         static_cast<unsigned long long>(
                             graph.num_edges())) > 0;
  for (NodeId u = 0; ok && u < graph.num_nodes(); ++u) {
    const auto neigh = graph.OutNeighbors(u);
    const auto probs = graph.OutProbs(u);
    for (uint32_t j = 0; ok && j < neigh.size(); ++j) {
      // %.9g: max_digits10 for float — the shortest form guaranteed to
      // reparse to the identical float, so save -> load round-trips
      // probabilities bit-exactly.
      ok = !ATPM_FAILPOINT_FIRED("edge_list.write") &&
           std::fprintf(file, "%u\t%u\t%.9g\n", u, neigh[j],
                        static_cast<double>(probs[j])) > 0;
    }
  }
  ok = std::fflush(file) == 0 && ok;
  // fclose can surface the final flush's write error — an unchecked close
  // here would report a torn file as a successful save.
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    return Status::IOError("write failure on '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace atpm
