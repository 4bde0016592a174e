// atpm_trace_dump — turn a binary .atrace capture (common/trace.h,
// written by bench/fig9_sample_scaling or any ATPM_TRACE=1 run) into
// Chrome trace_event JSON for Perfetto / chrome://tracing, or print a
// per-span-name summary (count, inclusive and self time) to stdout.
//
// Usage:
//   atpm_trace_dump to-json <in.atrace> [out.json]
//   atpm_trace_dump summary <in.atrace>

#include <cstdio>
#include <string>
#include <vector>

#include "common/trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: atpm_trace_dump to-json <in.atrace> [out.json]\n"
               "       atpm_trace_dump summary <in.atrace>\n");
  return 2;
}

int ToJson(const std::string& in_path, const std::string& out_path) {
  std::vector<atpm::obs::OwnedTraceEvent> events;
  atpm::Status status = atpm::obs::ReadBinaryTrace(in_path, &events);
  if (!status.ok()) {
    std::fprintf(stderr, "atpm_trace_dump: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string json = atpm::obs::ChromeTraceJsonFromOwned(events);
  if (out_path.empty() || out_path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "atpm_trace_dump: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    std::fprintf(stderr, "atpm_trace_dump: short write on %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu events to %s\n", events.size(),
               out_path.c_str());
  return 0;
}

int Summary(const std::string& in_path) {
  std::vector<atpm::obs::OwnedTraceEvent> events;
  atpm::Status status = atpm::obs::ReadBinaryTrace(in_path, &events);
  if (!status.ok()) {
    std::fprintf(stderr, "atpm_trace_dump: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::vector<atpm::obs::SpanSummary> rows =
      atpm::obs::SummarizeSpans(events);
  std::printf("%-28s %10s %14s %14s %14s %14s\n", "span", "count",
              "total_ms", "self_ms", "mean_us", "max_us");
  for (const atpm::obs::SpanSummary& row : rows) {
    std::printf("%-28s %10llu %14.3f %14.3f %14.3f %14.3f\n",
                row.name.c_str(), static_cast<unsigned long long>(row.count),
                static_cast<double>(row.total_ns) * 1e-6,
                static_cast<double>(row.self_ns) * 1e-6,
                static_cast<double>(row.total_ns) * 1e-3 /
                    static_cast<double>(row.count),
                static_cast<double>(row.max_ns) * 1e-3);
  }
  std::printf("%zu events, %zu distinct spans\n", events.size(),
              rows.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  const std::string in_path = argv[2];
  if (mode == "to-json") {
    return ToJson(in_path, argc > 3 ? argv[3] : "");
  }
  if (mode == "summary") {
    return Summary(in_path);
  }
  return Usage();
}
