#include "graph/graph_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/failpoint.h"
#include "common/io_retry.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace atpm {
namespace {

// Store-level instruments. Loads are rare next to sampling, so these sit on
// the slow path anyway; registration is one-time and leaked (see metrics.h).
struct StoreMetrics {
  obs::Counter* loads;
  obs::Histogram* load_seconds;
  obs::Histogram* map_seconds;

  static const StoreMetrics& Get() {
    static const StoreMetrics* const m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* sm = new StoreMetrics();
      sm->loads = reg.RegisterCounter(
          "atpm_graph_store_loads_total",
          "Successful graph store loads (mmap + bind, no rebuild)");
      sm->load_seconds = reg.RegisterHistogram(
          "atpm_graph_store_load_seconds",
          "End-to-end graph store load latency",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      sm->map_seconds = reg.RegisterHistogram(
          "atpm_graph_store_map_seconds",
          "open+mmap+validate latency inside a load",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      return sm;
    }();
    return *m;
  }
};

// ---- Format constants ------------------------------------------------------

constexpr char kMagic[8] = {'A', 'T', 'P', 'M', 'G', 'R', 'F', '1'};
// Little-endian sentinel: a big-endian writer would store these bytes
// reversed, which a little-endian reader rejects (and vice versa).
constexpr uint32_t kEndianSentinel = 0xA7B0C1D2u;
constexpr uint64_t kAlignment = 64;

struct GraphStoreHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t file_bytes;
  uint32_t section_count;
  uint32_t reserved;  // written as 0
  uint64_t payload_hash;  // [payload_start, file_bytes), padding included
  uint64_t table_hash;    // the section table bytes
  uint64_t header_hash;   // this struct with header_hash zeroed
};
static_assert(sizeof(GraphStoreHeader) == 72, "header layout is frozen");
static_assert(std::is_trivially_copyable_v<GraphStoreHeader>);
// offsetof pins: a reordered or repacked field moves one of these and fails
// the build — bump kGraphStoreVersion instead of "fixing" the assert.
static_assert(offsetof(GraphStoreHeader, version) == 8);
static_assert(offsetof(GraphStoreHeader, endian) == 12);
static_assert(offsetof(GraphStoreHeader, num_nodes) == 16);
static_assert(offsetof(GraphStoreHeader, section_count) == 40);
static_assert(offsetof(GraphStoreHeader, reserved) == 44);
static_assert(offsetof(GraphStoreHeader, payload_hash) == 48);
static_assert(offsetof(GraphStoreHeader, header_hash) == 64);

struct GraphStoreSection {
  uint32_t id;
  uint32_t element_size;
  uint64_t offset;  // absolute file offset, kAlignment-aligned
  uint64_t bytes;   // element_count * element_size
  uint64_t element_count;
};
static_assert(sizeof(GraphStoreSection) == 32, "section layout is frozen");
static_assert(std::is_trivially_copyable_v<GraphStoreSection>);
static_assert(offsetof(GraphStoreSection, offset) == 8);
static_assert(offsetof(GraphStoreSection, element_count) == 24);

// The array element types are memcpy'd to disk verbatim; freeze their
// layout so a compiler/ABI change cannot silently corrupt stores.
static_assert(sizeof(ProbSegment) == 24 && alignof(ProbSegment) == 8);
static_assert(sizeof(LtAliasSlot) == 16 && alignof(LtAliasSlot) == 8);
static_assert(offsetof(LtAliasSlot, alias) == 8 &&
              offsetof(LtAliasSlot, reserved) == 12);
static_assert(std::is_trivially_copyable_v<ProbSegment>);
static_assert(std::is_trivially_copyable_v<LtAliasSlot>);

uint64_t AlignUp(uint64_t x) { return (x + kAlignment - 1) & ~(kAlignment - 1); }

// ---- Hashing ---------------------------------------------------------------

// 64-bit FNV-1a over 8-byte words: ~10x the byte-at-a-time throughput,
// which matters when verifying multi-GB payloads. Streaming-safe: the
// digest depends only on the byte sequence, not on how it was chunked
// across Update calls (the writer hashes section by section, the reader
// hashes the whole payload in one pass — they must agree).
class Hash64 {
 public:
  void Update(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total_ += n;
    if (buffered_ > 0) {
      while (buffered_ < 8 && n > 0) {
        buf_[buffered_++] = *p++;
        --n;
      }
      if (buffered_ < 8) return;
      uint64_t word;
      std::memcpy(&word, buf_, 8);
      Mix(word);
      buffered_ = 0;
    }
    while (n >= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      Mix(word);
      p += 8;
      n -= 8;
    }
    // The bound is provably never hit (n < 8 and buffered_ == 0 here) but
    // keeps the indexing visibly in range for the optimizer's UB analysis.
    while (n > 0 && buffered_ < sizeof(buf_)) {
      buf_[buffered_++] = *p++;
      --n;
    }
  }

  uint64_t Digest() const {
    uint64_t state = state_;
    if (buffered_ > 0) {
      uint64_t word = 0;
      std::memcpy(&word, buf_, buffered_);
      state = MixInto(state, word);
    }
    // Folding the length in makes "abc" + zero tail distinct from "abc".
    return MixInto(state, total_);
  }

 private:
  static uint64_t MixInto(uint64_t state, uint64_t word) {
    state = (state ^ word) * 1099511628211ull;
    return state ^ (state >> 29);
  }
  void Mix(uint64_t word) { state_ = MixInto(state_, word); }

  uint64_t state_ = 1469598103934665603ull;
  uint64_t total_ = 0;
  size_t buffered_ = 0;
  unsigned char buf_[8] = {};
};

uint64_t HashBytes(const void* data, size_t n) {
  Hash64 h;
  h.Update(data, n);
  return h.Digest();
}

uint64_t HeaderHash(GraphStoreHeader header) {
  header.header_hash = 0;
  return HashBytes(&header, sizeof(header));
}

// ---- mmap RAII -------------------------------------------------------------

struct MappedFile {
  const unsigned char* base = nullptr;
  uint64_t size = 0;

  ~MappedFile() {
    if (base != nullptr) {
      // munmap's signature predates const; no write happens through this.
      ::munmap(const_cast<unsigned char*>(base), size);  // atpm-lint: allow(mmap-safety)
    }
  }
};

// ---- Buffered writer -------------------------------------------------------

// Sequential section writer: tracks the running offset, zero-pads to
// alignment, and hashes every payload byte as it goes out.
class StoreWriter {
 public:
  explicit StoreWriter(std::FILE* file) : file_(file) {}

  uint64_t offset() const { return offset_; }
  bool failed() const { return failed_; }
  uint64_t payload_hash() const { return hash_.Digest(); }

  void PadToAlignment() {
    static const unsigned char zeros[kAlignment] = {};
    const uint64_t aligned = AlignUp(offset_);
    if (aligned != offset_) {
      Write(zeros, aligned - offset_);
    }
  }

  void Write(const void* data, uint64_t bytes) {
    if (failed_ || bytes == 0) return;
    if (ATPM_FAILPOINT_FIRED("graph_store.write") ||
        std::fwrite(data, 1, bytes, file_) != bytes) {
      failed_ = true;
      return;
    }
    hash_.Update(data, bytes);
    offset_ += bytes;
  }

  // Seeks past the (not yet written) header + table region.
  void SkipPreamble(uint64_t preamble_bytes) {
    if (std::fseek(file_, static_cast<long>(preamble_bytes), SEEK_SET) != 0) {
      failed_ = true;
    }
    offset_ = preamble_bytes;
  }

 private:
  std::FILE* file_;
  uint64_t offset_ = 0;
  bool failed_ = false;
  Hash64 hash_;
};

}  // namespace

// ---- Serializer / loader (friend of Graph) ---------------------------------

class GraphStoreIO {
 public:
  static Status Save(const Graph& g, const std::string& path);
  static Result<Graph> Load(const std::string& path,
                            const GraphStoreLoadOptions& options);

  // Validated view of a mapped store file (header + table resolved).
  struct StoreView {
    std::shared_ptr<MappedFile> file;
    const GraphStoreHeader* header = nullptr;
    const GraphStoreSection* sections = nullptr;

    const GraphStoreSection* Find(uint32_t id) const {
      for (uint32_t i = 0; i < header->section_count; ++i) {
        if (sections[i].id == id) return &sections[i];
      }
      return nullptr;
    }
  };

  static Result<StoreView> MapAndValidate(const std::string& path,
                                          bool verify_payload);

 private:
  // Name of the array stored as section `id`: its entry in Graph's array
  // list, whose 1-based position is the id ("?" past its end).
  static const char* SectionName(uint32_t id) {
    const char* name = "?";
    uint32_t position = 0;
    const Graph empty;
    Graph::ForEachArray(
        empty, [&](const char* array, Graph::Extent, const auto&) {
          if (++position == id) name = array;
        });
    return name;
  }

  // Points `block` at section `id`, whose element size and count must
  // match the array's type and extent rule. A ragged length (the last
  // entry of an offsets array), an offsets array's leading 0 and its order,
  // and node ids below n are payload words, so they are checked with the
  // payload (`check_payload`, whose hash pass pages everything in anyway);
  // a load that waives that takes them on trust like every other payload
  // byte, the section count included, and touches no page it does not
  // need.
  template <typename T>
  static Status BindSection(const StoreView& view, uint32_t id,
                            const char* name, Graph::Extent extent, NodeId n,
                            uint64_t m, bool check_payload,
                            ArrayBlock<T>* block) {
    const GraphStoreSection* section = view.Find(id);
    if (section == nullptr) {
      return Status::InvalidArgument(
          std::string("graph store: missing section ") + name);
    }
    const uint64_t expected_count =
        extent.kind == Graph::Extent::kRagged && !check_payload
            ? section->element_count
            : extent.Length(n, m);
    if (section->element_size != sizeof(T) ||
        section->element_count != expected_count) {
      return Status::InvalidArgument(
          std::string("graph store: section ") + name + " has element_size " +
          std::to_string(section->element_size) + " count " +
          std::to_string(section->element_count) + ", expected " +
          std::to_string(sizeof(T)) + " x " + std::to_string(expected_count));
    }
    block->SetView(
        reinterpret_cast<const T*>(view.file->base + section->offset),
        expected_count);
    if (!check_payload) return Status::OK();
    const auto reject = [&](const std::string& what) {
      return Status::InvalidArgument(std::string("graph store: section ") +
                                     name + " " + what);
    };
    if constexpr (std::is_same_v<T, uint64_t>) {
      if (extent.kind == Graph::Extent::kOffsets) {
        if ((*block)[0] != 0) return reject("does not start at 0");
        for (uint64_t i = 1; i < block->size(); ++i) {
          if ((*block)[i] < (*block)[i - 1]) {
            return reject("decreases at entry " + std::to_string(i));
          }
        }
      }
    }
    if constexpr (std::is_same_v<T, NodeId>) {
      if (extent.node_ids) {
        for (uint64_t i = 0; i < block->size(); ++i) {
          if ((*block)[i] >= n) {
            return reject("holds node id " + std::to_string((*block)[i]) +
                          " at entry " + std::to_string(i) + ", not below " +
                          std::to_string(n));
          }
        }
      }
    }
    return Status::OK();
  }
};

Status GraphStoreIO::Save(const Graph& g, const std::string& path) {
  const NodeId n = g.num_nodes();
  const uint64_t m = g.num_edges();

  // Layout: preamble, then one aligned section per entry of Graph's array
  // list. Offsets are computed up front so the section table can be
  // written after the payload without a second pass over the data.
  std::vector<GraphStoreSection> table;
  std::vector<const void*> payloads;
  Graph::ForEachArray(
      g, [&](const char*, Graph::Extent, const auto& block) {
        const uint32_t element_size = sizeof(block[0]);
        table.push_back({static_cast<uint32_t>(table.size()) + 1,
                         element_size, 0, block.size() * element_size,
                         block.size()});
        payloads.push_back(block.data());
      });
  const uint32_t section_count = static_cast<uint32_t>(table.size());
  const uint64_t preamble_bytes =
      sizeof(GraphStoreHeader) + section_count * sizeof(GraphStoreSection);
  uint64_t offset = AlignUp(preamble_bytes);
  for (GraphStoreSection& section : table) {
    section.offset = offset;
    offset = AlignUp(offset + section.bytes);
  }
  const uint64_t file_bytes = offset;

  // Crash-safe publish: write the full image to a same-directory temp
  // file, fsync it, then atomically rename over `path`. A reader racing
  // the save (or one arriving after a mid-write crash) observes either the
  // previous store or the complete new one — never a torn file.
  ATPM_FAILPOINT("graph_store.open");
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + tmp_path +
                           "' for writing: " + std::strerror(errno));
  }

  StoreWriter writer(file);
  // Seek straight to the aligned payload start; the preamble pad is left as
  // a zero gap and is outside the payload hash (the reader hashes from
  // AlignUp(preamble) too).
  writer.SkipPreamble(AlignUp(preamble_bytes));
  for (uint32_t i = 0; i < section_count; ++i) {
    writer.Write(payloads[i], table[i].bytes);
    writer.PadToAlignment();
  }

  GraphStoreHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kGraphStoreVersion;
  header.endian = kEndianSentinel;
  header.num_nodes = n;
  header.num_edges = m;
  header.file_bytes = file_bytes;
  header.section_count = section_count;
  header.payload_hash = writer.payload_hash();
  header.table_hash =
      HashBytes(table.data(), table.size() * sizeof(GraphStoreSection));
  header.header_hash = HeaderHash(header);

  bool write_ok = !writer.failed() && writer.offset() == file_bytes;
  if (write_ok) {
    write_ok = std::fseek(file, 0, SEEK_SET) == 0 &&
               std::fwrite(&header, sizeof(header), 1, file) == 1 &&
               std::fwrite(table.data(), sizeof(GraphStoreSection),
                           table.size(), file) == table.size();
  }
  write_ok = std::fflush(file) == 0 && write_ok;
  // Durability before visibility: the bytes must be on disk before the
  // rename can publish them, or a crash could leave `path` naming a
  // fully-visible but partially-persisted store.
  if (write_ok && (ATPM_FAILPOINT_FIRED("graph_store.fsync") ||
                   ::fsync(::fileno(file)) != 0)) {
    write_ok = false;
  }
  write_ok = std::fclose(file) == 0 && write_ok;
  if (!write_ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("write failure on '" + tmp_path +
                           "': " + std::strerror(errno));
  }
  if (ATPM_FAILPOINT_FIRED("graph_store.rename") ||
      std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot publish '" + path +
                           "': rename failed: " + std::strerror(errno));
  }
  // Best-effort directory sync so the rename itself survives power loss;
  // the data is already durable, so a failure here costs nothing worse
  // than re-running the save.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos
          ? std::string(".")
          : (slash == 0 ? std::string("/") : path.substr(0, slash));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<GraphStoreIO::StoreView> GraphStoreIO::MapAndValidate(
    const std::string& path, bool verify_payload) {
  ATPM_FAILPOINT("graph_store.open");
  // EINTR (and injected transient faults) get a bounded backoff-retry;
  // anything else is a hard error.
  int fd = -1;
  for (uint32_t attempt = 0;;) {
    if (ATPM_FAILPOINT_TRANSIENT("graph_store.open.transient")) {
      if (BackoffRetry(attempt++)) continue;
      return Status::IOError("cannot open '" + path +
                             "': transient faults exhausted the retry "
                             "budget");
    }
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) break;
    if (errno == EINTR && BackoffRetry(attempt++)) continue;
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError("fstat('" + path + "') failed: " +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < sizeof(GraphStoreHeader)) {
    ::close(fd);
    return Status::InvalidArgument(
        "graph store '" + path + "' is truncated: " + std::to_string(size) +
        " bytes is smaller than the header");
  }
  void* mapping = MAP_FAILED;
  if (ATPM_FAILPOINT_FIRED("graph_store.mmap")) {
    errno = ENOMEM;  // injected fault surfaces through the real error path
  } else {
    mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);  // the mapping holds its own reference
  if (mapping == MAP_FAILED) {
    return Status::IOError("mmap('" + path +
                           "') failed: " + std::strerror(errno));
  }
  auto file = std::make_shared<MappedFile>();
  file->base = static_cast<const unsigned char*>(mapping);
  file->size = size;

  ATPM_FAILPOINT("graph_store.read");
  GraphStoreHeader header;
  std::memcpy(&header, file->base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a graph store (bad magic)");
  }
  if (header.endian != kEndianSentinel) {
    return Status::InvalidArgument(
        "graph store '" + path + "' was written on a foreign-endian machine");
  }
  if (header.version != kGraphStoreVersion) {
    return Status::InvalidArgument(
        "graph store '" + path + "' has format version " +
        std::to_string(header.version) + "; this build reads version " +
        std::to_string(kGraphStoreVersion) + " (repack with atpm_graph_pack)");
  }
  if (header.header_hash != HeaderHash(header)) {
    return Status::InvalidArgument("graph store '" + path +
                                   "' header checksum mismatch (corrupt)");
  }
  if (header.file_bytes != size) {
    return Status::InvalidArgument(
        "graph store '" + path + "' is truncated or has trailing garbage: "
        "header records " +
        std::to_string(header.file_bytes) + " bytes, file has " +
        std::to_string(size));
  }
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(GraphStoreSection);
  const uint64_t preamble_bytes = sizeof(GraphStoreHeader) + table_bytes;
  if (preamble_bytes > size) {
    return Status::InvalidArgument("graph store '" + path +
                                   "' section table exceeds the file");
  }
  const GraphStoreSection* sections =
      reinterpret_cast<const GraphStoreSection*>(file->base +
                                                 sizeof(GraphStoreHeader));
  if (HashBytes(sections, table_bytes) != header.table_hash) {
    return Status::InvalidArgument(
        "graph store '" + path + "' section table checksum mismatch");
  }
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const GraphStoreSection& s = sections[i];
    // Division-based element check: the naive `element_count *
    // element_size` product can wrap for adversarial counts and collide
    // with a small in-bounds `bytes`, smuggling a view of 2^61 "elements"
    // past the bounds check.
    if (s.offset % kAlignment != 0 || s.offset > size ||
        s.bytes > size - s.offset || s.element_size == 0 ||
        s.element_count != s.bytes / s.element_size ||
        s.bytes % s.element_size != 0) {
      return Status::InvalidArgument(
          "graph store '" + path + "' section " + SectionName(s.id) +
          " has inconsistent bounds");
    }
  }
  if (verify_payload) {
    const uint64_t payload_start = AlignUp(preamble_bytes);
    if (HashBytes(file->base + payload_start, size - payload_start) !=
        header.payload_hash) {
      return Status::InvalidArgument("graph store '" + path +
                                     "' payload checksum mismatch (corrupt)");
    }
  }

  StoreView view;
  view.file = std::move(file);
  view.header = reinterpret_cast<const GraphStoreHeader*>(view.file->base);
  view.sections = sections;
  return view;
}

Result<Graph> GraphStoreIO::Load(const std::string& path,
                                 const GraphStoreLoadOptions& options) {
  const StoreMetrics& metrics = StoreMetrics::Get();
  obs::TraceSpan load_span("graph_store_load");
  obs::ScopedLatency load_latency(metrics.load_seconds);
  Result<StoreView> mapped = [&] {
    obs::ScopedLatency map_latency(metrics.map_seconds);
    return MapAndValidate(path, options.verify_payload);
  }();
  if (!mapped.ok()) return mapped.status();
  const StoreView& view = mapped.value();
  const GraphStoreHeader& header = *view.header;
  const uint64_t n64 = header.num_nodes;
  if (n64 > 0xFFFFFFFFull - 1) {
    return Status::InvalidArgument("graph store node count overflows NodeId");
  }
  const NodeId n = static_cast<NodeId>(n64);
  const uint64_t m = header.num_edges;

  Graph g;
  g.n_ = n;
  Status bound;
  uint32_t id = 0;
  Graph::ForEachArray(
      g, [&](const char* name, Graph::Extent extent, auto& block) {
        ++id;
        if (!bound.ok()) return;
        bound = BindSection(view, id, name, extent, n, m,
                            options.verify_payload, &block);
      });
  ATPM_RETURN_NOT_OK(bound);

  // Cheap structural invariants (full content integrity is the payload
  // hash's job): CSR extents must match the header's edge count.
  if (g.out_offsets_[0] != 0 || g.out_offsets_[n] != m ||
      g.in_offsets_[0] != 0 || g.in_offsets_[n] != m) {
    return Status::InvalidArgument(
        "graph store '" + path + "' CSR offsets disagree with header counts");
  }

  g.backing_ = std::static_pointer_cast<const void>(view.file);
  load_span.AnnotateU64("num_nodes", n64);
  load_span.AnnotateU64("num_edges", m);
  metrics.loads->Increment();
  return g;
}

Status SaveGraphStore(const Graph& graph, const std::string& path) {
  return GraphStoreIO::Save(graph, path);
}

Result<Graph> LoadGraphStore(const std::string& path,
                             const GraphStoreLoadOptions& options) {
  return GraphStoreIO::Load(path, options);
}

Result<GraphStoreInfo> ReadGraphStoreInfo(const std::string& path) {
  Result<GraphStoreIO::StoreView> mapped =
      GraphStoreIO::MapAndValidate(path, /*verify_payload=*/false);
  if (!mapped.ok()) return mapped.status();
  const GraphStoreHeader& header = *mapped.value().header;
  GraphStoreInfo info;
  info.version = header.version;
  info.section_count = header.section_count;
  info.num_nodes = header.num_nodes;
  info.num_edges = header.num_edges;
  info.file_bytes = header.file_bytes;
  return info;
}

}  // namespace atpm
