// Tests for the memory-mapped binary graph store: pack -> mmap round-trip
// equality (CSR, probabilities, edge indices, weight-class census), header /
// version / checksum rejection on truncated and bit-flipped files, pinned
// file bytes, rejection of hostile stores whose checksums were recomputed
// after the edit, copy-on-write reweighting of mapped graphs, trusting
// loads that read every array through the mapping, and bit-identical RR
// pools + HATP decision sequences for mmap-loaded vs builder-built graphs
// at fixed seeds.
#include "graph/graph_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hatp.h"
#include "core/target_selection.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

Graph WcGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

Graph TrivalencyGraph(NodeId n = 300) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  Rng wrng(99);
  ApplyTrivalency(&g, &wrng);
  return g;
}

void ExpectProfilesEqual(const WeightClassProfile& a,
                         const WeightClassProfile& b) {
  EXPECT_EQ(a.empty_nodes, b.empty_nodes);
  EXPECT_EQ(a.uniform_nodes, b.uniform_nodes);
  EXPECT_EQ(a.few_distinct_nodes, b.few_distinct_nodes);
  EXPECT_EQ(a.general_nodes, b.general_nodes);
  EXPECT_EQ(a.jumpable_edges, b.jumpable_edges);
  EXPECT_EQ(a.total_edges, b.total_edges);
  EXPECT_EQ(a.lt_fast_nodes, b.lt_fast_nodes);
}

// Element-for-element equality of everything the sampling kernels read.
// Probabilities are compared bit-exactly — the store memcpy's floats, so
// any tolerance here would mask a format bug.
void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.OutDegree(u), b.OutDegree(u)) << "node " << u;
    ASSERT_EQ(a.InDegree(u), b.InDegree(u)) << "node " << u;
    const auto a_out = a.OutNeighbors(u);
    const auto b_out = b.OutNeighbors(u);
    const auto a_op = a.OutProbs(u);
    const auto b_op = b.OutProbs(u);
    for (uint32_t j = 0; j < a.OutDegree(u); ++j) {
      ASSERT_EQ(a_out[j], b_out[j]) << "out arc " << u << "/" << j;
      ASSERT_EQ(a_op[j], b_op[j]) << "out prob " << u << "/" << j;
    }
    const auto a_in = a.InNeighbors(u);
    const auto b_in = b.InNeighbors(u);
    const auto a_ip = a.InProbs(u);
    const auto b_ip = b.InProbs(u);
    for (uint32_t j = 0; j < a.InDegree(u); ++j) {
      ASSERT_EQ(a_in[j], b_in[j]) << "in arc " << u << "/" << j;
      ASSERT_EQ(a_ip[j], b_ip[j]) << "in prob " << u << "/" << j;
      ASSERT_EQ(a.InEdgeIndex(u, j), b.InEdgeIndex(u, j))
          << "edge index " << u << "/" << j;
    }
  }
  ExpectProfilesEqual(a.InWeightClassProfile(), b.InWeightClassProfile());
}

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto s = pool.set(i);
    h = (h ^ s.size()) * 1099511628211ull;
    for (NodeId v : s) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

uint64_t PoolHashFor(const Graph& g, DiffusionModel model, uint64_t seed,
                     uint64_t num_sets) {
  Rng rng(seed);
  SerialSamplingEngine engine(g, model);
  return PoolHash(FillPool(engine, nullptr, g.num_nodes(), num_sets, &rng));
}

class GraphStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/atpm_graph_store_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".atpm";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Graph SaveAndLoad(const Graph& g) {
    Status save = SaveGraphStore(g, path_);
    EXPECT_TRUE(save.ok()) << save.ToString();
    Result<Graph> loaded = LoadGraphStore(path_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::move(loaded).value();
  }

  // Loads with verify_payload = false, as the bench store cache does.
  // Such a load binds the sections and checks nothing in them: the corrupt
  // stores below must load this way, which keeps payload scans off the warm
  // load.
  Result<Graph> LoadTrusting() {
    GraphStoreLoadOptions trusting;
    trusting.verify_payload = false;
    return LoadGraphStore(path_, trusting);
  }

  // Flips the `mask` bits of the byte at `byte_offset` in the stored file.
  void FlipBit(uint64_t byte_offset, char mask = 0x10) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(byte_offset));
    char c = 0;
    f.read(&c, 1);
    c ^= mask;
    f.seekp(static_cast<std::streamoff>(byte_offset));
    f.write(&c, 1);
  }

  std::string path_;
};

// ---- Raw store images. The offsets below are the frozen version-3 layout:
// a 72-byte header (section_count at 40, payload/table/header hashes at
// 48/56/64), then one 32-byte table entry per section (id, element_size,
// offset, bytes, element_count), payload from the next 64-byte boundary.

constexpr size_t kHeaderBytes = 72;
constexpr size_t kEntryBytes = 32;

std::vector<unsigned char> ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteImage(const std::string& path,
                const std::vector<unsigned char>& image) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
}

template <typename T>
T ReadAt(const std::vector<unsigned char>& image, size_t offset) {
  T value;
  std::memcpy(&value, image.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::vector<unsigned char>* image, size_t offset, T value) {
  std::memcpy(image->data() + offset, &value, sizeof(T));
}

// Byte-wise FNV-1a-64 (PoolHash's seed) — pins the exact bytes a store file
// holds.
uint64_t Fnv1a64(const std::vector<unsigned char>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

// The store's own checksum: FNV-1a-style mixing over little-endian 8-byte
// words, a zero-padded tail word, then the byte length.
uint64_t StoreChecksum(const unsigned char* data, size_t n) {
  auto mix = [](uint64_t state, uint64_t word) {
    state = (state ^ word) * 1099511628211ull;
    return state ^ (state >> 29);
  };
  uint64_t state = 1469598103934665603ull;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    state = mix(state, word);
  }
  if (i < n) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, n - i);
    state = mix(state, word);
  }
  return mix(state, n);
}

// Recomputes the payload, section-table and header checksums of an edited
// image, so the edit reaches the loader's structural checks instead of
// tripping a hash.
void RehashStore(std::vector<unsigned char>* image) {
  const size_t table_bytes = ReadAt<uint32_t>(*image, 40) * kEntryBytes;
  const size_t payload_start = (kHeaderBytes + table_bytes + 63) & ~size_t{63};
  WriteAt(image, 48,
          StoreChecksum(image->data() + payload_start,
                        image->size() - payload_start));
  WriteAt(image, 56, StoreChecksum(image->data() + kHeaderBytes, table_bytes));
  WriteAt(image, 64, uint64_t{0});
  WriteAt(image, 64, StoreChecksum(image->data(), kHeaderBytes));
}

// Byte offset of section `id`'s table entry.
size_t EntryOffset(const std::vector<unsigned char>& image, uint32_t id) {
  const uint32_t count = ReadAt<uint32_t>(image, 40);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = kHeaderBytes + i * kEntryBytes;
    if (ReadAt<uint32_t>(image, entry) == id) return entry;
  }
  ADD_FAILURE() << "no section " << id;
  return kHeaderBytes;
}

TEST_F(GraphStoreTest, RoundTripIsExact) {
  const Graph g = WcGraph();
  const Graph loaded = SaveAndLoad(g);
  EXPECT_TRUE(loaded.is_mapped());
  ExpectGraphsEqual(g, loaded);
}

TEST_F(GraphStoreTest, TrivalencyJumpIndexSurvivesRoundTrip) {
  // Trivalency produces kFewDistinct nodes, exercising the segment /
  // jump-view / alias sections that weighted cascade leaves empty.
  const Graph g = TrivalencyGraph();
  ExpectGraphsEqual(g, SaveAndLoad(g));
}

TEST_F(GraphStoreTest, EmptyGraphRoundTrips) {
  GraphBuilder builder;
  builder.ReserveNodes(5);
  const Graph g = builder.Build().value();
  const Graph loaded = SaveAndLoad(g);
  EXPECT_EQ(loaded.num_nodes(), 5u);
  EXPECT_EQ(loaded.num_edges(), 0u);
  ExpectGraphsEqual(g, loaded);
}

TEST_F(GraphStoreTest, RepackingMappedGraphRoundTrips) {
  // Save, load (the graph now views the mapping), save that mapped graph
  // again, load again: still identical to the original.
  const Graph g = TrivalencyGraph();
  const Graph mapped = SaveAndLoad(g);
  const std::string second = path_ + ".repack";
  ASSERT_TRUE(SaveGraphStore(mapped, second).ok());
  Result<Graph> loaded = LoadGraphStore(second);
  std::remove(second.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(g, loaded.value());
}

TEST_F(GraphStoreTest, InfoReportsHeaderFields) {
  const Graph g = WcGraph();
  ASSERT_TRUE(SaveGraphStore(g, path_).ok());
  Result<GraphStoreInfo> info = ReadGraphStoreInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, kGraphStoreVersion);
  EXPECT_EQ(info.value().num_nodes, 300u);
  EXPECT_EQ(info.value().num_edges, g.num_edges());
}

// ---- Corruption and format rejection.

TEST_F(GraphStoreTest, RejectsMissingFile) {
  Result<Graph> loaded = LoadGraphStore(path_ + ".nope");
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST_F(GraphStoreTest, RejectsNonStoreFile) {
  std::ofstream out(path_);
  for (int i = 0; i < 40; ++i) out << "0 1 0.5\n1 2 0.25\n";
  out.close();
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("magic"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTruncatedFile) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Chop off the tail; the header's recorded file_bytes no longer match.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamoff>(bytes.size() / 2));
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTruncationWithinSectionTable) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Cut the file right after the header: the header itself still hashes
  // clean, so the rejection must come from the size / table validation.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), kHeaderBytes);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsTrailingGarbage) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // A partially overwritten (longer) file is as suspect as a truncated
  // one: the header's recorded size must match exactly in both directions.
  std::ofstream(path_, std::ios::binary | std::ios::app).write("junk", 4);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("trailing garbage"),
            std::string::npos);
}

TEST_F(GraphStoreTest, SaveIsAtomicOverExistingStore) {
  // Re-saving over an existing store goes through a temp file + rename:
  // afterwards the new content is fully visible and no temp file remains.
  const Graph first = WcGraph();
  ASSERT_TRUE(SaveGraphStore(first, path_).ok());
  const Graph second = TrivalencyGraph();
  ASSERT_TRUE(SaveGraphStore(second, path_).ok());
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(second, loaded.value());
}

TEST_F(GraphStoreTest, RejectsHeaderShortFile) {
  std::ofstream(path_, std::ios::binary) << "ATPMGRF1";
  Result<Graph> loaded = LoadGraphStore(path_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(GraphStoreTest, RejectsUnknownVersion) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // The version field is the u32 right after the 8-byte magic. The check
  // runs before the header checksum, so the error names the version.
  FlipBit(8);
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST_F(GraphStoreTest, RejectsVersionOneStore) {
  // Stamp the file as each older version. The version check runs before
  // the header checksum, so no rehash is needed to reach it.
  for (const uint32_t old_version : {1u, 2u}) {
    ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
    {
      std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(8);
      f.write(reinterpret_cast<const char*>(&old_version),
              sizeof(old_version));
    }
    Result<Graph> loaded = LoadGraphStore(path_);
    ASSERT_TRUE(loaded.status().IsInvalidArgument());
    EXPECT_NE(loaded.status().ToString().find(
                  "format version " + std::to_string(old_version) + ";"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("repack with atpm_graph_pack"),
              std::string::npos);
    EXPECT_TRUE(ReadGraphStoreInfo(path_).status().IsInvalidArgument());
  }
}

TEST_F(GraphStoreTest, RejectsBitFlippedHeader) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  FlipBit(16);  // inside num_nodes
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("header checksum"),
            std::string::npos);
}

TEST_F(GraphStoreTest, RejectsBitFlippedSectionTable) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  FlipBit(kHeaderBytes + 8);  // first section entry's offset field
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("section table"),
            std::string::npos);
}

TEST_F(GraphStoreTest, RejectsBitFlippedPayload) {
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  in.close();
  FlipBit(size - 7);  // deep in the last payload section
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("payload checksum"),
            std::string::npos);

  // The same flip sails through when payload verification is waived (the
  // out-of-core configuration documents this trade explicitly).
  EXPECT_TRUE(LoadTrusting().ok());
}

// ---- Exact stored bytes.

TEST_F(GraphStoreTest, StoredBytesArePinned) {
  // The format is frozen at version 3: the same graph packs to the same
  // bytes, build after build.
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  EXPECT_EQ(image.size(), 49472u);
  EXPECT_EQ(Fnv1a64(image), 2727194276679481873ull);

  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  image = ReadImage(path_);
  EXPECT_EQ(image.size(), 95552u);
  EXPECT_EQ(Fnv1a64(image), 8807921774856917801ull);
}

TEST_F(GraphStoreTest, AliasSlotPaddingIsStoredAsZero) {
  // LtAliasSlot has 12 bytes of payload in a 16-byte slot; the last four
  // must reach the file as zeros, not as whatever the stack held.
  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  const std::vector<unsigned char> image = ReadImage(path_);
  const size_t entry = EntryOffset(image, /*lt_alias=*/16);
  ASSERT_EQ(ReadAt<uint32_t>(image, entry + 4), 16u);
  const uint64_t offset = ReadAt<uint64_t>(image, entry + 8);
  const uint64_t slots = ReadAt<uint64_t>(image, entry + 24);
  ASSERT_GT(slots, 0u);
  uint64_t dirty = 0;
  for (uint64_t i = 0; i < slots; ++i) {
    dirty += ReadAt<uint32_t>(image, offset + i * 16 + 12) != 0;
  }
  EXPECT_EQ(dirty, 0u) << "of " << slots << " slots";
}

// ---- Hostile stores: edits that keep every checksum valid (RehashStore)
// but break the array list's extent rules.

TEST_F(GraphStoreTest, RehashStoreReproducesWriterChecksums) {
  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  const std::vector<unsigned char> image = ReadImage(path_);
  std::vector<unsigned char> rehashed = image;
  RehashStore(&rehashed);
  EXPECT_TRUE(rehashed == image);
}

struct RaggedSection {
  uint32_t id;
  const char* name;
};

void PrintTo(const RaggedSection& section, std::ostream* os) {
  *os << section.name;
}

class RaggedSectionTest : public GraphStoreTest,
                          public ::testing::WithParamInterface<RaggedSection> {
};

TEST_P(RaggedSectionTest, RejectsCountThatContradictsOffsets) {
  // Declare the section empty and park it at the end of the file: its
  // bounds are fine, but its offsets array still spans every element.
  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  const size_t entry = EntryOffset(image, GetParam().id);
  ASSERT_GT(ReadAt<uint64_t>(image, entry + 24), 0u);
  WriteAt(&image, entry + 8, uint64_t{image.size()});
  WriteAt(&image, entry + 16, uint64_t{0});
  WriteAt(&image, entry + 24, uint64_t{0});
  RehashStore(&image);
  WriteImage(path_, image);

  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find(GetParam().name),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_TRUE(LoadTrusting().ok());
}

INSTANTIATE_TEST_SUITE_P(
    EveryRaggedArray, RaggedSectionTest,
    ::testing::Values(RaggedSection{10, "in_segments"},
                      RaggedSection{12, "jump_in_neighbors"},
                      RaggedSection{13, "jump_in_slots"},
                      RaggedSection{16, "lt_alias"}),
    [](const ::testing::TestParamInfo<RaggedSection>& info) {
      return std::string(info.param.name);
    });

TEST_F(GraphStoreTest, RejectsOffsetsArrayNotStartingAtZero) {
  // Shift seg_offsets[0] by one; a reader trusting it would address every
  // node-0 segment one slot off.
  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  const uint64_t offset =
      ReadAt<uint64_t>(image, EntryOffset(image, /*seg_offsets=*/9) + 8);
  WriteAt(&image, offset, uint64_t{1});
  RehashStore(&image);
  WriteImage(path_, image);

  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("seg_offsets"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_TRUE(LoadTrusting().ok());
}

// Rewrites entry `index` of section `id` (elements of type T) and rehashes.
template <typename T>
void EditSectionEntry(std::vector<unsigned char>* image, uint32_t id,
                      uint64_t index, T value) {
  const uint64_t offset = ReadAt<uint64_t>(*image, EntryOffset(*image, id) + 8);
  WriteAt(image, offset + index * sizeof(T), value);
  RehashStore(image);
}

TEST_F(GraphStoreTest, RejectsNodeIdPastNodeCount) {
  // in_adj[0] = n + 5: a reverse walk would index past every node array.
  const Graph g = WcGraph();
  ASSERT_TRUE(SaveGraphStore(g, path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  EditSectionEntry(&image, /*in_adj=*/5, 0, NodeId{g.num_nodes() + 5});
  WriteImage(path_, image);

  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("in_adj"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_TRUE(LoadTrusting().ok());
}

TEST_F(GraphStoreTest, RejectsDecreasingOffsets) {
  // in_offsets[5] = m + 1000: node 4's in-edge range runs past the arrays,
  // and the end offset m still matches the header.
  const Graph g = WcGraph();
  ASSERT_TRUE(SaveGraphStore(g, path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  EditSectionEntry(&image, /*in_offsets=*/4, 5,
                   uint64_t{g.num_edges() + 1000});
  WriteImage(path_, image);

  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("in_offsets"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_TRUE(LoadTrusting().ok());
}

// ---- Copy-on-write: mutating a mapped graph must detach, not crash (the
// mapping is PROT_READ) and must not disturb the file.

TEST_F(GraphStoreTest, ReweightingMappedGraphDetachesFromMapping) {
  const Graph original = TrivalencyGraph();
  Graph mapped = SaveAndLoad(original);
  ASSERT_TRUE(mapped.is_mapped());

  ApplyWeightedCascade(&mapped);
  EXPECT_FALSE(mapped.is_mapped());
  Graph expected = TrivalencyGraph();
  ApplyWeightedCascade(&expected);
  ExpectGraphsEqual(expected, mapped);

  // The store file is untouched: reloading still yields the trivalency
  // weighting.
  Result<Graph> reloaded = LoadGraphStore(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectGraphsEqual(original, reloaded.value());
}

// ---- A trusting load binds and does nothing else: every array must read
// through the mapping, not from a copy or a rebuild. Each case flips a bit
// of one element in the store file, in place, after the load. A private
// read-only mapping shares the file's page cache, so a view sees the flip
// and a copied or rebuilt array does not.

template <typename T>
uint64_t Bits(const T& value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, std::min(sizeof(T), sizeof(bits)));
  return bits;
}

TEST_F(GraphStoreTest, TrustingLoadReadsEveryArrayThroughTheMapping) {
  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  Result<Graph> loaded = LoadTrusting();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& g = loaded.value();

  // A node with at least two entries in every array, so that a flipped
  // low bit of an offset leaves each of its ranges non-empty.
  NodeId v = 0;
  while (v < g.num_nodes() &&
         (g.OutDegree(v) < 2 || g.InProbSegments(v).size() < 2 ||
          g.JumpInNeighbors(v).size() < 2 || g.LtAliasSlots(v).size() < 2)) {
    ++v;
  }
  ASSERT_LT(v, g.num_nodes());
  // Index of v's first element in a CSR-addressed array.
  const auto first = [](auto of_v, auto of_0) {
    return static_cast<uint64_t>(of_v.data() - of_0.data());
  };
  struct Case {
    uint64_t element;
    std::function<uint64_t()> read;
  };
  // In Graph's array list order, so case i edits section i + 1. An offsets
  // array is edited at v + 1 and read as the length of v's range.
  const std::vector<Case> cases = {
      {v + 1, [&] { return uint64_t{g.OutDegree(v)}; }},
      {first(g.OutNeighbors(v), g.OutNeighbors(0)),
       [&] { return Bits(g.OutNeighbors(v)[0]); }},
      {first(g.OutProbs(v), g.OutProbs(0)),
       [&] { return Bits(g.OutProbs(v)[0]); }},
      {v + 1, [&] { return uint64_t{g.InDegree(v)}; }},
      {first(g.InNeighbors(v), g.InNeighbors(0)),
       [&] { return Bits(g.InNeighbors(v)[0]); }},
      {first(g.InProbs(v), g.InProbs(0)),
       [&] { return Bits(g.InProbs(v)[0]); }},
      {first(g.InNeighbors(v), g.InNeighbors(0)),
       [&] { return g.InEdgeIndex(v, 0); }},
      {v, [&] { return Bits(g.InWeightClass(v)); }},
      {v + 1, [&] { return uint64_t{g.InProbSegments(v).size()}; }},
      {first(g.InProbSegments(v), g.InProbSegments(0)),
       [&] { return Bits(g.InProbSegments(v)[0]); }},
      {v + 1, [&] { return uint64_t{g.JumpInNeighbors(v).size()}; }},
      {first(g.JumpInNeighbors(v), g.JumpInNeighbors(0)),
       [&] { return Bits(g.JumpInNeighbors(v)[0]); }},
      {first(g.JumpInSlots(v), g.JumpInSlots(0)),
       [&] { return Bits(g.JumpInSlots(v)[0]); }},
      {v, [&] { return Bits(g.LtInPlan(v)); }},
      {v + 1, [&] { return uint64_t{g.LtAliasSlots(v).size()}; }},
      {first(g.LtAliasSlots(v), g.LtAliasSlots(0)),
       [&] { return Bits(g.LtAliasSlots(v)[0]); }},
  };
  const std::vector<unsigned char> image = ReadImage(path_);
  ASSERT_EQ(cases.size(), ReadAt<uint32_t>(image, 40));
  for (uint32_t id = 1; id <= cases.size(); ++id) {
    const Case& c = cases[id - 1];
    const size_t entry = EntryOffset(image, id);
    const uint64_t at = ReadAt<uint64_t>(image, entry + 8) +
                        c.element * ReadAt<uint32_t>(image, entry + 4);
    const uint64_t before = c.read();
    FlipBit(at, 0x01);
    EXPECT_NE(c.read(), before) << "section " << id << " is not a view";
  }
}

// ---- Functional indistinguishability: fixed-seed RR pools and adaptive
// policy runs must be bit-identical between builder-built and mmap-loaded
// graphs (ISSUE acceptance criterion).

TEST_F(GraphStoreTest, RrPoolsBitIdenticalBuilderVsMapped) {
  const Graph g = WcGraph();
  const Graph mapped = SaveAndLoad(g);
  EXPECT_EQ(
      PoolHashFor(g, DiffusionModel::kIndependentCascade, 77, 2000),
      PoolHashFor(mapped, DiffusionModel::kIndependentCascade, 77, 2000));
  EXPECT_EQ(PoolHashFor(g, DiffusionModel::kLinearThreshold, 77, 1000),
            PoolHashFor(mapped, DiffusionModel::kLinearThreshold, 77, 1000));
}

TEST_F(GraphStoreTest, TrivalencyPoolsBitIdenticalBuilderVsMapped) {
  const Graph g = TrivalencyGraph();
  const Graph mapped = SaveAndLoad(g);
  EXPECT_EQ(
      PoolHashFor(g, DiffusionModel::kIndependentCascade, 77, 2000),
      PoolHashFor(mapped, DiffusionModel::kIndependentCascade, 77, 2000));
}

TEST_F(GraphStoreTest, HatpDecisionSequenceIdenticalOnMappedGraph) {
  // The golden HATP run from rr_kernel_test, replayed on the mmap-loaded
  // graph: same seeds picked in the same order, same RR-set count, same
  // profit as the builder graph's recorded golden.
  const Graph g = SaveAndLoad(WcGraph());

  TargetSelectionOptions sel;
  sel.kernel = SamplingKernel::kPerEdge;
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional, sel);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();

  HatpOptions hopt;
  hopt.sampling.kernel = SamplingKernel::kPerEdge;
  HatpPolicy policy(hopt);
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(
      g, &world_rng, DiffusionModel::kIndependentCascade,
      SamplingKernel::kPerEdge));
  Rng rng(1);
  auto run = policy.Run(selection.value().problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9, 55}));
  EXPECT_EQ(run.value().total_rr_sets, 254176u);
  EXPECT_NEAR(run.value().realized_profit, 17.560785, 1e-4);
}

}  // namespace
}  // namespace atpm
