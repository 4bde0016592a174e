// Tests for the memory-mapped binary graph store: pack -> mmap round-trip
// equality (CSR, probabilities, edge indices, weight-class census), header /
// version / checksum rejection on truncated and bit-flipped files, pinned
// file bytes, rejection of hostile stores whose checksums were recomputed
// after the edit, copy-on-write reweighting of mapped graphs, and
// bit-identical RR pools + HATP decision sequences for mmap-loaded vs
// builder-built graphs at fixed seeds.
#include "graph/graph_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
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
  EXPECT_EQ(a.segmented_nodes, b.segmented_nodes);
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
  EXPECT_EQ(a.InJumpableEdges(), b.InJumpableEdges());
  EXPECT_EQ(a.OutJumpableEdges(), b.OutJumpableEdges());
  ExpectProfilesEqual(a.InWeightClassProfile(), b.InWeightClassProfile());
  ExpectProfilesEqual(a.OutWeightClassProfile(), b.OutWeightClassProfile());
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

  // Flips one bit at `byte_offset` in the stored file.
  void FlipBit(uint64_t byte_offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(byte_offset));
    char c = 0;
    f.read(&c, 1);
    c ^= 0x10;
    f.seekp(static_cast<std::streamoff>(byte_offset));
    f.write(&c, 1);
  }

  std::string path_;
};

// ---- Raw store images. The offsets below are the frozen version-2 layout:
// an 88-byte header (section_count at 40, payload/table/header hashes at
// 64/72/80), then one 32-byte table entry per section (id, element_size,
// offset, bytes, element_count), payload from the next 64-byte boundary.

constexpr size_t kHeaderBytes = 88;
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
  WriteAt(image, 64,
          StoreChecksum(image->data() + payload_start,
                        image->size() - payload_start));
  WriteAt(image, 72, StoreChecksum(image->data() + kHeaderBytes, table_bytes));
  WriteAt(image, 80, uint64_t{0});
  WriteAt(image, 80, StoreChecksum(image->data(), kHeaderBytes));
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
      .write(bytes.data(), 88);
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
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  // Stamp the file as a version-1 store. The version check runs before the
  // header checksum, so no rehash is needed to reach it.
  const uint32_t old_version = 1;
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof(old_version));
  }
  Result<Graph> loaded = LoadGraphStore(path_);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().ToString().find("format version 1"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("repack with atpm_graph_pack"),
            std::string::npos);
  EXPECT_TRUE(ReadGraphStoreInfo(path_).status().IsInvalidArgument());
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
  FlipBit(88 + 8);  // first section entry's offset field
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
  GraphStoreLoadOptions trusting;
  trusting.verify_payload = false;
  EXPECT_TRUE(LoadGraphStore(path_, trusting).ok());
}

// ---- Exact stored bytes.

TEST_F(GraphStoreTest, StoredBytesArePinned) {
  // The format is frozen at version 2: the same graph packs to the same
  // bytes, build after build.
  ASSERT_TRUE(SaveGraphStore(WcGraph(), path_).ok());
  std::vector<unsigned char> image = ReadImage(path_);
  EXPECT_EQ(image.size(), 68032u);
  EXPECT_EQ(Fnv1a64(image), 1730762520320705312ull);

  ASSERT_TRUE(SaveGraphStore(TrivalencyGraph(), path_).ok());
  image = ReadImage(path_);
  EXPECT_EQ(image.size(), 144512u);
  EXPECT_EQ(Fnv1a64(image), 2190746628758537889ull);
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
}

INSTANTIATE_TEST_SUITE_P(
    EveryRaggedArray, RaggedSectionTest,
    ::testing::Values(RaggedSection{10, "in_segments"},
                      RaggedSection{12, "jump_in_arcs"},
                      RaggedSection{13, "jump_in_slots"},
                      RaggedSection{16, "lt_alias"},
                      RaggedSection{19, "out_segments"},
                      RaggedSection{21, "jump_out_arcs"},
                      RaggedSection{22, "jump_out_slots"}),
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
  // profit. Matches the recorded golden values, so the mapped graph is
  // also bit-compatible with the pre-kernel tree.
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
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 780520u);
  EXPECT_NEAR(run.value().realized_profit, 17.745389, 1e-4);
}

}  // namespace
}  // namespace atpm
