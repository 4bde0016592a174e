#include "graph/edge_list_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace atpm {
namespace {

class EdgeListIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/atpm_edge_list_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".txt";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(EdgeListIoTest, LoadsBasicDirectedEdgeList) {
  WriteFile("0 1 0.5\n1 2 0.25\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 3u);
  EXPECT_EQ(g.value().num_edges(), 2u);
  EXPECT_FLOAT_EQ(g.value().OutProbs(0)[0], 0.5f);
}

TEST_F(EdgeListIoTest, SkipsCommentsAndBlankLines) {
  WriteFile("# SNAP header\n\n  \n0\t1\t0.5\n# trailing comment\n2 0 0.1\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 2u);
}

TEST_F(EdgeListIoTest, UndirectedModeAddsBothArcs) {
  WriteFile("0 1 0.5\n");
  EdgeListLoadOptions options;
  options.directed = false;
  Result<Graph> g = LoadEdgeList(path_, options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_edges(), 2u);
}

TEST_F(EdgeListIoTest, DefaultProbUsedWhenColumnMissing) {
  WriteFile("0 1\n1 2\n");
  EdgeListLoadOptions options;
  options.default_prob = 0.25;
  Result<Graph> g = LoadEdgeList(path_, options);
  ASSERT_TRUE(g.ok());
  EXPECT_FLOAT_EQ(g.value().OutProbs(0)[0], 0.25f);
}

TEST_F(EdgeListIoTest, UnweightedWhenNoDefaultProvided) {
  WriteFile("0 1\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_FLOAT_EQ(g.value().OutProbs(0)[0], 0.0f);
}

TEST_F(EdgeListIoTest, MissingFileIsIOError) {
  Result<Graph> g = LoadEdgeList("/nonexistent/path/to/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIOError());
}

TEST_F(EdgeListIoTest, MalformedLineIsInvalidArgument) {
  WriteFile("0 1 0.5\nnot an edge\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
  // The error message pinpoints the offending line.
  EXPECT_NE(g.status().message().find(":2"), std::string::npos);
}

TEST_F(EdgeListIoTest, NegativeNodeIdRejected) {
  WriteFile("-1 2 0.5\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST_F(EdgeListIoTest, ProbabilityAboveOneRejected) {
  for (const char* line : {"0 1 1.7\n", "0 1 inf\n"}) {
    WriteFile(line);
    Result<Graph> g = LoadEdgeList(path_);
    ASSERT_FALSE(g.ok()) << line;
    EXPECT_TRUE(g.status().IsInvalidArgument()) << line;
  }
}

TEST_F(EdgeListIoTest, NanProbabilityRejected) {
  // NaN passes both the "< 0" clamp and the "> 1" check, so it needs its
  // own rejection; the message names the file and line.
  for (const char* line : {"0 1 nan\n", "0 1 -nan\n"}) {
    WriteFile(std::string("1 2 0.5\n") + line);
    Result<Graph> g = LoadEdgeList(path_);
    ASSERT_FALSE(g.ok()) << line;
    EXPECT_TRUE(g.status().IsInvalidArgument()) << line;
    EXPECT_NE(g.status().message().find("NaN"), std::string::npos) << line;
    EXPECT_NE(g.status().message().find(path_ + ":2"), std::string::npos)
        << g.status().message();
  }
}

TEST_F(EdgeListIoTest, NanDefaultProbRejected) {
  WriteFile("0 1 0.5\n1 2\n");
  EdgeListLoadOptions options;
  options.default_prob = std::nan("");
  Result<Graph> g = LoadEdgeList(path_, options);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().message().find(path_ + ":2"), std::string::npos)
      << g.status().message();
}

TEST_F(EdgeListIoTest, SaveLoadRoundTripPreservesGraph) {
  const Graph original = MakePaperFigure1Graph();
  ASSERT_TRUE(SaveEdgeList(original, path_).ok());
  Result<Graph> loaded = LoadEdgeList(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.value().num_edges(), original.num_edges());
  const auto a = original.CollectEdges();
  const auto b = loaded.value().CollectEdges();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_NEAR(a[i].prob, b[i].prob, 1e-6);
  }
}

TEST_F(EdgeListIoTest, SaveToUnwritablePathIsIOError) {
  const Graph g = MakePathGraph(3, 0.5);
  Status s = SaveEdgeList(g, "/nonexistent_dir/out.txt");
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
}

TEST_F(EdgeListIoTest, EmptyFileYieldsEmptyGraph) {
  WriteFile("");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0u);
  EXPECT_EQ(g.value().num_edges(), 0u);
}

TEST_F(EdgeListIoTest, SaveLoadRoundTripIsBitExact) {
  // Probabilities chosen to have no short decimal representation; the
  // writer's max_digits10 formatting must reproduce every float bit.
  GraphBuilder builder;
  Rng rng(123);
  for (NodeId u = 0; u < 64; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      builder.AddEdge(u, (u + v + 1) % 64,
                      static_cast<float>(rng.UniformDouble()));
    }
  }
  const Graph original = builder.Build().value();
  ASSERT_TRUE(SaveEdgeList(original, path_).ok());
  Result<Graph> loaded = LoadEdgeList(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_edges(), original.num_edges());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    const auto a = original.OutProbs(u);
    const auto b = loaded.value().OutProbs(u);
    for (uint32_t j = 0; j < original.OutDegree(u); ++j) {
      ASSERT_EQ(a[j], b[j]) << "prob mismatch at " << u << "/" << j;
    }
  }
}

TEST_F(EdgeListIoTest, FinalLineWithoutNewlineParses) {
  WriteFile("0 1 0.5\n1 2 0.25");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_edges(), 2u);
  EXPECT_FLOAT_EQ(g.value().OutProbs(1)[0], 0.25f);
}

TEST_F(EdgeListIoTest, CrLfLineEndingsParse) {
  WriteFile("# header\r\n0 1 0.5\r\n1 2 0.25\r\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_edges(), 2u);
}

TEST_F(EdgeListIoTest, UnparsableProbabilityColumnRejected) {
  WriteFile("0 1 not_a_prob\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST_F(EdgeListIoTest, ExtraColumnsAfterProbabilityIgnored) {
  // SNAP exports often append timestamps or labels.
  WriteFile("0 1 0.5 1534291200 label\n");
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_FLOAT_EQ(g.value().OutProbs(0)[0], 0.5f);
}

TEST_F(EdgeListIoTest, LinesSpanningReaderBlocksParse) {
  // Enough edges that the file crosses the reader's block boundary many
  // times, with long comment padding to force partial-line carries.
  std::ostringstream content;
  const int kEdges = 150000;  // ~2 MB of text vs the 1 MB block size
  for (int i = 0; i < kEdges; ++i) {
    if (i % 1000 == 0) {
      content << "# " << std::string(257, 'x') << "\n";
    }
    content << i % 977 << ' ' << (i + 1) % 977 << ' ' << 0.125 << '\n';
  }
  WriteFile(content.str());
  Result<Graph> g = LoadEdgeList(path_);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 977u);
  // Duplicate (src, dst) pairs are deduplicated by the builder; every
  // surviving edge kept its probability.
  for (NodeId u = 0; u < g.value().num_nodes(); ++u) {
    for (float p : g.value().OutProbs(u)) ASSERT_EQ(p, 0.125f);
  }
}

}  // namespace
}  // namespace atpm
