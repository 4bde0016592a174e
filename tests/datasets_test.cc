#include "bench_util/datasets.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/graph_store.h"

namespace atpm {
namespace {

TEST(DatasetsTest, StandardNamesMatchTable2Order) {
  const std::vector<std::string> names = StandardDatasetNames();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "NetHEPT");
  EXPECT_EQ(names[1], "Epinions");
  EXPECT_EQ(names[2], "DBLP");
  EXPECT_EQ(names[3], "LiveJournal");
}

TEST(DatasetsTest, BuildsAllStandardDatasetsAtSmallScale) {
  for (const std::string& name : StandardDatasetNames()) {
    Result<BenchDataset> ds = BuildDataset(name, 0.05, 1);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status().ToString();
    EXPECT_GT(ds.value().graph.num_nodes(), 100u) << name;
    EXPECT_GT(ds.value().graph.num_edges(), 100u) << name;
  }
}

TEST(DatasetsTest, TypesMatchTable2) {
  EXPECT_EQ(BuildDataset("NetHEPT", 0.05, 1).value().type, "undirected");
  EXPECT_EQ(BuildDataset("Epinions", 0.05, 1).value().type, "directed");
  EXPECT_EQ(BuildDataset("DBLP", 0.05, 1).value().type, "undirected");
  EXPECT_EQ(BuildDataset("LiveJournal", 0.05, 1).value().type, "directed");
}

TEST(DatasetsTest, WeightedCascadeApplied) {
  Result<BenchDataset> ds = BuildDataset("HepMini", 0.5, 1);
  ASSERT_TRUE(ds.ok());
  const Graph& g = ds.value().graph;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto probs = g.InProbs(v);
    for (float p : probs) {
      EXPECT_NEAR(p, 1.0f / static_cast<float>(g.InDegree(v)), 1e-6);
    }
  }
}

TEST(DatasetsTest, ScaleShrinksGraph) {
  Result<BenchDataset> big = BuildDataset("NetHEPT", 1.0, 1);
  Result<BenchDataset> small = BuildDataset("NetHEPT", 0.1, 1);
  ASSERT_TRUE(big.ok() && small.ok());
  EXPECT_GT(big.value().graph.num_nodes(), small.value().graph.num_nodes());
}

TEST(DatasetsTest, DeterministicGivenSeed) {
  Result<BenchDataset> a = BuildDataset("Epinions", 0.05, 42);
  Result<BenchDataset> b = BuildDataset("Epinions", 0.05, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().graph.num_nodes(), b.value().graph.num_nodes());
  EXPECT_EQ(a.value().graph.num_edges(), b.value().graph.num_edges());
}

TEST(DatasetsTest, UnknownNameIsNotFound) {
  Result<BenchDataset> ds = BuildDataset("Twitter", 0.5, 1);
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsNotFound());
}

TEST(DatasetsTest, RejectsBadScale) {
  EXPECT_FALSE(BuildDataset("NetHEPT", 0.0, 1).ok());
  EXPECT_FALSE(BuildDataset("NetHEPT", 1.5, 1).ok());
  EXPECT_FALSE(BuildDataset("NetHEPT", std::nan(""), 1).ok());
}

TEST(DatasetsTest, LiveJournalIsLargest) {
  const double scale = 0.3;
  uint64_t lj_edges =
      BuildDataset("LiveJournal", scale, 1).value().graph.num_edges();
  for (const char* name : {"NetHEPT", "Epinions", "DBLP"}) {
    EXPECT_GT(lj_edges,
              BuildDataset(name, scale, 1).value().graph.num_edges())
        << name;
  }
}

TEST(BenchEnvTest, ScaleParsesAndClamps) {
  setenv("ATPM_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 0.5);
  setenv("ATPM_BENCH_SCALE", "7.0", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
  setenv("ATPM_BENCH_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 0.2);  // default
  unsetenv("ATPM_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 0.2);
}

TEST(BenchEnvTest, RealizationsParsesAndClamps) {
  setenv("ATPM_BENCH_REALIZATIONS", "20", 1);
  EXPECT_EQ(BenchRealizationsFromEnv(), 20u);
  setenv("ATPM_BENCH_REALIZATIONS", "0", 1);
  EXPECT_EQ(BenchRealizationsFromEnv(), 1u);
  // NaN is not a count: the default stands.
  setenv("ATPM_BENCH_REALIZATIONS", "nan", 1);
  EXPECT_EQ(BenchRealizationsFromEnv(), 2u);
  setenv("ATPM_BENCH_REALIZATIONS", "inf", 1);
  EXPECT_EQ(BenchRealizationsFromEnv(), 2u);
  unsetenv("ATPM_BENCH_REALIZATIONS");
  EXPECT_EQ(BenchRealizationsFromEnv(), 2u);
}

TEST(BenchEnvTest, KMaxAndGrid) {
  setenv("ATPM_BENCH_K_MAX", "100", 1);
  EXPECT_EQ(BenchKMaxFromEnv(), 100u);
  std::vector<uint32_t> grid = BenchSeedGrid(1000);
  ASSERT_EQ(grid.size(), 4u);  // 10, 25, 50, 100
  EXPECT_EQ(grid.back(), 100u);
  // The dataset limit truncates further.
  grid = BenchSeedGrid(30);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.back(), 25u);
  setenv("ATPM_BENCH_K_MAX", "-nan", 1);
  EXPECT_EQ(BenchKMaxFromEnv(), 200u);
  unsetenv("ATPM_BENCH_K_MAX");
}

TEST(BenchEnvTest, GridNeverEmpty) {
  setenv("ATPM_BENCH_K_MAX", "5", 1);
  std::vector<uint32_t> grid = BenchSeedGrid(1000);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0], 5u);
  unsetenv("ATPM_BENCH_K_MAX");
}

TEST(BenchEnvTest, ThreadsParses) {
  setenv("ATPM_BENCH_THREADS", "4", 1);
  EXPECT_EQ(BenchThreadsFromEnv(), 4u);
  // Only a whole token counts: trailing garbage or whitespace falls back.
  setenv("ATPM_BENCH_THREADS", "4abc", 1);
  EXPECT_EQ(BenchThreadsFromEnv(), 8u);
  setenv("ATPM_BENCH_THREADS", " 4", 1);
  EXPECT_EQ(BenchThreadsFromEnv(), 8u);
  unsetenv("ATPM_BENCH_THREADS");
  EXPECT_EQ(BenchThreadsFromEnv(), 8u);
}

TEST(StoreCacheTest, PathEmptyWithoutEnvAndKeyedWithIt) {
  unsetenv("ATPM_BENCH_STORE_DIR");
  EXPECT_EQ(DatasetStorePath("NetHEPT", 0.05, 1), "");
  setenv("ATPM_BENCH_STORE_DIR", "/tmp/atpm_cache", 1);
  const std::string path = DatasetStorePath("NetHEPT", 0.05, 7);
  EXPECT_NE(path.find("/tmp/atpm_cache/NetHEPT"), std::string::npos);
  EXPECT_NE(path.find("s0.05"), std::string::npos);
  EXPECT_NE(path.find("seed7"), std::string::npos);
  // Keyed on the store format version, so a version bump repacks.
  EXPECT_NE(path.find("_v" + std::to_string(kGraphStoreVersion) + ".atpm"),
            std::string::npos);
  unsetenv("ATPM_BENCH_STORE_DIR");
}

TEST(StoreCacheTest, SecondBuildMapsFromCacheIdentically) {
  const std::string dir = ::testing::TempDir() + "/atpm_ds_cache_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  setenv("ATPM_BENCH_STORE_DIR", dir.c_str(), 1);
  Result<BenchDataset> first = BuildDataset("HepMini", 0.05, 3);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().graph.is_mapped());  // built, then packed

  Result<BenchDataset> second = BuildDataset("HepMini", 0.05, 3);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().graph.is_mapped());  // served from the store

  const Graph& a = first.value().graph;
  const Graph& b = second.value().graph;
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto an = a.InNeighbors(v);
    const auto bn = b.InNeighbors(v);
    ASSERT_EQ(an.size(), bn.size()) << v;
    for (uint32_t j = 0; j < an.size(); ++j) {
      ASSERT_EQ(an[j], bn[j]);
      ASSERT_EQ(a.InProbs(v)[j], b.InProbs(v)[j]);
    }
  }
  std::remove(DatasetStorePath("HepMini", 0.05, 3).c_str());
  unsetenv("ATPM_BENCH_STORE_DIR");
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace atpm
