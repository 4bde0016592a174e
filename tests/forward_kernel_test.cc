// Forward diffusion paths: jump-kernel worlds agree statistically with the
// per-edge sweep across weightings and models, degenerate probabilities
// resolve exactly, world sampling charges draws under both kernels,
// SimulateIC / kPerEdge worlds reproduce the pre-kernel forward streams
// (goldens captured on the release that preceded the default flip), and
// every forward cascade rule keeps its pinned outcome, order and charge.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "diffusion/ic_model.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "graph/weighting.h"
#include "rris/sampling_stats.h"

namespace atpm {
namespace {

enum class Weighting { kWeightedCascade, kTrivalency, kUniformRandom };

Graph TestGraph(NodeId n, Weighting weighting, uint32_t edges_per_node = 2) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = edges_per_node;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  switch (weighting) {
    case Weighting::kWeightedCascade:
      ApplyWeightedCascade(&g);
      break;
    case Weighting::kTrivalency: {
      Rng wrng(99);
      ApplyTrivalency(&g, &wrng);
      break;
    }
    case Weighting::kUniformRandom: {
      Rng wrng(17);
      ApplyUniformRandomProbability(&g, 0.05, 0.5, &wrng);
      break;
    }
  }
  return g;
}

const std::vector<NodeId> kSeeds = {0, 1, 2, 3, 4};

// --- Statistical agreement: the kernels consume different RNG streams but
// must estimate the same expected spread. Mean over kTrials simulations,
// compared within 3 sigma of the combined standard error.

struct MeanVar {
  double mean = 0.0;
  double stderr2 = 0.0;  // squared standard error of the mean
};

template <typename SampleFn>
MeanVar EstimateMean(int trials, SampleFn sample) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    const double x = sample(t);
    sum += x;
    sum_sq += x * x;
  }
  const double n = static_cast<double>(trials);
  MeanVar mv;
  mv.mean = sum / n;
  const double var = (sum_sq - sum * sum / n) / (n - 1.0);
  mv.stderr2 = var / n;
  return mv;
}

void ExpectAgreement(const MeanVar& a, const MeanVar& b, const char* label) {
  const double sigma = std::sqrt(a.stderr2 + b.stderr2);
  EXPECT_LE(std::abs(a.mean - b.mean), 3.0 * sigma + 1e-9)
      << label << ": " << a.mean << " vs " << b.mean << " (sigma " << sigma
      << ")";
}

class KernelAgreementTest : public ::testing::TestWithParam<Weighting> {};

TEST_P(KernelAgreementTest, IcWorldSpreadsAgree) {
  const Graph g = TestGraph(500, GetParam());
  constexpr int kTrials = 1500;
  Rng rng_jump(19);
  const MeanVar jump = EstimateMean(kTrials, [&](int) {
    const Realization w = Realization::Sample(
        g, &rng_jump, DiffusionModel::kIndependentCascade,
        SamplingKernel::kGeometricJump);
    return static_cast<double>(w.Spread(kSeeds));
  });
  Rng rng_edge(23);
  const MeanVar edge = EstimateMean(kTrials, [&](int) {
    const Realization w =
        Realization::Sample(g, &rng_edge, DiffusionModel::kIndependentCascade,
                            SamplingKernel::kPerEdge);
    return static_cast<double>(w.Spread(kSeeds));
  });
  ExpectAgreement(jump, edge, "IC world");
}

TEST_P(KernelAgreementTest, LtWorldSpreadsAgree) {
  const Graph g = TestGraph(500, GetParam());
  constexpr int kTrials = 1500;
  Rng rng_jump(29);
  const MeanVar jump = EstimateMean(kTrials, [&](int) {
    const Realization w = Realization::Sample(
        g, &rng_jump, DiffusionModel::kLinearThreshold,
        SamplingKernel::kGeometricJump);
    return static_cast<double>(w.Spread(kSeeds));
  });
  Rng rng_edge(31);
  const MeanVar edge = EstimateMean(kTrials, [&](int) {
    const Realization w =
        Realization::Sample(g, &rng_edge, DiffusionModel::kLinearThreshold,
                            SamplingKernel::kPerEdge);
    return static_cast<double>(w.Spread(kSeeds));
  });
  ExpectAgreement(jump, edge, "LT world");
}

INSTANTIATE_TEST_SUITE_P(Weightings, KernelAgreementTest,
                         ::testing::Values(Weighting::kWeightedCascade,
                                           Weighting::kTrivalency,
                                           Weighting::kUniformRandom),
                         [](const auto& info) {
                           switch (info.param) {
                             case Weighting::kWeightedCascade:
                               return "WeightedCascade";
                             case Weighting::kTrivalency:
                               return "Trivalency";
                             case Weighting::kUniformRandom:
                               return "UniformRandom";
                           }
                           return "Unknown";
                         });

// --- Degenerate probabilities: p in {0, 1} resolves without consulting
// the probability (certain / impossible edges), so both world kernels must
// agree EXACTLY, not just in distribution.

TEST(DegenerateProbabilityTest, CertainEdgesSpreadIdentically) {
  Graph g = TestGraph(300, Weighting::kWeightedCascade);
  ApplyConstantProbability(&g, 1.0);
  g.RebuildWeightIndex();
  Rng wa(5);
  Rng wb(6);  // streams don't matter: no coin is random
  const Realization a = Realization::Sample(
      g, &wa, DiffusionModel::kIndependentCascade,
      SamplingKernel::kGeometricJump);
  const Realization b =
      Realization::Sample(g, &wb, DiffusionModel::kIndependentCascade,
                          SamplingKernel::kPerEdge);
  EXPECT_EQ(a.NumLiveEdges(), g.num_edges());
  EXPECT_EQ(b.NumLiveEdges(), g.num_edges());
}

TEST(DegenerateProbabilityTest, ImpossibleEdgesSpreadIdentically) {
  Graph g = TestGraph(300, Weighting::kWeightedCascade);
  ApplyConstantProbability(&g, 0.0);
  g.RebuildWeightIndex();
  Rng wa(5);
  const Realization a = Realization::Sample(
      g, &wa, DiffusionModel::kIndependentCascade,
      SamplingKernel::kGeometricJump);
  EXPECT_EQ(a.NumLiveEdges(), 0u);
}

// --- World-sampling draws: both kernels charge identical
// edges_examined, so DrawsPerEdge is comparable.

TEST(ForwardDrawsTest, WorldSamplingTracksDrawsBothKernels) {
  const Graph g = TestGraph(1000, Weighting::kWeightedCascade);
  SamplingStats jump_stats;
  Rng rng_jump(47);
  Realization::Sample(g, &rng_jump, DiffusionModel::kIndependentCascade,
                      SamplingKernel::kGeometricJump, &jump_stats);
  SamplingStats edge_stats;
  Rng rng_edge(53);
  Realization::Sample(g, &rng_edge, DiffusionModel::kIndependentCascade,
                      SamplingKernel::kPerEdge, &edge_stats);
  // Every edge charges one edges_examined under either kernel.
  EXPECT_EQ(jump_stats.edges_examined, g.num_edges());
  EXPECT_EQ(edge_stats.edges_examined, g.num_edges());
  // Per-edge flips one coin per edge; the jump sweep does strictly better
  // on weighted cascade (its in-vectors are uniform: one geometric draw
  // per live edge).
  EXPECT_EQ(edge_stats.rng_draws, g.num_edges());
  EXPECT_LT(jump_stats.rng_draws, edge_stats.rng_draws);
}

// --- kPerEdge bit-compatibility: the forward streams must reproduce the
// pre-kernel release exactly. Goldens captured on BA(300, epn=2, seed 7)
// immediately before the default flip.

Graph GoldenWcGraph() { return TestGraph(300, Weighting::kWeightedCascade); }
Graph GoldenTriGraph() { return TestGraph(300, Weighting::kTrivalency); }

TEST(PerEdgeForwardGoldenTest, WcSimulateIcMatchesPreKernelStream) {
  const Graph g = GoldenWcGraph();
  const uint32_t expected[8] = {72, 67, 62, 72, 51, 65, 66, 65};
  Rng rng(123);
  for (uint32_t want : expected) {
    EXPECT_EQ(SimulateIC(g, kSeeds, &rng), want);
  }
}

TEST(PerEdgeForwardGoldenTest, WcSimulateLtMatchesPreKernelStream) {
  // SimulateLT draws one lazy threshold per touched node under every
  // release, so the stream is inherently stable.
  const Graph g = GoldenWcGraph();
  const uint32_t expected[8] = {66, 71, 64, 125, 87, 65, 86, 79};
  Rng rng(125);
  for (uint32_t want : expected) {
    EXPECT_EQ(SimulateLT(g, kSeeds, &rng), want);
  }
}

TEST(PerEdgeForwardGoldenTest, WcIcWorldsMatchPreKernelStream) {
  const Graph g = GoldenWcGraph();
  const size_t expected_live[2] = {317, 302};
  const uint32_t expected_spread[2] = {76, 50};
  Rng rng(42);
  for (int i = 0; i < 2; ++i) {
    const Realization w =
        Realization::Sample(g, &rng, DiffusionModel::kIndependentCascade,
                            SamplingKernel::kPerEdge);
    EXPECT_EQ(w.NumLiveEdges(), expected_live[i]);
    EXPECT_EQ(w.Spread(kSeeds), expected_spread[i]);
  }
}

TEST(PerEdgeForwardGoldenTest, WcLtWorldsMatchPreKernelStream) {
  const Graph g = GoldenWcGraph();
  const size_t expected_live[2] = {300, 300};
  const uint32_t expected_spread[2] = {74, 128};
  Rng rng(43);
  for (int i = 0; i < 2; ++i) {
    const Realization w =
        Realization::Sample(g, &rng, DiffusionModel::kLinearThreshold,
                            SamplingKernel::kPerEdge);
    EXPECT_EQ(w.NumLiveEdges(), expected_live[i]);
    EXPECT_EQ(w.Spread(kSeeds), expected_spread[i]);
  }
}

TEST(PerEdgeForwardGoldenTest, TriSimulateIcMatchesPreKernelStream) {
  const Graph g = GoldenTriGraph();
  const uint32_t expected[8] = {10, 7, 10, 8, 8, 10, 7, 8};
  Rng rng(123);
  for (uint32_t want : expected) {
    EXPECT_EQ(SimulateIC(g, kSeeds, &rng), want);
  }
}

TEST(PerEdgeForwardGoldenTest, TriIcWorldsMatchPreKernelStream) {
  const Graph g = GoldenTriGraph();
  const size_t expected_live[2] = {47, 35};
  const uint32_t expected_spread[2] = {11, 9};
  Rng rng(42);
  for (int i = 0; i < 2; ++i) {
    const Realization w =
        Realization::Sample(g, &rng, DiffusionModel::kIndependentCascade,
                            SamplingKernel::kPerEdge);
    EXPECT_EQ(w.NumLiveEdges(), expected_live[i]);
    EXPECT_EQ(w.Spread(kSeeds), expected_spread[i]);
  }
}

// --- Traversal pins: every forward cascade (random coin, lazy random
// threshold, hashed coin, hashed threshold, live-edge bit) reproduces its
// exact outcome, activation order and SamplingStats charge at fixed seeds
// and salts, with and without a removed mask. Captured before the five
// spread functions shared one cascade loop.

// Every fifth node removed, seed 4 among them.
BitVector EveryFifthRemoved(const Graph& g) {
  BitVector removed(g.num_nodes());
  for (NodeId v = 4; v < g.num_nodes(); v += 5) removed.Set(v);
  return removed;
}

TEST(ForwardTraversalPinTest, HashedIcSpreadsArePinned) {
  const Graph g = GoldenWcGraph();
  const BitVector removed = EveryFifthRemoved(g);
  const uint32_t expected[6] = {80, 76, 71, 109, 56, 61};
  const uint32_t expected_removed[6] = {44, 26, 36, 48, 25, 40};
  for (uint64_t salt = 1; salt <= 6; ++salt) {
    EXPECT_EQ(SpreadInHashedWorld(g, kSeeds, salt), expected[salt - 1]);
    EXPECT_EQ(SpreadInHashedWorld(g, kSeeds, salt, &removed),
              expected_removed[salt - 1]);
  }
}

TEST(ForwardTraversalPinTest, HashedLtSpreadsArePinned) {
  const Graph g = GoldenWcGraph();
  const BitVector removed = EveryFifthRemoved(g);
  const uint32_t expected[6] = {139, 131, 84, 127, 73, 97};
  const uint32_t expected_removed[6] = {84, 43, 39, 50, 39, 51};
  for (uint64_t salt = 1; salt <= 6; ++salt) {
    EXPECT_EQ(SpreadInHashedWorldLt(g, kSeeds, salt), expected[salt - 1]);
    EXPECT_EQ(SpreadInHashedWorldLt(g, kSeeds, salt, &removed),
              expected_removed[salt - 1]);
  }
}

TEST(ForwardTraversalPinTest, RealizationReachedOrderIsPinned) {
  const Graph g = GoldenTriGraph();
  Rng rng(42);
  const Realization w =
      Realization::Sample(g, &rng, DiffusionModel::kIndependentCascade,
                          SamplingKernel::kPerEdge);
  std::vector<NodeId> reached;
  EXPECT_EQ(w.Spread(kSeeds, nullptr, &reached), 11u);
  EXPECT_EQ(reached,
            std::vector<NodeId>({0, 1, 2, 3, 4, 23, 279, 86, 273, 9, 120}));
  const BitVector removed = EveryFifthRemoved(g);
  reached.clear();
  EXPECT_EQ(w.Spread(kSeeds, &removed, &reached), 7u);
  EXPECT_EQ(reached, std::vector<NodeId>({0, 1, 2, 3, 23, 86, 120}));
}

TEST(ForwardTraversalPinTest, SimulatedActivationOrderAndChargesArePinned) {
  const Graph tri = GoldenTriGraph();
  const BitVector removed = EveryFifthRemoved(tri);
  Rng rng(123);
  SamplingStats stats;
  std::vector<NodeId> activated;
  EXPECT_EQ(SimulateIC(tri, kSeeds, &rng, &removed, &activated, &stats), 9u);
  EXPECT_EQ(activated,
            std::vector<NodeId>({0, 1, 2, 3, 23, 120, 17, 86, 137}));
  EXPECT_EQ(stats.rng_draws, 94u);
  EXPECT_EQ(stats.edges_examined, 137u);

  const Graph wc = GoldenWcGraph();
  const std::vector<NodeId> seed = {7};
  rng = Rng(125);
  stats = SamplingStats();
  activated.clear();
  EXPECT_EQ(SimulateLT(wc, seed, &rng, &removed, &activated, &stats), 7u);
  EXPECT_EQ(activated, std::vector<NodeId>({7, 46, 85, 98, 193, 247, 53}));
  EXPECT_EQ(stats.rng_draws, 27u);
  EXPECT_EQ(stats.edges_examined, 42u);
}

}  // namespace
}  // namespace atpm
