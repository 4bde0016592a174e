// Tests for the linear threshold (LT) model support: forward simulation,
// triggering-set realizations, LT RR sets, and the TPM algorithms running
// end-to-end under LT.
#include <gtest/gtest.h>

#include <vector>

#include "core/hatp.h"
#include "diffusion/ic_model.h"
#include "diffusion/realization.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

TEST(GraphInEdgeIndexTest, MatchesForwardIndex) {
  const Graph g = MakePaperFigure1Graph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto in_neigh = g.InNeighbors(v);
    for (uint32_t j = 0; j < in_neigh.size(); ++j) {
      const uint64_t idx = g.InEdgeIndex(v, j);
      // The forward slot at that index points back to (u, v).
      const NodeId u = in_neigh[j];
      bool found = false;
      const auto out_neigh = g.OutNeighbors(u);
      for (uint32_t l = 0; l < out_neigh.size(); ++l) {
        if (g.OutEdgeIndex(u, l) == idx) {
          EXPECT_EQ(out_neigh[l], v);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "in-edge (" << u << "," << v << ")";
    }
  }
}

TEST(SimulateLtTest, SingleInEdgeChainMatchesIc) {
  // With in-degrees <= 1, LT and IC coincide: activation prob = p.
  const Graph g = MakePathGraph(2, 0.3);
  Rng rng(1);
  int64_t total = 0;
  const int trials = 200000;
  std::vector<NodeId> seeds = {0};
  for (int t = 0; t < trials; ++t) total += SimulateLT(g, seeds, &rng);
  EXPECT_NEAR(static_cast<double>(total) / trials, 1.3, 0.01);
}

TEST(SimulateLtTest, DeterministicAtProbabilityOne) {
  const Graph g = MakePathGraph(5, 1.0);
  Rng rng(1);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateLT(g, seeds, &rng), 5u);
}

TEST(SimulateLtTest, JointInfluenceIsSubadditiveVsIc) {
  // Two sources u1, u2 -> v with p = 0.5 each. IC: P(v) = 1-(1-.5)^2 =
  // 0.75; LT: P(v) = min(1, 0.5+0.5) = 1 when both active. Verify the LT
  // closed form.
  GraphBuilder b;
  b.AddEdge(0, 2, 0.5);
  b.AddEdge(1, 2, 0.5);
  Graph g = b.Build().value();
  Rng rng(2);
  std::vector<NodeId> seeds = {0, 1};
  int64_t total = 0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) total += SimulateLT(g, seeds, &rng);
  EXPECT_NEAR(static_cast<double>(total) / trials, 3.0, 0.01);
}

TEST(SimulateLtTest, SingleSourceActivatesWithEdgeProbability) {
  GraphBuilder b;
  b.AddEdge(0, 2, 0.3);
  b.AddEdge(1, 2, 0.5);
  Graph g = b.Build().value();
  Rng rng(3);
  std::vector<NodeId> seeds = {0};  // only the 0.3 source is active
  int64_t total = 0;
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) total += SimulateLT(g, seeds, &rng);
  EXPECT_NEAR(static_cast<double>(total) / trials, 1.3, 0.01);
}

TEST(SimulateLtTest, RespectsRemovedMask) {
  const Graph g = MakePathGraph(5, 1.0);
  Rng rng(4);
  BitVector removed(5);
  removed.Set(2);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateLT(g, seeds, &rng, &removed), 2u);
}

TEST(LtRealizationTest, EachNodeKeepsAtMostOneInEdge) {
  Rng rng(5);
  Graph g = MakeCompleteGraph(12, 0.0);
  ApplyWeightedCascade(&g);  // sum of in-probs = 1 per node
  for (int t = 0; t < 20; ++t) {
    Realization world =
        Realization::Sample(g, &rng, DiffusionModel::kLinearThreshold);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      // Count live incoming edges via the global edge bitmap.
      uint32_t live_in = 0;
      for (uint32_t j = 0; j < g.InDegree(v); ++j) {
        const uint64_t idx = g.InEdgeIndex(v, j);
        // Map back through the forward view to query IsLive.
        const NodeId u = g.InNeighbors(v)[j];
        const auto out_neigh = g.OutNeighbors(u);
        for (uint32_t l = 0; l < out_neigh.size(); ++l) {
          if (g.OutEdgeIndex(u, l) == idx && world.IsLive(u, l)) ++live_in;
        }
      }
      EXPECT_LE(live_in, 1u) << "node " << v;
    }
  }
}

TEST(LtRealizationTest, AverageSpreadMatchesForwardSimulation) {
  Rng rng(6);
  Graph g = MakeCompleteGraph(10, 0.0);
  ApplyWeightedCascade(&g);

  std::vector<NodeId> seeds = {0, 1};
  const int trials = 60000;
  double world_total = 0.0;
  double forward_total = 0.0;
  for (int t = 0; t < trials; ++t) {
    Realization world =
        Realization::Sample(g, &rng, DiffusionModel::kLinearThreshold);
    world_total += world.Spread(seeds);
    forward_total += SimulateLT(g, seeds, &rng);
  }
  EXPECT_NEAR(world_total / trials, forward_total / trials, 0.06);
}

TEST(LtRrSetTest, DualityAgainstForwardSimulation) {
  // Pr[u in RR_LT(random root)] = E_LT[I({u})] / n.
  Rng rng(7);
  Graph g = MakeCompleteGraph(8, 0.0);
  ApplyWeightedCascade(&g);

  RRSetGenerator generator(g, DiffusionModel::kLinearThreshold);
  const int trials = 200000;
  std::vector<int> membership(g.num_nodes(), 0);
  std::vector<NodeId> rr;
  for (int t = 0; t < trials; ++t) {
    generator.Generate(nullptr, g.num_nodes(), &rng, &rr);
    for (NodeId v : rr) ++membership[v];
  }

  Rng fwd_rng(8);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> seeds = {u};
    double spread = 0.0;
    for (int t = 0; t < 50000; ++t) {
      spread += SimulateLT(g, seeds, &fwd_rng);
    }
    spread /= 50000.0;
    EXPECT_NEAR(static_cast<double>(membership[u]) / trials,
                spread / g.num_nodes(), 0.01)
        << "node " << u;
  }
}

TEST(LtRrSetTest, CountCoveringMatchesStoredGeneration) {
  Rng rng(9);
  Graph g = MakeCompleteGraph(10, 0.0);
  ApplyWeightedCascade(&g);

  const uint64_t theta = 100000;
  RRSetGenerator count_gen(g, DiffusionModel::kLinearThreshold);
  Rng count_rng(10);
  const uint64_t counted = count_gen.CountCovering(
      nullptr, g.num_nodes(), theta, 0, nullptr, &count_rng);

  RRSetGenerator full_gen(g, DiffusionModel::kLinearThreshold);
  Rng full_rng(11);
  std::vector<NodeId> rr;
  uint64_t expected = 0;
  for (uint64_t t = 0; t < theta; ++t) {
    full_gen.Generate(nullptr, g.num_nodes(), &full_rng, &rr);
    for (NodeId v : rr) {
      if (v == 0) {
        ++expected;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(counted) / theta,
              static_cast<double>(expected) / theta, 0.01);
}

TEST(LtEndToEndTest, HatpRunsUnderLinearThreshold) {
  Rng graph_rng(12);
  BarabasiAlbertOptions ba;
  ba.num_nodes = 300;
  ba.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(ba, &graph_rng).value();
  ApplyWeightedCascade(&g);

  ProfitProblem problem;
  problem.graph = &g;
  problem.targets = {0, 1, 2, 3, 4};
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId t : problem.targets) problem.costs[t] = 1.0;

  Rng world_rng(13);
  AdaptiveEnvironment env(
      Realization::Sample(g, &world_rng, DiffusionModel::kLinearThreshold));
  HatpOptions options;
  options.model = DiffusionModel::kLinearThreshold;
  options.sampling.max_rr_sets_per_decision = 1ull << 16;
  HatpPolicy policy(options);
  Rng rng(14);
  Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Sanity: the run is internally consistent and selected something (the
  // early BA nodes are hubs with cost 1).
  EXPECT_EQ(run.value().realized_spread, env.num_activated());
  EXPECT_FALSE(run.value().seeds.empty());
}

// --- SpreadOracle parity under LT: every oracle honors the model knob. ---

TEST(LtSpreadOracleTest, ExactOracleMatchesChainClosedForm) {
  // Path 0 -> 1 with p = 0.3: in-degrees <= 1, so LT == IC and
  // E[I({0})] = 1 + 0.3.
  const Graph g = MakePathGraph(2, 0.3);
  auto oracle = ExactSpreadOracle::Create(g, /*max_edges=*/24,
                                          DiffusionModel::kLinearThreshold);
  ASSERT_TRUE(oracle.ok());
  std::vector<NodeId> seeds = {0};
  EXPECT_NEAR(oracle.value()->ExpectedSpread(seeds, nullptr), 1.3, 1e-6);
}

TEST(LtSpreadOracleTest, ExactOracleJointInfluenceClosedForm) {
  // Two sources with p = 0.5 each into node 2: under LT the joint
  // activation probability is min(1, 0.5 + 0.5) = 1, so E[I({0,1})] = 3
  // (the IC oracle would give 2.75).
  GraphBuilder b;
  b.AddEdge(0, 2, 0.5);
  b.AddEdge(1, 2, 0.5);
  Graph g = b.Build().value();
  auto lt = ExactSpreadOracle::Create(g, 24, DiffusionModel::kLinearThreshold);
  auto ic = ExactSpreadOracle::Create(g, 24);
  ASSERT_TRUE(lt.ok() && ic.ok());
  std::vector<NodeId> seeds = {0, 1};
  EXPECT_NEAR(lt.value()->ExpectedSpread(seeds, nullptr), 3.0, 1e-6);
  EXPECT_NEAR(ic.value()->ExpectedSpread(seeds, nullptr), 2.75, 1e-6);
}

TEST(LtSpreadOracleTest, MonteCarloMatchesExactOnSmallGraph) {
  Rng rng(15);
  Graph g = MakeCompleteGraph(5, 0.0);
  ApplyWeightedCascade(&g);

  auto exact =
      ExactSpreadOracle::Create(g, 24, DiffusionModel::kLinearThreshold);
  ASSERT_TRUE(exact.ok());

  MonteCarloOptions mc_options;
  mc_options.model = DiffusionModel::kLinearThreshold;
  mc_options.num_samples = 200000;
  mc_options.seed = 16;
  MonteCarloSpreadOracle mc(g, mc_options);

  std::vector<NodeId> seeds = {0, 2};
  const double want = exact.value()->ExpectedSpread(seeds, nullptr);
  EXPECT_NEAR(mc.ExpectedSpread(seeds, nullptr), want, 0.02);

  // Marginal query (common random numbers) agrees with the exact marginal.
  std::vector<NodeId> base = {0};
  const double want_marginal =
      exact.value()->ExpectedSpread(seeds, nullptr) -
      exact.value()->ExpectedSpread(base, nullptr);
  EXPECT_NEAR(mc.ExpectedMarginalSpread(2, base, nullptr), want_marginal,
              0.02);
}

TEST(LtSpreadOracleTest, MonteCarloRespectsRemovedMask) {
  const Graph g = MakePathGraph(5, 1.0);
  MonteCarloOptions mc_options;
  mc_options.model = DiffusionModel::kLinearThreshold;
  mc_options.num_samples = 200;
  MonteCarloSpreadOracle mc(g, mc_options);
  BitVector removed(5);
  removed.Set(2);
  std::vector<NodeId> seeds = {0};
  EXPECT_NEAR(mc.ExpectedSpread(seeds, &removed), 2.0, 1e-9);
}

TEST(LtSpreadOracleTest, RisOracleMatchesExactUnderLt) {
  // End-to-end LT path through the sampling substrate: a RisSpreadOracle
  // over an LT SamplingEngine reproduces the exact LT expected spread.
  Rng rng(17);
  Graph g = MakeCompleteGraph(6, 0.0);
  ApplyWeightedCascade(&g);

  auto exact =
      ExactSpreadOracle::Create(g, 30, DiffusionModel::kLinearThreshold);
  ASSERT_TRUE(exact.ok());

  SerialSamplingEngine engine(g, DiffusionModel::kLinearThreshold);
  RisOracleOptions ris_options;
  ris_options.num_rr_sets = 1u << 17;
  ris_options.seed = 18;
  RisSpreadOracle ris(&engine, ris_options);

  std::vector<NodeId> seeds = {1, 4};
  EXPECT_NEAR(ris.ExpectedSpread(seeds, nullptr),
              exact.value()->ExpectedSpread(seeds, nullptr), 0.05);
}

TEST(LtSamplingEngineTest, ParallelCountAgreesWithSerialUnderLt) {
  Rng graph_rng(19);
  BarabasiAlbertOptions ba;
  ba.num_nodes = 400;
  ba.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(ba, &graph_rng).value();
  ApplyWeightedCascade(&g);

  const uint64_t theta = 100000;
  Rng serial_rng(20);
  SerialSamplingEngine serial(g, DiffusionModel::kLinearThreshold);
  const double p_serial =
      static_cast<double>(CountOne(serial, 0, nullptr, nullptr, g.num_nodes(),
                                   theta, serial_rng.Next())) /
      static_cast<double>(theta);

  Rng parallel_rng(21);
  ParallelSamplingEngine parallel(g, DiffusionModel::kLinearThreshold, 4);
  const double p_parallel =
      static_cast<double>(CountOne(parallel, 0, nullptr, nullptr, g.num_nodes(),
                                   theta, parallel_rng.Next())) /
      static_cast<double>(theta);
  EXPECT_NEAR(p_serial, p_parallel, 0.01);
}

TEST(DiffusionModelTest, Names) {
  EXPECT_STREQ(DiffusionModelName(DiffusionModel::kIndependentCascade),
               "IC");
  EXPECT_STREQ(DiffusionModelName(DiffusionModel::kLinearThreshold), "LT");
}

}  // namespace
}  // namespace atpm
