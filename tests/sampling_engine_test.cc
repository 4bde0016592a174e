// Tests for the SamplingEngine layer: the chunk-stream rule against the
// raw generator, member-restricted fills against unrestricted ones,
// invariance across thread counts and thresholds, failure accounting,
// statistical agreement, shard merging, and EPT accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bit_vector.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "rris/coverage_batch.h"
#include "graph/weighting.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

Graph TestGraph(NodeId n) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = 3;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  ApplyWeightedCascade(&g);
  return g;
}

void ExpectSamePools(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (uint64_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.set(i);
    const auto sb = b.set(i);
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    for (size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j], sb[j]) << "set " << i << " slot " << j;
    }
  }
}

// (a) The stream rule: chunk c of a batch draws from Rng(SplitSeed(seed,
// c)). The serial engine replays it on the raw generator bit for bit.

TEST(SerialSamplingEngineTest, OneChunkBatchIsTheChunkZeroStream) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  const uint64_t sets = ParallelSamplingEngine::kChunkSets;

  // A fill takes one draw from the caller's stream as its seed.
  Rng engine_rng(77);
  SerialSamplingEngine engine(g);
  const RRCollection& pool =
      FillPool(engine, nullptr, g.num_nodes(), sets, &engine_rng);
  Rng reference_rng(77);
  Rng chunk_zero(SplitSeed(reference_rng.Next(), 0));
  RRSetGenerator generator(g);
  RRCollection reference(g.num_nodes());
  const uint64_t edges =
      reference.Generate(&generator, nullptr, g.num_nodes(), sets, &chunk_zero);
  ExpectSamePools(pool, reference);
  EXPECT_EQ(engine.total_edges_examined(), edges);
  EXPECT_EQ(engine_rng.Next(), reference_rng.Next());

  Rng count_stream(SplitSeed(5, 0));
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), sets, 5),
            generator.CountCovering(nullptr, g.num_nodes(), sets, 0, &base,
                                    &count_stream));
}

TEST(SerialSamplingEngineTest, PoolBitIdenticalToChunkedRawGenerator) {
  const Graph g = TestGraph(300);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 40; ++v) removed.Set(v);
  for (const BitVector* residual : {static_cast<BitVector*>(nullptr),
                                    &removed}) {
    const uint32_t alive = g.num_nodes() - (residual != nullptr ? 40 : 0);
    Rng engine_rng(78);
    SerialSamplingEngine engine(g);
    const RRCollection& engine_pool =
        FillPool(engine, residual, alive, 2500, &engine_rng);

    Rng reference_rng(78);
    RRSetGenerator generator(g);
    RRCollection reference(g.num_nodes());
    const uint64_t edges = ChunkedReferencePool(
        &generator, residual, alive, 2500, reference_rng.Next(), &reference);
    ExpectSamePools(engine_pool, reference);
    EXPECT_EQ(engine.total_edges_examined(), edges);
    EXPECT_EQ(engine.stats().rng_draws, generator.rng_draws());
  }
}

TEST(SerialSamplingEngineTest, CountBitIdenticalToChunkedRawGenerator) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  const uint64_t theta = 20000;

  SerialSamplingEngine engine(g);
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  batch.Add(1);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, 5);

  RRSetGenerator generator(g);
  std::vector<uint64_t> hits;
  const uint64_t edges = ChunkedReferenceCount(
      &generator, nullptr, g.num_nodes(), theta, batch.queries(), 5, &hits);
  EXPECT_EQ(batch.hits(0), hits[0]);
  EXPECT_EQ(batch.hits(1), hits[1]);
  EXPECT_EQ(engine.stats().edges_examined, edges);
  EXPECT_EQ(engine.stats().rng_draws, generator.rng_draws());
}

TEST(SerialSamplingEngineTest, ResetPoolClearsSetsAndAccounting) {
  const Graph g = TestGraph(100);
  Rng rng(9);
  SerialSamplingEngine engine(g);
  FillPool(engine, nullptr, g.num_nodes(), 100, &rng);
  EXPECT_GT(engine.pool().num_sets(), 0u);
  EXPECT_GT(engine.total_edges_examined(), 0u);
  engine.ResetPool();
  EXPECT_EQ(engine.pool().num_sets(), 0u);
  EXPECT_EQ(engine.total_edges_examined(), 0u);
}

// (a') A pool restricted to a member set M holds the member projection of
// the unrestricted pool at the same seed: the walks, draws and edges are
// the same, and each stored set is its RR set's members in walk order.
// Both fill paths are covered: the engine's chunked fill and
// RRCollection::Generate on one generator.

void ExpectMemberProjection(const RRCollection& full,
                            const RRCollection& restricted,
                            const BitVector& member_bits) {
  ASSERT_NE(restricted.members(), nullptr);
  ASSERT_EQ(restricted.num_sets(), full.num_sets());
  EXPECT_LT(restricted.total_nodes(), full.total_nodes());
  for (uint64_t i = 0; i < full.num_sets(); ++i) {
    std::vector<NodeId> projected;
    for (NodeId v : full.set(i)) {
      if (member_bits.Test(v)) projected.push_back(v);
    }
    const auto stored = restricted.set(i);
    ASSERT_EQ(std::vector<NodeId>(stored.begin(), stored.end()), projected)
        << "set " << i;
  }
}

TEST(RestrictedFillTest, IsTheMemberProjectionOfTheUnrestrictedFill) {
  const Graph g = TestGraph(300);
  BitVector removed(g.num_nodes());
  for (NodeId v = 100; v < 140; ++v) removed.Set(v);
  // Every third node, some of them removed.
  std::vector<NodeId> members;
  BitVector member_bits(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); v += 3) {
    members.push_back(v);
    member_bits.Set(v);
  }
  // Past the default threshold with a ragged tail: four workers fan out.
  const uint64_t theta = ParallelSamplingEngine::kDefaultMinParallelBatch +
                         3 * ParallelSamplingEngine::kChunkSets + 5;
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    for (const BitVector* residual : {static_cast<BitVector*>(nullptr),
                                      &removed}) {
      const uint32_t alive = g.num_nodes() - (residual != nullptr ? 40 : 0);
      for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << "engine model " << static_cast<int>(model)
                     << " threads " << threads << " residual "
                     << (residual != nullptr));
        SamplingOptions options;
        options.num_threads = threads;
        std::unique_ptr<SamplingEngine> full =
            CreateSamplingEngine(g, model, options);
        std::unique_ptr<SamplingEngine> restricted =
            CreateSamplingEngine(g, model, options);
        restricted->pool().RestrictTo(members);
        Rng full_rng(theta);
        Rng restricted_rng(theta);
        ExpectMemberProjection(
            FillPool(*full, residual, alive, theta, &full_rng),
            FillPool(*restricted, residual, alive, theta, &restricted_rng),
            member_bits);
        EXPECT_EQ(restricted->total_edges_examined(),
                  full->total_edges_examined());
        ExpectSameStats(restricted->stats(), full->stats());
      }

      SCOPED_TRACE(::testing::Message()
                   << "RRCollection::Generate model "
                   << static_cast<int>(model) << " residual "
                   << (residual != nullptr));
      RRSetGenerator full_generator(g, model);
      RRSetGenerator restricted_generator(g, model);
      RRCollection full(g.num_nodes());
      RRCollection restricted(g.num_nodes());
      restricted.RestrictTo(members);
      Rng full_rng(theta);
      Rng restricted_rng(theta);
      EXPECT_EQ(restricted.Generate(&restricted_generator, residual, alive,
                                    theta, &restricted_rng),
                full.Generate(&full_generator, residual, alive, theta,
                              &full_rng));
      EXPECT_EQ(restricted_generator.rng_draws(), full_generator.rng_draws());
      ExpectMemberProjection(full, restricted, member_bits);
    }
  }
}

// (b) Invariance: any worker count and threshold gives the serial engine's
// pools, hits, edges and RNG draws — chunk streams are claimed, not
// assigned.

TEST(ChunkStreamInvarianceTest, EveryThreadCountMatchesSerial) {
  const Graph g = TestGraph(300);
  BitVector removed(g.num_nodes());
  for (NodeId v = 100; v < 140; ++v) removed.Set(v);
  BitVector front(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) front.Set(v);
  BitVector rear(g.num_nodes());
  for (NodeId v = 40; v < 99; ++v) rear.Set(v);
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  // Below one chunk, exactly one, a ragged tail, and past the default
  // threshold with a ragged tail.
  const uint64_t thetas[] = {300, chunk, 2 * chunk + 77,
                             ParallelSamplingEngine::kDefaultMinParallelBatch +
                                 3 * chunk + 5};

  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    for (SamplingKernel kernel :
         {SamplingKernel::kGeometricJump, SamplingKernel::kPerEdge}) {
      std::vector<std::unique_ptr<SamplingEngine>> engines;
      engines.push_back(std::make_unique<SerialSamplingEngine>(g, model,
                                                               kernel));
      for (uint32_t threads : {2u, 3u, 4u}) {
        for (uint64_t min_batch :
             {uint64_t{1}, ParallelSamplingEngine::kDefaultMinParallelBatch}) {
          engines.push_back(std::make_unique<ParallelSamplingEngine>(
              g, model, threads, min_batch, kernel));
        }
      }
      for (const BitVector* residual : {static_cast<BitVector*>(nullptr),
                                        &removed}) {
        const uint32_t alive = g.num_nodes() - (residual != nullptr ? 40 : 0);
        for (uint64_t theta : thetas) {
          std::vector<std::vector<uint64_t>> hits;
          for (const std::unique_ptr<SamplingEngine>& engine : engines) {
            engine->ResetPool();
            engine->ResetStats();
            Rng rng(theta);
            FillPool(*engine, residual, alive, theta, &rng);
            CoverageQueryBatch batch;
            batch.Add(0, &front);
            batch.Add(0, &rear);
            batch.Add(2);
            CountBatch(*engine, &batch, residual, alive, theta, rng.Next());
            hits.push_back({batch.hits(0), batch.hits(1), batch.hits(2)});
          }
          SamplingEngine& serial = *engines.front();
          for (size_t e = 1; e < engines.size(); ++e) {
            SCOPED_TRACE(::testing::Message()
                         << "model " << static_cast<int>(model) << " kernel "
                         << static_cast<int>(kernel) << " residual "
                         << (residual != nullptr) << " theta " << theta
                         << " engine " << e);
            SamplingEngine& parallel = *engines[e];
            ExpectSamePools(parallel.pool(), serial.pool());
            EXPECT_EQ(parallel.total_edges_examined(),
                      serial.total_edges_examined());
            ExpectSameStats(parallel.stats(), serial.stats());
            EXPECT_EQ(hits[e], hits.front());
          }
        }
      }
    }
  }
}

// The same run at every thread count, for each driver rule: HATP and HNTP
// plan their later rounds on the kept-count grid and batched ADDATP on its
// ζ/√2, δ/2 schedule, so their counts ride the count stream.
void ExpectSameRuns(const std::vector<AdaptiveRunResult>& runs) {
  for (size_t i = 1; i < runs.size(); ++i) {
    const AdaptiveRunResult& a = runs.front();
    const AdaptiveRunResult& b = runs[i];
    EXPECT_EQ(b.seeds, a.seeds) << "run " << i;
    EXPECT_EQ(b.total_rr_sets, a.total_rr_sets) << "run " << i;
    EXPECT_EQ(b.total_count_pools, a.total_count_pools) << "run " << i;
    EXPECT_EQ(b.total_coverage_queries, a.total_coverage_queries)
        << "run " << i;
    EXPECT_EQ(b.realized_profit, a.realized_profit) << "run " << i;
    ASSERT_EQ(b.steps.size(), a.steps.size()) << "run " << i;
    for (size_t s = 0; s < a.steps.size(); ++s) {
      EXPECT_EQ(b.steps[s].node, a.steps[s].node) << "step " << s;
      EXPECT_EQ(b.steps[s].decision, a.steps[s].decision) << "step " << s;
      EXPECT_EQ(b.steps[s].rounds, a.steps[s].rounds) << "step " << s;
      EXPECT_EQ(b.steps[s].rr_sets_used, a.steps[s].rr_sets_used)
          << "step " << s;
    }
  }
}

TEST(ChunkStreamInvarianceTest, HatpRunIdenticalAcrossThreadCounts) {
  const Graph g = TestGraph(300);
  const Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  std::vector<AdaptiveRunResult> runs;
  for (uint32_t threads : {1u, 2u, 4u}) {
    HatpOptions options;
    options.sampling.num_threads = threads;
    HatpPolicy policy(options);
    Rng world_rng(42);
    AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
    Rng rng(1);
    Result<AdaptiveRunResult> run =
        policy.Run(selection.value().problem, &env, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    runs.push_back(std::move(run).value());
  }
  ExpectSameRuns(runs);
}

TEST(ChunkStreamInvarianceTest, AddAtpRunIdenticalAcrossThreadCounts) {
  const Graph g = TestGraph(300);
  const Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  std::vector<AdaptiveRunResult> runs;
  std::vector<SamplingStats> stats;
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                  threads);
    AddAtpOptions options;
    options.fail_on_budget_exhausted = false;
    AddAtpPolicy policy(options);
    policy.set_engine(&engine);
    Rng world_rng(42);
    AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
    Rng rng(1);
    Result<AdaptiveRunResult> run =
        policy.Run(selection.value().problem, &env, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    runs.push_back(std::move(run).value());
    stats.push_back(engine.stats());
  }
  ExpectSameRuns(runs);
  for (size_t i = 1; i < stats.size(); ++i) ExpectSameStats(stats[i], stats[0]);
  EXPECT_GT(runs.front().total_rr_sets, 0u);
}

TEST(ChunkStreamInvarianceTest, HntpRunIdenticalAcrossThreadCounts) {
  const Graph g = TestGraph(300);
  const Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  std::vector<AdaptiveRunResult> runs;
  std::vector<SamplingStats> stats;
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                  threads);
    Rng rng(1);
    Result<HntpResult> run =
        RunHntp(selection.value().problem, HatpOptions{}, &rng, &engine);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    runs.push_back(std::move(run).value());
    stats.push_back(engine.stats());
  }
  ExpectSameRuns(runs);
  for (size_t i = 1; i < stats.size(); ++i) ExpectSameStats(stats[i], stats[0]);
  EXPECT_GT(runs.front().total_rr_sets, 0u);
}

// (b') The count stream: a decision's planned rounds give, round by round,
// the hits and the accounting of one-shot counts, however the workers ran
// ahead, wherever the decision stops, and whatever the next call asks.

SamplingStats StatsDelta(const SamplingStats& after,
                         const SamplingStats& before) {
  SamplingStats d;
  d.rr_sets_generated = after.rr_sets_generated - before.rr_sets_generated;
  d.edges_examined = after.edges_examined - before.edges_examined;
  d.count_pools = after.count_pools - before.count_pools;
  d.coverage_queries = after.coverage_queries - before.coverage_queries;
  d.rng_draws = after.rng_draws - before.rng_draws;
  d.settled_walks = after.settled_walks - before.settled_walks;
  d.count_walk_nodes = after.count_walk_nodes - before.count_walk_nodes;
  return d;
}

// Counts round `i` of a decision whose rounds are `rounds`, asking
// `queries`; with `plan` the batch carries rounds i+1.. as its plan.
// Returns the hits; `*stats` gets the round's accounting.
std::vector<uint64_t> CountDecisionRound(
    SamplingEngine& engine, const std::vector<CoverageQuery>& queries,
    const std::vector<PlannedRound>& rounds, size_t i, bool plan,
    const BitVector* removed, uint32_t alive, SamplingStats* stats) {
  CoverageQueryBatch batch;
  for (const CoverageQuery& query : queries) batch.Add(query.node, query.base);
  if (plan) {
    for (size_t j = i + 1; j < rounds.size(); ++j) {
      batch.AddPlannedRound(rounds[j].sets, rounds[j].seed);
    }
  }
  const SamplingStats before = engine.stats();
  EXPECT_EQ(CountBatch(engine, &batch, removed, alive, rounds[i].sets,
                       rounds[i].seed),
            rounds[i].sets);
  if (stats != nullptr) *stats = StatsDelta(engine.stats(), before);
  return std::vector<uint64_t>(batch.hits().begin(), batch.hits().end());
}

// The inputs of the stream tests: a 300-node graph, a residual graph, and
// front / rear / unconditional queries.
struct StreamFixture {
  Graph g = TestGraph(300);
  BitVector removed{g.num_nodes()};
  BitVector front{g.num_nodes()};
  BitVector rear{g.num_nodes()};
  StreamFixture() {
    for (NodeId v = 100; v < 140; ++v) removed.Set(v);
    for (NodeId v = 10; v < 30; ++v) front.Set(v);
    for (NodeId v = 40; v < 99; ++v) rear.Set(v);
  }
  std::vector<CoverageQuery> Queries(NodeId u = 0) const {
    return {{u, &front}, {u, &rear}, {2, nullptr}};
  }
};

// A decision's rounds: one of each size in `sets`, each with its own seed.
std::vector<PlannedRound> Rounds(std::initializer_list<uint64_t> sets,
                                 uint64_t seed) {
  std::vector<PlannedRound> rounds;
  for (uint64_t s : sets) rounds.push_back({s, SplitSeed(seed, rounds.size())});
  return rounds;
}

TEST(CountStreamTest, PlannedRoundsMatchOneShotCounts) {
  const StreamFixture f;
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  // One-chunk rounds, ragged rounds, and rounds of several chunks.
  const std::vector<std::vector<PlannedRound>> plans = {
      Rounds({300, 700, chunk, 50, chunk - 1}, 1),
      Rounds({chunk + 500, 2 * chunk + 77, 3333, 777}, 2),
      Rounds({5 * chunk, 4 * chunk + 3, 9 * chunk + 100}, 3)};
  for (const BitVector* residual :
       {static_cast<const BitVector*>(nullptr), &f.removed}) {
    const uint32_t alive = f.g.num_nodes() - (residual != nullptr ? 40 : 0);
    SerialSamplingEngine reference(f.g);
    for (uint32_t threads : {1u, 2u, 3u, 4u}) {
      for (uint64_t min_batch :
           {uint64_t{1}, ParallelSamplingEngine::kDefaultMinParallelBatch}) {
        ParallelSamplingEngine engine(f.g, DiffusionModel::kIndependentCascade,
                                      threads, min_batch);
        for (size_t p = 0; p < plans.size(); ++p) {
          for (size_t i = 0; i < plans[p].size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "residual " << (residual != nullptr)
                         << " threads " << threads << " min_batch "
                         << min_batch << " plan " << p << " round " << i);
            SamplingStats want_stats;
            SamplingStats got_stats;
            const std::vector<uint64_t> want =
                CountDecisionRound(reference, f.Queries(), plans[p], i, false,
                                   residual, alive, &want_stats);
            EXPECT_EQ(CountDecisionRound(engine, f.Queries(), plans[p], i,
                                         true, residual, alive, &got_stats),
                      want);
            ExpectSameStats(got_stats, want_stats);
          }
        }
      }
    }
  }
}

TEST(CountStreamTest, EarlyStopLeavesStatsOfAnUnplannedReplay) {
  const StreamFixture f;
  const uint32_t alive = f.g.num_nodes() - 40;
  const std::vector<PlannedRound> rounds =
      Rounds({300, 2000, 4500, 6000, 8000}, 4);
  // What follows the stopped decision: a fill, an unrelated count, or
  // ResetPool and then a fill.
  for (int next = 0; next < 3; ++next) {
    SCOPED_TRACE(::testing::Message() << "next " << next);
    ParallelSamplingEngine planned(f.g, DiffusionModel::kIndependentCascade,
                                   4, /*min_parallel_batch=*/1);
    SerialSamplingEngine replay(f.g);
    std::vector<uint64_t> unrelated;
    for (bool plan : {true, false}) {
      SamplingEngine& engine =
          plan ? static_cast<SamplingEngine&>(planned) : replay;
      // The decision stops after its second round; the workers have run
      // ahead into the third.
      for (size_t i = 0; i < 2; ++i) {
        CountDecisionRound(engine, f.Queries(), rounds, i, plan, &f.removed,
                           alive, nullptr);
      }
      Rng rng(9);
      if (next == 0) {
        FillPool(engine, &f.removed, alive, 3000, &rng);
      } else if (next == 1) {
        unrelated.push_back(CountOne(engine, 5, &f.front, nullptr,
                                     f.g.num_nodes(), 2500, 77));
      } else {
        engine.ResetPool();
        FillPool(engine, nullptr, f.g.num_nodes(), 2000, &rng);
      }
    }
    if (next == 1) {
      EXPECT_EQ(unrelated[0], unrelated[1]);
    }
    ExpectSameStats(planned.stats(), replay.stats());
    ExpectSamePools(planned.pool(), replay.pool());
    EXPECT_EQ(planned.total_edges_examined(), replay.total_edges_examined());
  }
}

TEST(CountStreamTest, MismatchedContinuationRestartsAndMatches) {
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  const std::vector<PlannedRound> rounds =
      Rounds({2 * chunk, 3 * chunk + 5, 4 * chunk, 5 * chunk}, 5);
  // How round 1 departs from the plan round 0 carried.
  enum class Change { kSeed, kTheta, kNode, kBase, kRemoved };
  for (Change change : {Change::kSeed, Change::kTheta, Change::kNode,
                        Change::kBase, Change::kRemoved}) {
    SCOPED_TRACE(::testing::Message() << "change " << static_cast<int>(change));
    StreamFixture f;
    ParallelSamplingEngine engine(f.g, DiffusionModel::kIndependentCascade, 4,
                                  /*min_parallel_batch=*/1);
    SerialSamplingEngine reference(f.g);
    CountDecisionRound(engine, f.Queries(), rounds, 0, true, &f.removed,
                       f.g.num_nodes() - 40, nullptr);
    CountDecisionRound(reference, f.Queries(), rounds, 0, false, &f.removed,
                       f.g.num_nodes() - 40, nullptr);
    std::vector<PlannedRound> asked = rounds;
    NodeId node = 0;
    uint32_t alive = f.g.num_nodes() - 40;
    switch (change) {
      case Change::kSeed:
        asked[1].seed += 1;
        break;
      case Change::kTheta:
        asked[1].sets -= 3;
        break;
      case Change::kNode:
        node = 1;
        break;
      case Change::kBase:
        f.rear.Clear(50);
        break;
      case Change::kRemoved:
        f.removed.Set(200);
        alive -= 1;
        break;
    }
    // The departing round, then the rest of the new decision.
    for (size_t i = 1; i < asked.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << i);
      SamplingStats want_stats;
      SamplingStats got_stats;
      const std::vector<uint64_t> want =
          CountDecisionRound(reference, f.Queries(node), asked, i, false,
                             &f.removed, alive, &want_stats);
      EXPECT_EQ(CountDecisionRound(engine, f.Queries(node), asked, i, true,
                                   &f.removed, alive, &got_stats),
                want);
      ExpectSameStats(got_stats, want_stats);
    }
    ExpectSameStats(engine.stats(), reference.stats());
  }
}

TEST(CountStreamTest, InputsMutatedAfterARoundReturnsStayExact) {
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  const std::vector<PlannedRound> rounds =
      Rounds({3 * chunk, 4 * chunk, 6 * chunk, 8 * chunk}, 6);
  // What SeedAndObserve does between decisions: the caller's `removed`
  // and bases change while ahead chunks are still counting. Restoring them
  // before the next round continues the stream; keeping the change starts
  // a new one. Ahead chunks that read the caller's bitmaps instead of the
  // stream's copies count wrong hits here (and race under TSan).
  for (bool restore : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "restore " << restore);
    StreamFixture f;
    ParallelSamplingEngine engine(f.g, DiffusionModel::kIndependentCascade, 4,
                                  /*min_parallel_batch=*/1);
    SerialSamplingEngine reference(f.g);
    uint32_t alive = f.g.num_nodes() - 40;
    for (size_t i = 0; i < rounds.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << i);
      SamplingStats want_stats;
      SamplingStats got_stats;
      const std::vector<uint64_t> got =
          CountDecisionRound(engine, f.Queries(), rounds, i, true, &f.removed,
                             alive, &got_stats);
      const std::vector<uint64_t> want =
          CountDecisionRound(reference, f.Queries(), rounds, i, false,
                             &f.removed, alive, &want_stats);
      EXPECT_EQ(got, want);
      ExpectSameStats(got_stats, want_stats);
      // Activate a batch of nodes right after the round returns.
      for (NodeId v = 150 + 10 * static_cast<NodeId>(i);
           v < 160 + 10 * static_cast<NodeId>(i); ++v) {
        f.removed.Set(v);
        f.front.Set(v);
        f.rear.Clear(v - 100);
      }
      if (restore) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (NodeId v = 150 + 10 * static_cast<NodeId>(i);
             v < 160 + 10 * static_cast<NodeId>(i); ++v) {
          f.removed.Clear(v);
          f.front.Clear(v);
          f.rear.Set(v - 100);
        }
      } else {
        alive -= 10;
      }
    }
    ExpectSameStats(engine.stats(), reference.stats());
  }
}

// The stream's discarded run-ahead: at most num_workers() chunks each time
// a decision ends, and none of it in SamplingStats, which match one worker.
TEST(CountStreamTest, WorkersRunAheadAtMostNumWorkersChunks) {
  obs::SetMetricsEnabled(true);
  const StreamFixture f;
  const uint64_t chunk = ParallelSamplingEngine::kChunkSets;
  // A one-chunk round planned before a long one: the three pool threads
  // start the long round while the caller counts the short one, and keep
  // going after it returns until the stream is four chunks past it.
  const std::vector<PlannedRound> rounds = Rounds({chunk, 12 * chunk}, 8);
  bool saw_full_run_ahead = false;
  for (int attempt = 0; attempt < 10 && !saw_full_run_ahead; ++attempt) {
    ParallelSamplingEngine engine(f.g, DiffusionModel::kIndependentCascade,
                                  4, /*min_parallel_batch=*/1);
    const uint64_t before = DiscardedStreamChunks();
    CountDecisionRound(engine, f.Queries(), rounds, 0, true, nullptr,
                       f.g.num_nodes(), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
    engine.ResetPool();  // the decision stopped after round 0
    const uint64_t discarded = DiscardedStreamChunks() - before;
    EXPECT_LE(discarded, uint64_t{engine.num_workers()});
    saw_full_run_ahead = discarded == engine.num_workers();
  }
  EXPECT_TRUE(saw_full_run_ahead);
}

TEST(CountStreamTest, DiscardedRunAheadIsBoundedPerDecision) {
  obs::SetMetricsEnabled(true);
  const Graph g = TestGraph(1000);
  const Result<TargetSelectionResult> selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  std::vector<AdaptiveRunResult> runs;
  std::vector<SamplingStats> stats;
  for (uint32_t threads : {1u, 4u}) {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                  threads, /*min_parallel_batch=*/1);
    HatpPolicy policy(HatpOptions{});
    policy.set_engine(&engine);
    Rng world_rng(42);
    AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
    Rng rng(1);
    const uint64_t before = DiscardedStreamChunks();
    Result<AdaptiveRunResult> run =
        policy.Run(selection.value().problem, &env, &rng);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    engine.ResetPool();  // closes the last decision's stream
    const uint64_t discarded = DiscardedStreamChunks() - before;
    uint64_t decisions = 0;
    for (const AdaptiveStepRecord& step : run.value().steps) {
      if (step.rounds > 0) ++decisions;
    }
    ASSERT_GT(decisions, 0u);
    EXPECT_LE(discarded, uint64_t{threads} * decisions) << threads;
    if (threads == 1) {
      EXPECT_EQ(discarded, 0u);
    }
    runs.push_back(std::move(run).value());
    stats.push_back(engine.stats());
  }
  ExpectSameRuns(runs);
  ExpectSameStats(stats[1], stats[0]);
}

// (b'') A graph reweighted under a live engine aborts the next call instead
// of sampling the engine's stale step table.

TEST(WeightVersionDeathTest, ReweightUnderAFourWorkerEngineAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Graph g = TestGraph(300);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                /*min_parallel_batch=*/1);
  EXPECT_EQ(CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), 4096, 1),
            CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), 4096, 1));
  ApplyConstantProbability(&g, 0.05);
  EXPECT_DEATH(CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), 4096, 1),
               "weight_version");
  Rng rng(3);
  EXPECT_DEATH(FillPool(engine, nullptr, g.num_nodes(), 4096, &rng),
               "weight_version");
}

// (c) A failed batch — whichever worker's chunk threw — adds no sets,
// edges, pools or queries, adds the draws its finished chunks consumed,
// and leaves the engine reusable.

TEST(FailedBatchAccountingTest, AddsOnlyTheDrawsItConsumed) {
  const Graph g = TestGraph(300);
  const uint64_t theta = 6 * ParallelSamplingEngine::kChunkSets;
  for (uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "workers " << workers);
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                  workers);
    Rng rng(3);
    FillPool(engine, nullptr, g.num_nodes(), 100, &rng);
    const uint64_t pool_sets = engine.pool().num_sets();
    const uint64_t pool_edges = engine.total_edges_examined();

    // A chunk throws after two chunks drew their sets, or the merge fails
    // after every chunk did.
    struct Fault {
      const char* site;
      uint64_t fire_at;
      bool fill;
    };
    for (const Fault& fault : {Fault{"engine.parallel_worker", 3, true},
                               Fault{"engine.parallel_worker", 3, false},
                               Fault{"alloc.pool_append", 1, true}}) {
      SCOPED_TRACE(::testing::Message()
                   << fault.site << (fault.fill ? " fill" : " count"));
      const SamplingStats before = engine.stats();
      failpoint::Spec spec;
      spec.fire_at = fault.fire_at;
      spec.count = 1;
      ASSERT_TRUE(failpoint::Arm(fault.site, spec));
      CoverageQueryBatch batch;
      batch.Add(0);
      const Status status =
          fault.fill
              ? engine.TryGeneratePool(nullptr, g.num_nodes(), theta, &rng)
              : engine
                    .TryCountCoverageBatchSeeded(&batch, nullptr,
                                                 g.num_nodes(), theta, 11)
                    .status();
      failpoint::DisarmAll();
      EXPECT_FALSE(status.ok());
      const SamplingStats& after = engine.stats();
      EXPECT_EQ(after.rr_sets_generated, before.rr_sets_generated);
      EXPECT_EQ(after.edges_examined, before.edges_examined);
      EXPECT_EQ(after.count_pools, before.count_pools);
      EXPECT_EQ(after.coverage_queries, before.coverage_queries);
      EXPECT_GT(after.rng_draws, before.rng_draws);
      EXPECT_EQ(engine.pool().num_sets(), pool_sets);
      EXPECT_EQ(engine.total_edges_examined(), pool_edges);
    }

    // Reusable: the next batches match a fresh serial engine's.
    SerialSamplingEngine fresh(g);
    for (SamplingEngine* e : {static_cast<SamplingEngine*>(&engine),
                              static_cast<SamplingEngine*>(&fresh)}) {
      e->ResetPool();
      Rng clean(8);
      FillPool(*e, nullptr, g.num_nodes(), theta, &clean);
    }
    ExpectSamePools(engine.pool(), fresh.pool());
    EXPECT_EQ(CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), theta, 12),
              CountOne(fresh, 0, nullptr, nullptr, g.num_nodes(), theta, 12));
  }
}

// Concurrency stress for the TSan lane: min_parallel_batch = 1 forces
// every batch through the worker pool, and the alternating
// TryGeneratePool / TryCountCoverageBatchSeeded rounds keep the hand-off
// machinery hot — job-epoch publication, chunk claiming from the shared
// counter (batches of one chunk, and of more chunks than workers with a
// ragged tail), the pending-counter rendezvous, per-worker staging and
// hit shards, the chunk-order merge, and the per-worker draw harvest.
// Under -fsanitize=thread this is the data-race probe for
// ParallelSamplingEngine (CI runs it with TSAN_OPTIONS=halt_on_error=1);
// in a plain build it doubles as an invariance check — a serial engine
// driven identically must produce a bit-identical pool, counters, and
// stats through the same churn.
TEST(ParallelSamplingEngineTest, WorkerHandoffStress) {
  const Graph g = TestGraph(200);
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 50;
  constexpr uint64_t kChunk = ParallelSamplingEngine::kChunkSets;
  ParallelSamplingEngine a(g, DiffusionModel::kIndependentCascade, kThreads,
                           /*min_parallel_batch=*/1);
  SerialSamplingEngine b(g);
  Rng rng_a(991), rng_b(991);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 17; ++v) removed.Set(v);
  const uint32_t alive = g.num_nodes() - 17;
  BitVector base(g.num_nodes());
  base.Set(20);
  base.Set(21);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t wide = kThreads * kChunk + 1 + 37 * round;
    const uint64_t count = round % 2 == 0 ? 16 + round : wide / 2;
    FillPool(a, &removed, alive, count, &rng_a);
    FillPool(b, &removed, alive, count, &rng_b);
    CoverageQueryBatch batch_a;
    CoverageQueryBatch batch_b;
    for (NodeId q = 30; q < 34; ++q) {
      batch_a.Add(q, &base);
      batch_b.Add(q, &base);
    }
    const uint64_t theta = round % 2 == 0 ? wide : 64 + 8 * round;
    CountBatch(a, &batch_a, &removed, alive, theta, 17 + round);
    CountBatch(b, &batch_b, &removed, alive, theta, 17 + round);
    for (size_t q = 0; q < batch_a.size(); ++q) {
      ASSERT_EQ(batch_a.hits(q), batch_b.hits(q))
          << "round " << round << " query " << q;
    }
  }
  ExpectSamePools(a.pool(), b.pool());
  ExpectSameStats(a.stats(), b.stats());
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
}

// (d) Serial and parallel backends agree within concentration bounds on a
// 1k-node generator graph: both estimate p = Pr[u in RR set avoiding base],
// and two independent θ-sample means differ by more than
// 5·sqrt(2·p̂(1−p̂)/θ) with probability well under 1e-5.

TEST(SamplingEngineAgreementTest, SerialVsParallelCoverageEstimates) {
  const Graph g = TestGraph(1000);
  BitVector base(g.num_nodes());
  for (NodeId v = 50; v < 80; ++v) base.Set(v);
  const uint64_t theta = 200000;
  const NodeId u = 0;

  Rng serial_rng(2024);
  SerialSamplingEngine serial(g);
  const double p_serial =
      static_cast<double>(CountOne(serial, u, &base, nullptr, g.num_nodes(),
                                   theta, serial_rng.Next())) /
      static_cast<double>(theta);

  Rng parallel_rng(4048);
  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  const double p_parallel =
      static_cast<double>(CountOne(parallel, u, &base, nullptr, g.num_nodes(),
                                   theta, parallel_rng.Next())) /
      static_cast<double>(theta);

  const double p_hat = 0.5 * (p_serial + p_parallel);
  const double sigma =
      std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(theta));
  EXPECT_GT(p_hat, 0.0);
  EXPECT_NEAR(p_serial, p_parallel, 5.0 * sigma + 1e-9);
}

TEST(SamplingEngineAgreementTest, PoolCoverageAcrossBackends) {
  const Graph g = TestGraph(1000);
  const uint64_t count = 65536;
  const NodeId u = 1;

  Rng serial_rng(10);
  SerialSamplingEngine serial(g);
  const RRCollection& serial_pool =
      FillPool(serial, nullptr, g.num_nodes(), count, &serial_rng);
  const double f_serial =
      static_cast<double>(serial_pool.CoverageOfNode(u)) / count;

  Rng parallel_rng(20);
  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  const RRCollection& parallel_pool =
      FillPool(parallel, nullptr, g.num_nodes(), count, &parallel_rng);
  ASSERT_EQ(parallel_pool.num_sets(), count);
  const double f_parallel =
      static_cast<double>(parallel_pool.CoverageOfNode(u)) / count;

  const double p_hat = 0.5 * (f_serial + f_parallel);
  const double sigma =
      std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(count));
  EXPECT_NEAR(f_serial, f_parallel, 5.0 * sigma + 1e-9);
}

// (e) Batched vs unbatched estimates: a one-query CoverageQueryBatch is the
// same code path as the one-query CountOne helper (bit-identity on the serial
// backend), and a two-query batch agrees with per-query sampling within
// concentration bounds on every backend (±3σ).

TEST(SamplingEngineBatchTest, OneQueryBatchBitIdenticalOnSerialBackend) {
  const Graph g = TestGraph(400);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 40; ++v) base.Set(v);
  const uint64_t theta = 30000;

  SerialSamplingEngine engine(g);
  Rng batch_rng(55);
  CoverageQueryBatch batch;
  batch.Add(0, &base);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, batch_rng.Next());

  Rng query_rng(55);
  const uint64_t unbatched = CountOne(engine, 0, &base, nullptr, g.num_nodes(),
                                      theta, query_rng.Next());

  EXPECT_EQ(batch.hits(0), unbatched);
  EXPECT_EQ(batch_rng.Next(), query_rng.Next());  // same caller stream use
}

TEST(SamplingEngineBatchTest, BatchedEstimatesAgreeAcrossBackends) {
  const Graph g = TestGraph(1000);
  BitVector front(g.num_nodes());
  for (NodeId v = 10; v < 25; ++v) front.Set(v);
  BitVector rear(g.num_nodes());
  for (NodeId v = 60; v < 200; ++v) rear.Set(v);
  const uint64_t theta = 200000;

  // Serial batched estimate vs parallel unbatched per-query estimates: the
  // batch layer must not move the estimand, only the sampling layout.
  SerialSamplingEngine serial(g);
  CoverageQueryBatch batch;
  batch.Add(0, &front);
  batch.Add(0, &rear);
  Rng serial_rng(808);
  CountBatch(serial, &batch, nullptr, g.num_nodes(), theta, serial_rng.Next());

  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  Rng parallel_rng(909);
  const uint64_t front_hits = CountOne(parallel, 0, &front, nullptr,
                                       g.num_nodes(), theta,
                                       parallel_rng.Next());
  const uint64_t rear_hits = CountOne(parallel, 0, &rear, nullptr,
                                      g.num_nodes(), theta,
                                      parallel_rng.Next());

  const uint64_t unbatched[2] = {front_hits, rear_hits};
  for (int q = 0; q < 2; ++q) {
    const double p_batched =
        static_cast<double>(batch.hits(q)) / static_cast<double>(theta);
    const double p_unbatched =
        static_cast<double>(unbatched[q]) / static_cast<double>(theta);
    const double p_hat = 0.5 * (p_batched + p_unbatched);
    const double sigma =
        std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(theta));
    EXPECT_GT(p_hat, 0.0) << "query " << q;
    EXPECT_NEAR(p_batched, p_unbatched, 3.0 * sigma + 1e-9) << "query " << q;
  }
}

// Factory / knob resolution.

TEST(CreateSamplingEngineTest, ThreadCountPicksBackend) {
  const Graph g = TestGraph(100);
  SamplingOptions options;
  options.num_threads = 1;
  EXPECT_EQ(CreateSamplingEngine(g, DiffusionModel::kIndependentCascade,
                                 options)
                ->name(),
            "serial");
  for (uint32_t threads : {2u, 4u}) {
    options.num_threads = threads;
    std::unique_ptr<SamplingEngine> engine = CreateSamplingEngine(
        g, DiffusionModel::kIndependentCascade, options);
    EXPECT_EQ(engine->name(), "parallel") << threads;
    EXPECT_EQ(engine->num_workers(), threads);
  }
  // 0 means hardware concurrency; a host reporting at most one core gets
  // the serial engine.
  options.num_threads = 0;
  const uint32_t hardware = std::thread::hardware_concurrency();
  std::unique_ptr<SamplingEngine> engine =
      CreateSamplingEngine(g, DiffusionModel::kIndependentCascade, options);
  if (hardware <= 1) {
    EXPECT_EQ(engine->name(), "serial");
  } else {
    EXPECT_EQ(engine->name(), "parallel");
    EXPECT_EQ(engine->num_workers(), hardware);
  }
}

// Shard merge primitive used by the parallel backend.

TEST(RRCollectionAppendShardTest, MatchesPerSetInsertion) {
  RRCollection by_set(10);
  RRCollection by_shard(10);

  const std::vector<std::vector<NodeId>> sets = {
      {1, 2, 3}, {4}, {}, {5, 6}, {7, 8, 9, 0}};
  std::vector<NodeId> flat;
  std::vector<uint32_t> sizes;
  for (const auto& s : sets) {
    by_set.AddSet(s);
    flat.insert(flat.end(), s.begin(), s.end());
    sizes.push_back(static_cast<uint32_t>(s.size()));
  }
  // Split into two shards to exercise repeated appends.
  by_shard.AppendShard({flat.data(), 4}, {sizes.data(), 2});
  by_shard.AppendShard({flat.data() + 4, flat.size() - 4},
                       {sizes.data() + 2, sizes.size() - 2});

  ExpectSamePools(by_set, by_shard);
  by_shard.BuildIndex();
  EXPECT_EQ(by_shard.CoverageOfNode(4), 1u);
  EXPECT_EQ(by_shard.CoverageOfNode(0), 1u);
}

// Engine handle caching (the policies' embedded slot).

TEST(SamplingEngineHandleTest, CachesOwnedEngineAndHonorsInjection) {
  const Graph g = TestGraph(100);
  SamplingOptions options;

  SamplingEngineHandle handle;
  SamplingEngine* first =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  SamplingEngine* second =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(first, second);  // cached across calls

  options.num_threads = 2;
  SamplingEngine* third =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(third->name(), "parallel");

  SerialSamplingEngine external(g);
  handle.Use(&external);
  EXPECT_EQ(handle.Get(g, DiffusionModel::kIndependentCascade, options),
            &external);
  handle.Use(nullptr);
  EXPECT_NE(handle.Get(g, DiffusionModel::kIndependentCascade, options),
            &external);
}

TEST(SamplingEngineHandleTest, ReweightedGraphGetsAFreshEngine) {
  Graph g = TestGraph(100);
  SamplingOptions options;
  options.num_threads = 2;
  SamplingEngineHandle handle;
  SamplingEngine* before =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  ApplyConstantProbability(&g, 0.1);
  SamplingEngine* after =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  // The cached engine's step table predates the reweighting; a fresh one
  // samples the new weights.
  SerialSamplingEngine fresh(g);
  EXPECT_EQ(CountOne(*after, 0, nullptr, nullptr, g.num_nodes(), 3000, 4),
            CountOne(fresh, 0, nullptr, nullptr, g.num_nodes(), 3000, 4));
  EXPECT_NE(after, before);
  EXPECT_EQ(handle.Get(g, DiffusionModel::kIndependentCascade, options),
            after);
}

}  // namespace
}  // namespace atpm
