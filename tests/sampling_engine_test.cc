// Tests for the SamplingEngine layer: serial backend bit-identity against
// the raw generator, parallel backend determinism, cross-backend
// statistical agreement, shard merging, and EPT accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/bit_vector.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "rris/coverage_batch.h"
#include "graph/generators.h"
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

void ExpectSameStats(const SamplingStats& a, const SamplingStats& b) {
  EXPECT_EQ(a.rr_sets_generated, b.rr_sets_generated);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.count_pools, b.count_pools);
  EXPECT_EQ(a.coverage_queries, b.coverage_queries);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
}

// (a) The serial backend reproduces the raw-generator code paths bit for
// bit for a fixed seed.

TEST(SerialSamplingEngineTest, PoolBitIdenticalToRawGenerator) {
  const Graph g = TestGraph(300);
  const uint64_t count = 2000;

  Rng engine_rng(77);
  SerialSamplingEngine engine(g);
  const RRCollection& engine_pool =
      FillPool(engine, nullptr, g.num_nodes(), count, &engine_rng);

  Rng raw_rng(77);
  RRSetGenerator generator(g);
  RRCollection raw_pool(g.num_nodes());
  const uint64_t raw_edges =
      raw_pool.Generate(&generator, nullptr, g.num_nodes(), count, &raw_rng);

  ExpectSamePools(engine_pool, raw_pool);
  EXPECT_EQ(engine.total_edges_examined(), raw_edges);
}

TEST(SerialSamplingEngineTest, PoolBitIdenticalOnResidualGraph) {
  const Graph g = TestGraph(300);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 40; ++v) removed.Set(v);
  const uint32_t alive = g.num_nodes() - 40;

  Rng engine_rng(78);
  SerialSamplingEngine engine(g);
  const RRCollection& engine_pool =
      FillPool(engine, &removed, alive, 1500, &engine_rng);

  Rng raw_rng(78);
  RRSetGenerator generator(g);
  RRCollection raw_pool(g.num_nodes());
  raw_pool.Generate(&generator, &removed, alive, 1500, &raw_rng);

  ExpectSamePools(engine_pool, raw_pool);
}

TEST(SerialSamplingEngineTest, CountBitIdenticalToRawGenerator) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  const uint64_t theta = 20000;

  // The engine draws one base seed from the caller's stream and counts
  // with the stream Rng(base seed) — exactly a raw generator driven by
  // that reseeded stream.
  Rng engine_rng(5);
  SerialSamplingEngine engine(g);
  const uint64_t engine_count = CountOne(engine, 0, &base, nullptr,
                                         g.num_nodes(), theta,
                                         engine_rng.Next());

  Rng reference_rng(5);
  RRSetGenerator reference_generator(g);
  Rng reference_stream(reference_rng.Next());
  const uint64_t reference_count = reference_generator.CountCovering(
      nullptr, g.num_nodes(), theta, 0, &base, &reference_stream);

  EXPECT_EQ(engine_count, reference_count);
  // The caller streams advanced identically (one draw each).
  EXPECT_EQ(engine_rng.Next(), reference_rng.Next());
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

// (b) The parallel backend is deterministic for a fixed (seed, threads).

TEST(ParallelSamplingEngineTest, PoolDeterministicForFixedSeedAndThreads) {
  const Graph g = TestGraph(500);
  const uint64_t count = 8192;  // above the serial-fallback threshold

  RRCollection first(0);
  {
    Rng rng(123);
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    first = FillPool(engine, nullptr, g.num_nodes(), count, &rng);
    EXPECT_EQ(engine.num_workers(), 4u);
  }
  Rng rng(123);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  const RRCollection& second =
      FillPool(engine, nullptr, g.num_nodes(), count, &rng);
  ExpectSamePools(first, second);
}

TEST(ParallelSamplingEngineTest, CountDeterministicForFixedSeedAndThreads) {
  const Graph g = TestGraph(500);
  const uint64_t theta = 60000;
  uint64_t counts[2];
  for (int trial = 0; trial < 2; ++trial) {
    Rng rng(321);
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    counts[trial] = CountOne(engine, 1, nullptr, nullptr, g.num_nodes(), theta,
                             rng.Next());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(ParallelSamplingEngineTest, EdgeAccountingDeterministicAndAggregated) {
  const Graph g = TestGraph(500);
  uint64_t edges[2];
  for (int trial = 0; trial < 2; ++trial) {
    Rng rng(55);
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    FillPool(engine, nullptr, g.num_nodes(), 8192, &rng);
    edges[trial] = engine.total_edges_examined();
  }
  EXPECT_EQ(edges[0], edges[1]);
  // Every RR set examines at least the root's in-edges; with 8192 sets on a
  // BA graph the aggregate must be substantial.
  EXPECT_GT(edges[0], 8192u);
}

TEST(ParallelSamplingEngineTest, SmallBatchesFallBackToSerialBitExactly) {
  const Graph g = TestGraph(300);
  const uint64_t theta = 512;  // below min_parallel_batch

  Rng parallel_rng(42);
  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  const uint64_t parallel_count = CountOne(parallel, 0, nullptr, nullptr,
                                           g.num_nodes(), theta,
                                           parallel_rng.Next());

  Rng serial_rng(42);
  SerialSamplingEngine serial(g);
  const uint64_t serial_count = CountOne(serial, 0, nullptr, nullptr,
                                         g.num_nodes(), theta,
                                         serial_rng.Next());

  EXPECT_EQ(parallel_count, serial_count);
  ExpectSameStats(parallel.stats(), serial.stats());

  // A failed batch is charged alike too: its draws, but no pool and no
  // queries.
  ASSERT_TRUE(failpoint::Arm("alloc.pool_reserve"));
  CoverageQueryBatch batch;
  batch.Add(0);
  const Status parallel_failed =
      parallel.TryCountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(),
                                           theta, 7)
          .status();
  const Status serial_failed =
      serial.TryCountCoverageBatchSeeded(&batch, nullptr, g.num_nodes(), theta,
                                         7)
          .status();
  failpoint::DisarmAll();
  EXPECT_TRUE(parallel_failed.IsResourceExhausted())
      << parallel_failed.ToString();
  EXPECT_TRUE(serial_failed.IsResourceExhausted()) << serial_failed.ToString();
  ExpectSameStats(parallel.stats(), serial.stats());
}

// (c) Serial and parallel backends agree within concentration bounds on a
// 1k-node generator graph: both estimate p = Pr[u in RR set avoiding base],
// and two independent θ-sample means differ by more than
// 5·sqrt(2·p̂(1−p̂)/θ) with probability well under 1e-5.

// Concurrency stress for the TSan lane: min_parallel_batch = 1 forces
// every job through the worker pool, and the alternating small
// TryGeneratePool / TryCountCoverageBatchSeeded rounds keep the hand-off
// machinery hot — job-epoch publication, the pending-counter rendezvous,
// per-worker shard fills, the worker-order merge, and the per-worker
// draw/edge stat harvest. Under -fsanitize=thread this is the data-race
// probe for ParallelSamplingEngine (CI runs it with
// TSAN_OPTIONS=halt_on_error=1); in a plain build it doubles as a
// determinism check — a second identically seeded engine must produce a
// bit-identical pool, counters, and stats through the same churn.
TEST(ParallelSamplingEngineTest, WorkerHandoffStress) {
  const Graph g = TestGraph(200);
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 50;
  ParallelSamplingEngine a(g, DiffusionModel::kIndependentCascade, kThreads,
                           /*min_parallel_batch=*/1);
  ParallelSamplingEngine b(g, DiffusionModel::kIndependentCascade, kThreads,
                           /*min_parallel_batch=*/1);
  Rng rng_a(991), rng_b(991);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < 17; ++v) removed.Set(v);
  const uint32_t alive = g.num_nodes() - 17;
  BitVector base(g.num_nodes());
  base.Set(20);
  base.Set(21);
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t count = 16 + round;  // odd sizes exercise quota remainders
    FillPool(a, &removed, alive, count, &rng_a);
    FillPool(b, &removed, alive, count, &rng_b);
    CoverageQueryBatch batch_a;
    CoverageQueryBatch batch_b;
    for (NodeId q = 30; q < 34; ++q) {
      batch_a.Add(q, &base);
      batch_b.Add(q, &base);
    }
    const uint64_t theta = 64 + 8 * static_cast<uint64_t>(round);
    CountBatch(a, &batch_a, &removed, alive, theta, 17 + round);
    CountBatch(b, &batch_b, &removed, alive, theta, 17 + round);
    for (size_t q = 0; q < batch_a.size(); ++q) {
      ASSERT_EQ(batch_a.hits(q), batch_b.hits(q))
          << "round " << round << " query " << q;
    }
  }
  ExpectSamePools(a.pool(), b.pool());
  EXPECT_EQ(a.stats().rng_draws, b.stats().rng_draws);
  EXPECT_EQ(a.stats().edges_examined, b.stats().edges_examined);
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
}

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

// (d) Batched vs unbatched estimates: a one-query CoverageQueryBatch is the
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

}  // namespace
}  // namespace atpm
