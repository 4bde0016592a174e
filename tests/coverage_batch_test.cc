// Tests for the batched coverage-query layer: kernel correctness against
// stored-set counting, single-query bit-identity with the historical
// per-query sampling, cross-backend determinism and agreement, stored-pool
// AnswerBatch exactness, and batched-vs-unbatched policy equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "core/addatp.h"
#include "core/hatp.h"
#include "core/hntp.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/geometric_scan.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/coverage_batch.h"
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

// --- Stored-pool AnswerBatch: exact agreement with the per-query scans.

TEST(AnswerBatchTest, MatchesPerQueryCoverage) {
  const Graph g = TestGraph(300);
  RRSetGenerator generator(g);
  RRCollection pool(g.num_nodes());
  Rng rng(11);
  pool.Generate(&generator, nullptr, g.num_nodes(), 4000, &rng);

  BitVector base_a(g.num_nodes());
  for (NodeId v = 20; v < 50; ++v) base_a.Set(v);
  BitVector base_b(g.num_nodes());
  for (NodeId v = 100; v < 230; ++v) base_b.Set(v);

  CoverageQueryBatch batch;
  const uint32_t q0 = batch.Add(0);
  const uint32_t q1 = batch.Add(1, &base_a);
  const uint32_t q2 = batch.Add(2, &base_b);
  const uint32_t q3 = batch.Add(1, &base_b);  // repeated node, other base
  const uint32_t q4 = batch.Add(7);
  pool.AnswerBatch(&batch);

  EXPECT_EQ(batch.hits(q0), pool.CoverageOfNode(0));
  EXPECT_EQ(batch.hits(q1), pool.ConditionalCoverage(1, base_a));
  EXPECT_EQ(batch.hits(q2), pool.ConditionalCoverage(2, base_b));
  EXPECT_EQ(batch.hits(q3), pool.ConditionalCoverage(1, base_b));
  EXPECT_EQ(batch.hits(q4), pool.CoverageOfNode(7));

  // With the index built the mixed batch must answer identically (general
  // path), and an all-unconditional batch takes the O(1)-per-query index
  // fast path with the same results.
  pool.BuildIndex();
  CoverageQueryBatch again;
  again.Add(0);
  again.Add(1, &base_a);
  pool.AnswerBatch(&again);
  EXPECT_EQ(again.hits(0), batch.hits(q0));
  EXPECT_EQ(again.hits(1), batch.hits(q1));

  CoverageQueryBatch unconditional;
  unconditional.Add(0);
  unconditional.Add(7);
  pool.AnswerBatch(&unconditional);
  EXPECT_EQ(unconditional.hits(0), batch.hits(q0));
  EXPECT_EQ(unconditional.hits(1), batch.hits(q4));
}

TEST(AnswerBatchTest, EmptyBatchAndEmptyPoolAreNoops) {
  const Graph g = TestGraph(50);
  RRCollection pool(g.num_nodes());
  CoverageQueryBatch batch;
  pool.AnswerBatch(&batch);  // no queries, no sets
  EXPECT_EQ(batch.size(), 0u);

  batch.Add(3);
  pool.AnswerBatch(&batch);  // no sets
  EXPECT_EQ(batch.hits(0), 0u);
}

// --- Sampling kernel: a multi-query batch must agree exactly with counting
// on the equivalent stored pool (same seed stream), since the batch answers
// are defined over the same RR-set distribution.

TEST(CountCoveringBatchTest, MatchesStoredPoolCounting) {
  // Two disjoint copies of the test graph: an RR set lies inside one copy,
  // so queries on both copies are never all found in one set.
  const Graph half = TestGraph(150);
  const NodeId offset = half.num_nodes();
  GraphBuilder builder;
  for (NodeId v = 0; v < offset; ++v) {
    const auto neighbors = half.OutNeighbors(v);
    const auto probs = half.OutProbs(v);
    for (size_t j = 0; j < neighbors.size(); ++j) {
      builder.AddEdge(v, neighbors[j], probs[j]);
      builder.AddEdge(offset + v, offset + neighbors[j], probs[j]);
    }
  }
  const Graph g = builder.Build().value();
  const uint64_t theta = 3000;

  // Stored reference: generate theta sets from seed 99 and count exactly.
  RRSetGenerator ref_generator(g);
  RRCollection ref_pool(g.num_nodes());
  Rng ref_rng(99);
  ref_pool.Generate(&ref_generator, nullptr, g.num_nodes(), theta, &ref_rng);

  // Kernel with UNCONDITIONAL queries only, spread over both copies: no
  // base to abort on and never every query found, so no walk settles
  // early and the kernel walks exactly the sets the reference stored (same
  // stream), so the counts must match bit for bit.
  RRSetGenerator generator(g);
  std::vector<CoverageQuery> queries = {
      {0, nullptr}, {1, nullptr}, {offset + 5, nullptr}};
  std::vector<uint64_t> hits(queries.size());
  Rng rng(99);
  generator.CountCoveringBatch(nullptr, g.num_nodes(), theta, queries,
                               hits.data(), &rng);

  EXPECT_EQ(hits[0], ref_pool.CoverageOfNode(0));
  EXPECT_EQ(hits[1], ref_pool.CoverageOfNode(1));
  EXPECT_EQ(hits[2], ref_pool.CoverageOfNode(offset + 5));
  EXPECT_GT(hits[2], 0u);
}

// On a p = 1 path only the roots draw (a certain edge fires without a
// draw), so cutting a settled walk short leaves the stream untouched: the
// counts must equal Generate's sets on the same seed, for fewer examined
// edges. Queries 0 and 1 have no base: once found they are settled.
// Query 2 stays open until its base {30} is hit or the walk ends.
TEST(CountCoveringBatchTest, SettledWalksStopEarlyOnTheSameStream) {
  const Graph g = MakePathGraph(60, 1.0);  // RR(r) = {0, ..., r}
  BitVector base(g.num_nodes());
  base.Set(30);
  const std::vector<CoverageQuery> queries = {
      {10, nullptr}, {25, nullptr}, {12, &base}};
  const uint64_t theta = 4000;
  RRSetGenerator counter(g);
  std::vector<uint64_t> hits(queries.size());
  Rng rng(31);
  const uint64_t edges = counter.CountCoveringBatch(
      nullptr, g.num_nodes(), theta, queries, hits.data(), &rng);

  RRSetGenerator generator(g);
  Rng ref_rng(31);
  std::vector<NodeId> rr;
  std::vector<uint64_t> expected(queries.size());
  uint64_t full_edges = 0;
  // A root r >= 30 walks r, r-1, ..., touches the base at 30 and settles
  // on finding 10, having queued r..11; a lower root never kills query 2,
  // so its walk runs out, queuing r..0.
  uint64_t expected_settled = 0;
  uint64_t expected_nodes = 0;
  for (uint64_t t = 0; t < theta; ++t) {
    full_edges += generator.Generate(nullptr, g.num_nodes(), &ref_rng, &rr);
    const NodeId root = rr.front();
    expected_settled += root >= 30;
    expected_nodes += root >= 30 ? root - 10 : root + 1;
    for (size_t q = 0; q < queries.size(); ++q) {
      bool has_node = false;
      bool hits_base = false;
      for (NodeId v : rr) {
        has_node |= v == queries[q].node;
        hits_base |= queries[q].base != nullptr && queries[q].base->Test(v);
      }
      if (has_node && !hits_base) ++expected[q];
    }
  }
  EXPECT_EQ(hits, expected);
  EXPECT_EQ(counter.rng_draws(), theta);  // one root draw per set
  EXPECT_EQ(generator.rng_draws(), theta);
  EXPECT_EQ(rng.Next(), ref_rng.Next());
  EXPECT_LT(edges, full_edges);
  EXPECT_EQ(counter.settled_walks(), expected_settled);
  EXPECT_EQ(counter.count_walk_nodes(), expected_nodes);
  EXPECT_EQ(generator.settled_walks(), 0u);  // Generate counts no walks
  EXPECT_EQ(generator.count_walk_nodes(), 0u);

  // Node 0 is in every set; a root at 0 settles the query before any walk
  // and must still count. Every walk settles: a root r > 0 queues r..1.
  const CoverageQuery everywhere{0, nullptr};
  uint64_t all_hits = 0;
  RRSetGenerator root_counter(g);
  Rng root_rng(32);
  root_counter.CountCoveringBatch(nullptr, g.num_nodes(), theta,
                                  {&everywhere, 1}, &all_hits, &root_rng);
  EXPECT_EQ(all_hits, theta);
  Rng root_ref_rng(32);
  uint64_t root_sum = 0;
  uint64_t zero_roots = 0;
  for (uint64_t t = 0; t < theta; ++t) {
    generator.Generate(nullptr, g.num_nodes(), &root_ref_rng, &rr);
    root_sum += rr.front();
    zero_roots += rr.front() == 0;
  }
  EXPECT_GT(zero_roots, 0u);
  EXPECT_EQ(root_counter.settled_walks(), theta);
  EXPECT_EQ(root_counter.count_walk_nodes(), root_sum);

  // The engine harvests both counters into SamplingStats, once per
  // successful count batch and never from a pool fill.
  SerialSamplingEngine engine(g);
  CoverageQueryBatch batch;
  for (const CoverageQuery& query : queries) batch.Add(query.node, query.base);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, 33);
  Rng fill_rng(34);
  FillPool(engine, nullptr, g.num_nodes(), 500, &fill_rng);
  RRSetGenerator replay(g);
  std::vector<uint64_t> replay_hits;
  ChunkedReferenceCount(&replay, nullptr, g.num_nodes(), theta, queries, 33,
                        &replay_hits);
  EXPECT_GT(replay.settled_walks(), 0u);
  EXPECT_EQ(engine.stats().settled_walks, replay.settled_walks());
  EXPECT_EQ(engine.stats().count_walk_nodes, replay.count_walk_nodes());
}

TEST(CountCoveringBatchTest, SingleQueryBitIdenticalToCountCovering) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 40; ++v) base.Set(v);
  const uint64_t theta = 5000;

  RRSetGenerator a(g);
  Rng rng_a(123);
  const uint64_t covered =
      a.CountCovering(nullptr, g.num_nodes(), theta, 0, &base, &rng_a);

  RRSetGenerator b(g);
  const CoverageQuery query{0, &base};
  uint64_t hits = 0;
  Rng rng_b(123);
  b.CountCoveringBatch(nullptr, g.num_nodes(), theta, {&query, 1}, &hits,
                       &rng_b);

  EXPECT_EQ(covered, hits);
  // Both consumed the identical stream.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

// --- Query-mask kernel vs the per-query kernel it replaced.

// CountCoveringBatch as it stood before the interesting bitmap and the
// query masks: every visited node loops over all queries, probing each
// base and comparing each target, and the walk stops once every query is
// settled (dead, or found with no alive base node). Kept here, with the
// kernel helpers it called, as the reference the mask kernel must
// reproduce bit for bit.
class PerQueryReferenceKernel {
 public:
  PerQueryReferenceKernel(const Graph& graph, DiffusionModel model,
                          SamplingKernel kernel)
      : g_(graph),
        model_(model),
        kernel_(kernel),
        visited_(graph.num_nodes()) {}

  uint64_t Count(const BitVector* removed, uint32_t num_alive, uint64_t theta,
                 std::span<const CoverageQuery> queries, uint64_t* hits,
                 Rng* rng, const BudgetGate* budget, uint64_t* sampled) {
    const size_t num_queries = queries.size();
    if (sampled != nullptr) *sampled = theta;
    for (size_t q = 0; q < num_queries; ++q) hits[q] = 0;
    if (num_queries == 0) return 0;
    std::vector<uint8_t> dead(num_queries), found(num_queries);
    // A query no walk can disqualify: no base, or no alive base node.
    std::vector<uint8_t> unkillable(num_queries, 1);
    for (size_t q = 0; q < num_queries; ++q) {
      for (NodeId v = 0; v < g_.num_nodes() && queries[q].base != nullptr;
           ++v) {
        if (queries[q].base->Test(v) &&
            (removed == nullptr || !removed->Test(v))) {
          unkillable[q] = 0;
        }
      }
    }
    const bool jump = kernel_ == SamplingKernel::kGeometricJump;
    uint64_t edges_examined = 0;
    // The walk stops once every query is dead or found unkillable.
    const auto settled = [&] {
      for (size_t q = 0; q < num_queries; ++q) {
        if (!dead[q] && !(found[q] && unkillable[q])) return false;
      }
      return true;
    };
    const auto skip = [&](NodeId w) {
      return visited_.IsMarked(w) ||
             (removed != nullptr && removed->Test(w));
    };
    const auto process = [&](NodeId w) -> bool {
      if (skip(w)) return true;
      for (size_t q = 0; q < num_queries; ++q) {
        if (!dead[q] && queries[q].base != nullptr &&
            queries[q].base->Test(w)) {
          dead[q] = 1;
        }
        if (!dead[q] && w == queries[q].node) found[q] = 1;
      }
      if (settled()) return false;
      visited_.Mark(w);
      scratch_.push_back(w);
      return true;
    };
    for (uint64_t t = 0; t < theta; ++t) {
      if (budget != nullptr && (t & 63) == 0 &&
          budget->Exhausted() != BudgetStop::kNone) {
        if (sampled != nullptr) *sampled = t;
        break;
      }
      visited_.NextEpoch();
      scratch_.clear();
      const NodeId root = SampleRoot(removed, num_alive, rng);
      for (size_t q = 0; q < num_queries; ++q) {
        const bool disqualified =
            queries[q].base != nullptr && queries[q].base->Test(root);
        dead[q] = disqualified;
        found[q] = !disqualified && root == queries[q].node;
      }
      if (!settled()) {
        visited_.Mark(root);
        scratch_.push_back(root);
      }
      for (size_t head = 0; head < scratch_.size(); ++head) {
        const NodeId v = scratch_[head];
        if (model_ == DiffusionModel::kLinearThreshold) {
          edges_examined += g_.InDegree(v);
          NodeId w;
          if (jump) {
            w = PickLtFast(v, removed, rng);
          } else {
            ++draws_;
            w = PickLtPrefix(v, removed, rng);
          }
          if (w >= g_.num_nodes()) continue;
          if (!process(w)) break;
          continue;
        }
        const NodeWeightClass cls = g_.InWeightClass(v);
        if (jump && (cls == NodeWeightClass::kUniform ||
                     cls == NodeWeightClass::kFewDistinct)) {
          edges_examined += g_.InDegree(v);
          const auto grouped = g_.JumpInNeighbors(v);
          const auto neigh = g_.InNeighbors(v);
          const bool few = cls == NodeWeightClass::kFewDistinct;
          if (!GeometricSegmentScan(g_.InProbSegments(v), rng, &draws_,
                                    [&](uint32_t j) {
                                      return process(few ? grouped[j]
                                                         : neigh[j]);
                                    })) {
            break;
          }
          continue;
        }
        const auto neigh = g_.InNeighbors(v);
        const auto probs = g_.InProbs(v);
        edges_examined += neigh.size();
        bool abort = false;
        for (uint32_t j = 0; j < neigh.size(); ++j) {
          const NodeId w = neigh[j];
          if (visited_.IsMarked(w)) continue;
          if (removed != nullptr && removed->Test(w)) continue;
          ++draws_;
          if (!rng->Bernoulli(probs[j])) continue;
          if (!process(w)) {
            abort = true;
            break;
          }
        }
        if (abort) break;
      }
      for (size_t q = 0; q < num_queries; ++q) {
        if (found[q] && !dead[q]) ++hits[q];
      }
    }
    return edges_examined;
  }

  uint64_t rng_draws() const { return draws_; }

 private:
  // Rejection sampling, then the target-th alive node (what the alive
  // cache serves on depleted graphs).
  NodeId SampleRoot(const BitVector* removed, uint32_t num_alive, Rng* rng) {
    const NodeId n = g_.num_nodes();
    if (removed == nullptr) {
      ++draws_;
      return static_cast<NodeId>(rng->UniformInt(n));
    }
    for (int t = 0; t < 64; ++t) {
      ++draws_;
      const NodeId v = static_cast<NodeId>(rng->UniformInt(n));
      if (!removed->Test(v)) return v;
    }
    ++draws_;
    uint64_t target = rng->UniformInt(num_alive);
    for (NodeId v = 0;; ++v) {
      if (!removed->Test(v) && target-- == 0) return v;
    }
  }

  NodeId PickLtPrefix(NodeId v, const BitVector* removed, Rng* rng) {
    const auto neigh = g_.InNeighbors(v);
    const auto probs = g_.InProbs(v);
    double r = rng->UniformDouble();
    for (uint32_t j = 0; j < neigh.size(); ++j) {
      if (removed != nullptr && removed->Test(neigh[j])) continue;
      if (r < probs[j]) return neigh[j];
      r -= probs[j];
    }
    return g_.num_nodes();
  }

  NodeId PickLtFast(NodeId v, const BitVector* removed, Rng* rng) {
    const NodeId n = g_.num_nodes();
    switch (g_.LtInPlan(v)) {
      case LtPickPlan::kNone:
        return n;
      case LtPickPlan::kUniform: {
        const ProbSegment seg = g_.InProbSegments(v)[0];
        const double p = static_cast<double>(seg.prob);
        if (p <= 0.0) return n;
        ++draws_;
        const double j = rng->UniformDouble() / p;
        if (j >= static_cast<double>(seg.length)) return n;
        const NodeId u = g_.InNeighbors(v)[static_cast<uint32_t>(j)];
        return (removed != nullptr && removed->Test(u)) ? n : u;
      }
      case LtPickPlan::kAlias: {
        const auto slots = g_.LtAliasSlots(v);
        ++draws_;
        const double x =
            rng->UniformDouble() * static_cast<double>(slots.size());
        uint32_t i = static_cast<uint32_t>(x);
        if (i >= slots.size()) i = static_cast<uint32_t>(slots.size()) - 1;
        if (x - static_cast<double>(i) >= slots[i].threshold) {
          i = slots[i].alias;
        }
        if (i + 1 >= slots.size()) return n;
        const NodeId u = g_.InNeighbors(v)[i];
        return (removed != nullptr && removed->Test(u)) ? n : u;
      }
      case LtPickPlan::kPrefix:
        ++draws_;
        return PickLtPrefix(v, removed, rng);
    }
    return n;
  }

  const Graph& g_;
  DiffusionModel model_;
  SamplingKernel kernel_;
  EpochVisitedSet visited_;
  std::vector<NodeId> scratch_;
  uint64_t draws_ = 0;
};

struct KernelRun {
  std::vector<uint64_t> hits;
  uint64_t edges = 0;
  uint64_t draws = 0;
  uint64_t sampled = 0;
  uint64_t next_rng = 0;

  bool operator==(const KernelRun&) const = default;
};

KernelRun RunMaskKernel(const Graph& g, DiffusionModel model,
                        SamplingKernel kernel, const BitVector* removed,
                        uint32_t num_alive, uint64_t theta,
                        std::span<const CoverageQuery> queries, uint64_t seed,
                        const BudgetGate* budget = nullptr) {
  RRSetGenerator generator(g, model, kernel);
  KernelRun run;
  run.hits.resize(queries.size());
  Rng rng(seed);
  run.edges = generator.CountCoveringBatch(removed, num_alive, theta, queries,
                                           run.hits.data(), &rng, budget,
                                           &run.sampled);
  run.draws = generator.rng_draws();
  run.next_rng = rng.Next();
  return run;
}

KernelRun RunPerQueryKernel(const Graph& g, DiffusionModel model,
                            SamplingKernel kernel, const BitVector* removed,
                            uint32_t num_alive, uint64_t theta,
                            std::span<const CoverageQuery> queries,
                            uint64_t seed) {
  PerQueryReferenceKernel reference(g, model, kernel);
  KernelRun run;
  run.hits.resize(queries.size());
  Rng rng(seed);
  run.edges = reference.Count(removed, num_alive, theta, queries,
                              run.hits.data(), &rng, nullptr, &run.sampled);
  run.draws = reference.rng_draws();
  run.next_rng = rng.Next();
  return run;
}

TEST(QueryMaskKernelTest, MatchesPerQueryKernelAcrossBatchShapes) {
  const Graph wc = TestGraph(300);
  Graph uniform_random = [] {
    Rng rng(7);
    BarabasiAlbertOptions options;
    options.num_nodes = 300;
    options.edges_per_node = 3;
    Graph g = GenerateBarabasiAlbert(options, &rng).value();
    Rng wrng(8);
    ApplyUniformRandomProbability(&g, 0.01, 0.3, &wrng);
    return g;
  }();
  const NodeId n = wc.num_nodes();

  Rng setup(2014);
  BitVector removed(n);
  for (NodeId v = 0; v < n; ++v) {
    if (setup.UniformInt(10) == 0) removed.Set(v);
  }
  const uint32_t num_alive = n - static_cast<uint32_t>(removed.Count());
  // Base pool: random alive subsets, one base inside `removed` (drops out
  // of the masks), and one base holding every alive node (any query on it
  // dies at the root).
  std::vector<BitVector> bases(6, BitVector(n));
  for (int b = 0; b < 4; ++b) {
    for (NodeId v = 0; v < n; ++v) {
      if (!removed.Test(v) && setup.UniformInt(8 + 8 * b) == 0) {
        bases[b].Set(v);
      }
    }
  }
  bases[0].Clear(0);  // node 0 may query bases[0]
  for (NodeId v = 0; v < n; ++v) {
    if (removed.Test(v) && setup.UniformInt(2) == 0) bases[4].Set(v);
    if (!removed.Test(v)) bases[5].Set(v);
  }
  const BitVector* full = &bases[5];

  struct Config {
    const Graph* graph;
    DiffusionModel model;
  };
  const Config configs[] = {
      {&wc, DiffusionModel::kIndependentCascade},
      {&wc, DiffusionModel::kLinearThreshold},
      {&uniform_random, DiffusionModel::kIndependentCascade},
  };
  int compared = 0;
  // Repeated query nodes (a small node range) and repeated base pointers
  // (a small base pool, nullptr included); a node is never in its base.
  const auto random_queries = [&](size_t num_queries) {
    std::vector<CoverageQuery> queries;
    while (queries.size() < num_queries) {
      const NodeId node = static_cast<NodeId>(setup.UniformInt(40));
      const uint64_t pick = setup.UniformInt(7);
      const BitVector* base = pick == 6 ? nullptr : &bases[pick];
      if (base != nullptr && base->Test(node)) continue;
      queries.push_back(CoverageQuery{node, base});
    }
    return queries;
  };
  std::vector<std::vector<CoverageQuery>> batches;
  for (const size_t num_queries : {1, 2, 8, 63, 64, 65, 130}) {
    batches.push_back(random_queries(num_queries));
  }
  // Batches wider than one mask word whose words die apart: the first 64
  // queries share one base and the rest have none, or the reverse, so only
  // a walk that checks every word keeps going after one word is all dead.
  for (const size_t num_queries : {65, 130}) {
    for (const bool based_first : {true, false}) {
      std::vector<CoverageQuery> queries = random_queries(num_queries);
      for (size_t q = 0; q < num_queries; ++q) {
        queries[q].base = (q < 64) == based_first ? &bases[0] : nullptr;
        if (queries[q].base != nullptr && bases[0].Test(queries[q].node)) {
          queries[q].node = 0;  // ensured below to sit outside bases[0]
        }
      }
      batches.push_back(queries);
    }
  }
  for (const std::vector<CoverageQuery>& queries : batches) {
    const size_t num_queries = queries.size();
    for (const Config& config : configs) {
      for (const SamplingKernel kernel :
           {SamplingKernel::kGeometricJump, SamplingKernel::kPerEdge}) {
        for (const bool residual : {false, true}) {
          const BitVector* rem = residual ? &removed : nullptr;
          const uint32_t alive = residual ? num_alive : n;
          const uint64_t seed = 1000 + compared;
          EXPECT_EQ(RunMaskKernel(*config.graph, config.model, kernel, rem,
                                  alive, 3000, queries, seed),
                    RunPerQueryKernel(*config.graph, config.model, kernel,
                                      rem, alive, 3000, queries, seed))
              << "Q=" << num_queries << " model="
              << static_cast<int>(config.model) << " kernel="
              << SamplingKernelName(kernel) << " residual=" << residual;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 11 * 3 * 2 * 2);

  // Every query on the all-alive base (its nodes removed, so never in
  // their base's alive part): each set dies at its root, so no edge is
  // examined and nothing is ever hit.
  std::vector<CoverageQuery> doomed;
  for (NodeId v = 0; v < n && doomed.size() < 3; ++v) {
    if (removed.Test(v)) doomed.push_back(CoverageQuery{v, full});
  }
  for (const SamplingKernel kernel :
       {SamplingKernel::kGeometricJump, SamplingKernel::kPerEdge}) {
    const KernelRun run =
        RunMaskKernel(wc, DiffusionModel::kIndependentCascade, kernel,
                      &removed, num_alive, 2000, doomed, 77);
    EXPECT_EQ(run, RunPerQueryKernel(wc, DiffusionModel::kIndependentCascade,
                                     kernel, &removed, num_alive, 2000,
                                     doomed, 77));
    EXPECT_EQ(run.hits, std::vector<uint64_t>(doomed.size(), 0));
    EXPECT_EQ(run.edges, 0u);
  }
}

TEST(QueryMaskKernelTest, BudgetTruncationMatchesThePerQueryPrefix) {
  const Graph g = TestGraph(300);
  BitVector base(g.num_nodes());
  for (NodeId v = 30; v < 90; ++v) base.Set(v);
  std::vector<CoverageQuery> queries;
  for (NodeId v = 0; v < 70; ++v) {
    if (!base.Test(v)) queries.push_back(CoverageQuery{v, &base});
    queries.push_back(CoverageQuery{v, nullptr});
  }
  // A 2 ms deadline stops a 10^8-set request at some poll boundary; the
  // truncated run must equal the per-query kernel asked for exactly the
  // sets that were drawn.
  RunBudget budget;
  budget.deadline_seconds = 0.002;
  const BudgetGate gate(budget);
  const KernelRun truncated =
      RunMaskKernel(g, DiffusionModel::kIndependentCascade,
                    SamplingKernel::kGeometricJump, nullptr, g.num_nodes(),
                    100'000'000, queries, 9, &gate);
  ASSERT_LT(truncated.sampled, 100'000'000u);
  EXPECT_EQ(truncated.sampled % RRSetGenerator::kBudgetStride, 0u);
  KernelRun prefix = RunPerQueryKernel(
      g, DiffusionModel::kIndependentCascade, SamplingKernel::kGeometricJump,
      nullptr, g.num_nodes(), truncated.sampled, queries, 9);
  EXPECT_EQ(truncated, prefix);

  // An already-exhausted gate: nothing drawn, nothing counted.
  RunBudget capped;
  capped.rr_pool_byte_cap = 1;
  BudgetGate spent(capped);
  spent.AddPoolBytes(1);
  const KernelRun none = RunMaskKernel(
      g, DiffusionModel::kIndependentCascade, SamplingKernel::kGeometricJump,
      nullptr, g.num_nodes(), 5000, queries, 9, &spent);
  EXPECT_EQ(none.sampled, 0u);
  EXPECT_EQ(none.draws, 0u);
  EXPECT_EQ(none.next_rng, Rng(9).Next());
}

// --- Engine layer: serial single-query batch ≡ historical per-query path,
// parallel batch deterministic, backends agree statistically (±3σ).

TEST(EngineBatchTest, SerialBatchBitIdenticalToPerQueryCounts) {
  const Graph g = TestGraph(400);
  BitVector front(g.num_nodes());
  for (NodeId v = 5; v < 15; ++v) front.Set(v);
  BitVector rear(g.num_nodes());
  for (NodeId v = 40; v < 160; ++v) rear.Set(v);
  const uint64_t theta = 20000;
  const uint64_t seed = 4242;

  SerialSamplingEngine engine(g);
  CoverageQueryBatch batch;
  const uint32_t qf = batch.Add(0, &front);
  const uint32_t qr = batch.Add(0, &rear);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, seed);

  // A one-query batch from the same seed must agree with the front slot
  // only when the front query alone never aborts differently — with a
  // front-only batch the rear disqualifications vanish, so the walks (and
  // the RNG stream inside a set) can diverge. The invariant that DOES hold
  // bit-for-bit: the same batch answered twice is identical, and a
  // single-query batch equals the raw generator replaying the engine's
  // chunk streams.
  CoverageQueryBatch again;
  again.Add(0, &front);
  again.Add(0, &rear);
  CountBatch(engine, &again, nullptr, g.num_nodes(), theta, seed);
  EXPECT_EQ(batch.hits(qf), again.hits(0));
  EXPECT_EQ(batch.hits(qr), again.hits(1));

  const uint64_t single = CountOne(engine, 0, &front, nullptr, g.num_nodes(),
                                   theta, seed);
  RRSetGenerator reference(g);
  const CoverageQuery query{0, &front};
  std::vector<uint64_t> hits;
  ChunkedReferenceCount(&reference, nullptr, g.num_nodes(), theta, {&query, 1},
                        seed, &hits);
  EXPECT_EQ(single, hits[0]);
}

TEST(EngineBatchTest, ParallelBatchDeterministicForFixedSeedAndThreads) {
  const Graph g = TestGraph(500);
  BitVector front(g.num_nodes());
  for (NodeId v = 5; v < 15; ++v) front.Set(v);
  BitVector rear(g.num_nodes());
  for (NodeId v = 50; v < 180; ++v) rear.Set(v);
  const uint64_t theta = 60000;  // engages the worker pool

  uint64_t hits[2][2];
  for (int trial = 0; trial < 2; ++trial) {
    ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
    CoverageQueryBatch batch;
    batch.Add(1, &front);
    batch.Add(1, &rear);
    CountBatch(engine, &batch, nullptr, g.num_nodes(), theta, 777);
    hits[trial][0] = batch.hits(0);
    hits[trial][1] = batch.hits(1);
  }
  EXPECT_EQ(hits[0][0], hits[1][0]);
  EXPECT_EQ(hits[0][1], hits[1][1]);
  EXPECT_GT(hits[0][0], 0u);
}

TEST(EngineBatchTest, ParallelInlinePathBitIdenticalToSerial) {
  const Graph g = TestGraph(300);
  BitVector rear(g.num_nodes());
  for (NodeId v = 30; v < 90; ++v) rear.Set(v);
  const uint64_t theta = 512;  // below min_parallel_batch

  SerialSamplingEngine serial(g);
  CoverageQueryBatch serial_batch;
  serial_batch.Add(0);
  serial_batch.Add(0, &rear);
  CountBatch(serial, &serial_batch, nullptr, g.num_nodes(), theta, 31);

  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  CoverageQueryBatch parallel_batch;
  parallel_batch.Add(0);
  parallel_batch.Add(0, &rear);
  CountBatch(parallel, &parallel_batch, nullptr, g.num_nodes(), theta, 31);

  EXPECT_EQ(serial_batch.hits(0), parallel_batch.hits(0));
  EXPECT_EQ(serial_batch.hits(1), parallel_batch.hits(1));
}

TEST(EngineBatchTest, BackendsAgreeWithinThreeSigma) {
  const Graph g = TestGraph(1000);
  BitVector base(g.num_nodes());
  for (NodeId v = 50; v < 80; ++v) base.Set(v);
  const uint64_t theta = 200000;

  SerialSamplingEngine serial(g);
  CoverageQueryBatch serial_batch;
  serial_batch.Add(0, &base);
  serial_batch.Add(3);
  CountBatch(serial, &serial_batch, nullptr, g.num_nodes(), theta, 2024);

  ParallelSamplingEngine parallel(g, DiffusionModel::kIndependentCascade, 4);
  CoverageQueryBatch parallel_batch;
  parallel_batch.Add(0, &base);
  parallel_batch.Add(3);
  CountBatch(parallel, &parallel_batch, nullptr, g.num_nodes(), theta, 4048);

  for (int q = 0; q < 2; ++q) {
    const double p_serial = static_cast<double>(serial_batch.hits(q)) /
                            static_cast<double>(theta);
    const double p_parallel = static_cast<double>(parallel_batch.hits(q)) /
                              static_cast<double>(theta);
    const double p_hat = 0.5 * (p_serial + p_parallel);
    const double sigma =
        std::sqrt(2.0 * p_hat * (1.0 - p_hat) / static_cast<double>(theta));
    EXPECT_GT(p_hat, 0.0) << "query " << q;
    EXPECT_NEAR(p_serial, p_parallel, 3.0 * sigma + 1e-9) << "query " << q;
  }
}

TEST(EngineBatchTest, StatsTrackPoolsQueriesAndReuse) {
  const Graph g = TestGraph(200);
  SerialSamplingEngine engine(g);
  Rng rng(5);

  CoverageQueryBatch batch;
  batch.Add(0);
  batch.Add(1);
  CountBatch(engine, &batch, nullptr, g.num_nodes(), 1000, rng.Next());
  CountOne(engine, 2, nullptr, nullptr, g.num_nodes(), 500, rng.Next());
  FillPool(engine, nullptr, g.num_nodes(), 300, &rng);

  const SamplingStats& stats = engine.stats();
  EXPECT_EQ(stats.rr_sets_generated, 1000u + 500u + 300u);
  EXPECT_EQ(stats.count_pools, 2u);
  EXPECT_EQ(stats.coverage_queries, 3u);
  EXPECT_GT(stats.edges_examined, 0u);
  EXPECT_DOUBLE_EQ(stats.ReuseRatio(), 1.5);

  engine.ResetStats();
  EXPECT_EQ(engine.stats().rr_sets_generated, 0u);
  EXPECT_EQ(engine.stats().ReuseRatio(), 0.0);
}

// --- RIS oracle batched marginals: one pool, Cov(u | base) identity.

TEST(RisOracleBatchTest, BatchedMarginalsMatchDefinitionWithinTolerance) {
  const Graph g = TestGraph(500);
  SerialSamplingEngine engine(g);
  RisOracleOptions options;
  options.num_rr_sets = 1 << 16;
  options.seed = 9;
  RisSpreadOracle oracle(&engine, options);

  const std::vector<NodeId> base = {0, 1};
  const std::vector<NodeId> candidates = {2, 5, 0 /* in base */, 9};
  const std::vector<double> marginals =
      oracle.ExpectedMarginalSpreads(candidates, base, nullptr);
  ASSERT_EQ(marginals.size(), candidates.size());
  EXPECT_DOUBLE_EQ(marginals[2], 0.0);  // candidate inside the base

  // Each batched marginal must agree with the generic two-pool fallback
  // within a loose Monte Carlo tolerance.
  MonteCarloOptions mc_options;
  mc_options.num_samples = 20000;
  mc_options.seed = 10;
  MonteCarloSpreadOracle reference(g, mc_options);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double expected =
        reference.ExpectedMarginalSpread(candidates[i], base, nullptr);
    EXPECT_NEAR(marginals[i], expected, 0.35 + 0.1 * expected)
        << "candidate " << candidates[i];
  }
}

// --- Policies: batched rounds must reproduce the unbatched decisions on a
// clear-cut instance while spending well under half the RR sets.

struct PolicyRuns {
  AdaptiveRunResult batched;
  AdaptiveRunResult unbatched;
};

template <typename Policy, typename Options>
PolicyRuns RunBothModes(const Graph& g, const ProfitProblem& problem,
                        Options options) {
  PolicyRuns runs;
  for (int mode = 0; mode < 2; ++mode) {
    options.sampling.batched_rounds = mode == 0;
    Policy policy(options);
    Rng world_rng(42);
    AdaptiveEnvironment env(Realization::Sample(g, &world_rng));
    Rng rng(1);
    Result<AdaptiveRunResult> run = policy.Run(problem, &env, &rng);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    (mode == 0 ? runs.batched : runs.unbatched) = std::move(run).value();
  }
  return runs;
}

std::vector<SeedDecision> Decisions(const AdaptiveRunResult& run) {
  std::vector<SeedDecision> decisions;
  decisions.reserve(run.steps.size());
  for (const AdaptiveStepRecord& step : run.steps) {
    decisions.push_back(step.decision);
  }
  return decisions;
}

// Clear-cut costs: cheap hubs (0.2) and overpriced alternates (60). Every
// decision's margin dwarfs its certified error, so any sound sampling
// layout makes the same decisions — an exact invariant, unlike instances
// calibrated to the decision bar, where borderline candidates resolve by
// the luck of the stream.
ProfitProblem ClearCutProblem(const Graph& g) {
  ProfitProblem problem;
  problem.graph = &g;
  problem.costs.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < 10; ++u) {
    problem.targets.push_back(u);
    problem.costs[u] = (u % 2 == 0) ? 0.2 : 60.0;
  }
  return problem;
}

TEST(BatchedRoundsTest, HatpMatchesUnbatchedDecisionsOnClearCutCosts) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = ClearCutProblem(g);

  const PolicyRuns runs = RunBothModes<HatpPolicy>(g, problem, HatpOptions{});

  EXPECT_FALSE(runs.batched.seeds.empty());
  EXPECT_EQ(runs.batched.seeds, runs.unbatched.seeds);
  EXPECT_EQ(Decisions(runs.batched), Decisions(runs.unbatched));
  // Some decision runs several rounds, so its counts are kept and topped up.
  uint32_t max_rounds = 0;
  for (const AdaptiveStepRecord& step : runs.batched.steps) {
    max_rounds = std::max(max_rounds, step.rounds);
  }
  EXPECT_GE(max_rounds, 3u);
  // One pool per round, topping up kept counts, against two fresh pools per
  // round: well under the unbatched RR sets, at reuse ratio exactly 2.
  EXPECT_LT(static_cast<double>(runs.batched.total_rr_sets),
            static_cast<double>(runs.unbatched.total_rr_sets) / 1.5);
  EXPECT_EQ(runs.batched.total_coverage_queries,
            2 * runs.batched.total_count_pools);
  EXPECT_EQ(runs.unbatched.total_coverage_queries,
            runs.unbatched.total_count_pools);
}

// Runs the rounds of one decision through a planner and replays each
// top-up pool on its own with the same Rng stream: round r's kept hits are
// the sum of the first r top-ups' hits, counted over exactly theta sets.
TEST(BatchedRoundsTest, KeptHitsEqualTheSumOfTopUpPools) {
  const Graph g = TestGraph(300);
  const NodeId n = g.num_nodes();
  SerialSamplingEngine engine(g);
  const std::vector<NodeId> targets = {0, 1, 2};
  SpeculativeRoundPlanner planner(SamplingOptions{}, targets);
  BitVector front_base(n);
  front_base.Set(7);
  BitVector rear_base(n);
  rear_base.Set(1);
  rear_base.Set(2);

  Rng rng(11);
  Rng replay_rng(11);
  uint64_t kept_front = 0;
  uint64_t kept_rear = 0;
  uint64_t kept_sets = 0;
  planner.Begin(0, 0, /*epoch=*/0, 1000);
  for (uint64_t theta : {1000u, 2500u, 6100u, 13000u}) {
    const uint64_t top_up = theta - kept_sets;
    EXPECT_EQ(planner.RoundDraw(theta), top_up);
    FrontRearHits hits;
    const Result<SpeculativeRoundPlanner::RoundStep> step =
        planner.NextRound(&engine, 0, front_base, rear_base, nullptr, n, theta,
                          {}, 0, UINT64_MAX, &rng, &hits);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    EXPECT_EQ(step.value(), SpeculativeRoundPlanner::RoundStep::kSampled);

    CoverageQueryBatch batch;
    batch.Add(0, &front_base);
    batch.Add(0, &rear_base);
    const Result<uint64_t> sampled =
        engine.TryCountCoverageBatch(&batch, nullptr, n, top_up, &replay_rng);
    ASSERT_TRUE(sampled.ok());
    kept_front += batch.hits(0);
    kept_rear += batch.hits(1);
    kept_sets += sampled.value();

    EXPECT_EQ(hits.sets, top_up);
    EXPECT_EQ(hits.theta, theta);
    EXPECT_EQ(kept_sets, theta);
    EXPECT_EQ(hits.front, kept_front);
    EXPECT_EQ(hits.rear, kept_rear);
    EXPECT_EQ(hits.pools, 1u);
    EXPECT_EQ(hits.queries, 2u);
  }
  EXPECT_GT(kept_front, kept_rear);  // the rear base removes sets

  // The per-decision cap charges the top-up, not theta: a budget of exactly
  // the top-up funds the round, one set less does not.
  FrontRearHits hits;
  EXPECT_EQ(planner
                .NextRound(&engine, 0, front_base, rear_base, nullptr, n,
                           20000, {}, 0, 20000 - kept_sets - 1, &rng, &hits)
                .value(),
            SpeculativeRoundPlanner::RoundStep::kOverBudget);
  EXPECT_EQ(planner
                .NextRound(&engine, 0, front_base, rear_base, nullptr, n,
                           20000, {}, 0, 20000 - kept_sets, &rng, &hits)
                .value(),
            SpeculativeRoundPlanner::RoundStep::kSampled);
  EXPECT_EQ(hits.sets, 20000 - kept_sets);

  // Begin empties the counts: the next decision's first round draws its
  // whole theta.
  planner.Begin(1, 1, 0, 1000);
  EXPECT_EQ(planner.RoundDraw(1000), 1000u);
  rear_base.Clear(1);
  ASSERT_TRUE(planner
                  .NextRound(&engine, 1, front_base, rear_base, nullptr, n,
                             1000, {}, 0, UINT64_MAX, &rng, &hits)
                  .ok());
  EXPECT_EQ(hits.sets, 1000u);
  EXPECT_EQ(hits.theta, 1000u);
}

TEST(BatchedRoundsTest, AddAtpMatchesUnbatchedDecisionsOnClearCutCosts) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = ClearCutProblem(g);

  AddAtpOptions options;
  options.fail_on_budget_exhausted = false;
  const PolicyRuns runs = RunBothModes<AddAtpPolicy>(g, problem, options);

  EXPECT_FALSE(runs.batched.seeds.empty());
  EXPECT_EQ(runs.batched.seeds, runs.unbatched.seeds);
  EXPECT_EQ(Decisions(runs.batched), Decisions(runs.unbatched));
  EXPECT_LT(static_cast<double>(runs.batched.total_rr_sets),
            static_cast<double>(runs.unbatched.total_rr_sets) / 1.5);
}

TEST(BatchedRoundsTest, HntpBatchedMatchesUnbatchedSeeds) {
  const Graph g = TestGraph(300);
  const ProfitProblem problem = ClearCutProblem(g);

  HntpOptions options;

  options.sampling.batched_rounds = true;
  Rng rng_batched(3);
  Result<HntpResult> batched = RunHntp(problem, options, &rng_batched);
  ASSERT_TRUE(batched.ok());

  options.sampling.batched_rounds = false;
  Rng rng_unbatched(3);
  Result<HntpResult> unbatched = RunHntp(problem, options, &rng_unbatched);
  ASSERT_TRUE(unbatched.ok());

  EXPECT_EQ(batched.value().seeds, unbatched.value().seeds);
  EXPECT_LT(static_cast<double>(batched.value().total_rr_sets),
            static_cast<double>(unbatched.value().total_rr_sets) / 1.5);
  EXPECT_EQ(batched.value().total_coverage_queries,
            2 * batched.value().total_count_pools);
}

}  // namespace
}  // namespace atpm
