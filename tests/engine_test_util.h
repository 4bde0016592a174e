#ifndef ATPM_TESTS_ENGINE_TEST_UTIL_H_
#define ATPM_TESTS_ENGINE_TEST_UTIL_H_

// Abort-on-error forms of the two SamplingEngine operations for tests that
// sample on a healthy engine: there a failed Status is a broken test, so it
// is printed and the process aborts. Tests of the failure paths call the
// engine's Status API directly. Also the engine's chunk-stream rule
// replayed on a raw RRSetGenerator, the reference the engine must match,
// and the accounting checks the engine tests share.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "rris/coverage_batch.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"

namespace atpm {

inline void CheckSampled(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "sampling failed: %s\n", status.ToString().c_str());
  }
  ATPM_CHECK(status.ok());
}

/// TryGeneratePool; returns the engine's pool.
inline RRCollection& FillPool(SamplingEngine& engine,
                              const BitVector* removed, uint32_t num_alive,
                              uint64_t count, Rng* rng) {
  CheckSampled(engine.TryGeneratePool(removed, num_alive, count, rng));
  return engine.pool();
}

/// TryCountCoverageBatchSeeded; returns the RR sets drawn.
inline uint64_t CountBatch(SamplingEngine& engine, CoverageQueryBatch* batch,
                           const BitVector* removed, uint32_t num_alive,
                           uint64_t theta, uint64_t seed) {
  const Result<uint64_t> sampled = engine.TryCountCoverageBatchSeeded(
      batch, removed, num_alive, theta, seed);
  CheckSampled(sampled.status());
  return sampled.value();
}

/// One-query count: how many of `theta` RR sets drawn with the stream
/// Rng(seed) contain `u` and avoid every node of `base` (nullptr base =
/// plain Cov({u})).
inline uint64_t CountOne(SamplingEngine& engine, NodeId u,
                         const BitVector* base, const BitVector* removed,
                         uint32_t num_alive, uint64_t theta, uint64_t seed) {
  CoverageQueryBatch batch;
  batch.Add(u, base);
  CountBatch(engine, &batch, removed, num_alive, theta, seed);
  return batch.hits(0);
}

// The engine's stream rule replayed on a raw generator: chunk c of a
// batch of `size` sets holds ParallelSamplingEngine::kChunkSets sets (the
// last chunk fewer) drawn from Rng(SplitSeed(seed, c)), in chunk order.
// `chunk_body(sets, rng)` draws one chunk.
template <typename ChunkBody>
void ForEachChunkStream(uint64_t size, uint64_t seed, ChunkBody&& chunk_body) {
  constexpr uint64_t kChunk = ParallelSamplingEngine::kChunkSets;
  for (uint64_t c = 0; c * kChunk < size; ++c) {
    Rng rng(SplitSeed(seed, c));
    chunk_body(std::min(kChunk, size - c * kChunk), &rng);
  }
}

/// The pool a fill of `count` sets with base seed `seed` must produce;
/// returns the edges examined.
inline uint64_t ChunkedReferencePool(RRSetGenerator* generator,
                                     const BitVector* removed,
                                     uint32_t num_alive, uint64_t count,
                                     uint64_t seed, RRCollection* pool) {
  uint64_t edges = 0;
  ForEachChunkStream(count, seed, [&](uint64_t sets, Rng* rng) {
    edges += pool->Generate(generator, removed, num_alive, sets, rng);
  });
  return edges;
}

/// The hits a count of `theta` sets with seed `seed` must produce (summed
/// into `hits`, which it zeroes first); returns the edges examined.
inline uint64_t ChunkedReferenceCount(RRSetGenerator* generator,
                                      const BitVector* removed,
                                      uint32_t num_alive, uint64_t theta,
                                      std::span<const CoverageQuery> queries,
                                      uint64_t seed,
                                      std::vector<uint64_t>* hits) {
  hits->assign(queries.size(), 0);
  std::vector<uint64_t> chunk_hits(queries.size());
  uint64_t edges = 0;
  ForEachChunkStream(theta, seed, [&](uint64_t sets, Rng* rng) {
    edges += generator->CountCoveringBatch(removed, num_alive, sets, queries,
                                           chunk_hits.data(), rng);
    for (size_t q = 0; q < queries.size(); ++q) (*hits)[q] += chunk_hits[q];
  });
  return edges;
}

/// Every SamplingStats field is equal.
inline void ExpectSameStats(const SamplingStats& a, const SamplingStats& b) {
  EXPECT_EQ(a.rr_sets_generated, b.rr_sets_generated);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.count_pools, b.count_pools);
  EXPECT_EQ(a.coverage_queries, b.coverage_queries);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
  EXPECT_EQ(a.settled_walks, b.settled_walks);
  EXPECT_EQ(a.count_walk_nodes, b.count_walk_nodes);
}

/// The global registry's atpm_count_chunks_discarded_total (0 before the
/// first count stream closes).
inline uint64_t DiscardedStreamChunks() {
  std::istringstream prom(obs::MetricsRegistry::Global().ExportPrometheus());
  const std::string series = "atpm_count_chunks_discarded_total ";
  for (std::string line; std::getline(prom, line);) {
    if (line.starts_with(series)) {
      return std::stoull(line.substr(series.size()));
    }
  }
  return 0;
}

}  // namespace atpm

#endif  // ATPM_TESTS_ENGINE_TEST_UTIL_H_
