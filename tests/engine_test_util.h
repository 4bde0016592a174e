#ifndef ATPM_TESTS_ENGINE_TEST_UTIL_H_
#define ATPM_TESTS_ENGINE_TEST_UTIL_H_

// Abort-on-error forms of the two SamplingEngine operations for tests that
// sample on a healthy engine: there a failed Status is a broken test, so it
// is printed and the process aborts. Tests of the failure paths call the
// engine's Status API directly.

#include <cstdint>
#include <cstdio>

#include "common/bit_vector.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "rris/coverage_batch.h"
#include "rris/rr_collection.h"
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

}  // namespace atpm

#endif  // ATPM_TESTS_ENGINE_TEST_UTIL_H_
