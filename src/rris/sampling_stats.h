#ifndef ATPM_RRIS_SAMPLING_STATS_H_
#define ATPM_RRIS_SAMPLING_STATS_H_

#include <cstdint>

namespace atpm {

/// Cumulative sampling-effort accounting, aggregated across an engine's
/// whole lifetime (ResetStats to re-baseline). Unlike total_edges_examined,
/// which is pool-scoped EPT accounting zeroed by ResetPool, these counters
/// also cover the throwaway counting paths — they are what the benchmarks
/// report as "RR sets generated" and "reuse ratio".
///
/// The forward diffusion paths (SimulateIC / SimulateLT,
/// Realization::Sample) accept an optional SamplingStats sink and
/// accumulate the same rng_draws / edges_examined measures, so
/// DrawsPerEdge() covers both traversal directions of the jump substrate.
///
/// This struct stays the exact per-engine accounting source; the process
/// metric registry (common/metrics.h: atpm_rr_sets_generated_total and
/// friends) mirrors the same accruals across all engines and can be
/// disabled without perturbing these counts.
struct SamplingStats {
  /// RR sets sampled by TryGeneratePool + every counting query.
  uint64_t rr_sets_generated = 0;
  /// Edges examined by all of the above (the IMM/EPT cost proxy).
  uint64_t edges_examined = 0;
  /// Throwaway pools sampled by counting queries (one per batch call).
  uint64_t count_pools = 0;
  /// Coverage queries answered by those pools (>= count_pools; the ratio
  /// coverage_queries / count_pools is the pool-reuse factor — 1.0 for the
  /// historical one-pool-per-query sampling, 2.0 for batched front/rear
  /// rounds).
  uint64_t coverage_queries = 0;
  /// RNG draws consumed by the generation kernels (root sampling + edge
  /// trials + LT picks). The per-edge kernel pays ~1 draw per alive
  /// unvisited edge; the geometric-jump kernel ~1 per successful edge —
  /// rng_draws / edges_examined is the headline reduction of the
  /// weight-class-aware kernel.
  uint64_t rng_draws = 0;

  /// Queries answered per throwaway pool (0 if no counting ran).
  double ReuseRatio() const {
    return count_pools == 0 ? 0.0
                            : static_cast<double>(coverage_queries) /
                                  static_cast<double>(count_pools);
  }

  /// RNG draws per edge examined (0 if nothing ran).
  double DrawsPerEdge() const {
    return edges_examined == 0 ? 0.0
                               : static_cast<double>(rng_draws) /
                                     static_cast<double>(edges_examined);
  }
};

}  // namespace atpm

#endif  // ATPM_RRIS_SAMPLING_STATS_H_
