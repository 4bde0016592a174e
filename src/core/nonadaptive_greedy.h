#ifndef ATPM_CORE_NONADAPTIVE_GREEDY_H_
#define ATPM_CORE_NONADAPTIVE_GREEDY_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/profit.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Output of the fixed-sample nonadaptive baselines.
struct NonadaptiveResult {
  /// Selected seed batch.
  std::vector<NodeId> seeds;
  /// RR sets generated (= the requested pool size).
  uint64_t num_rr_sets = 0;
  /// Coverage queries the sweep answered on that ONE shared pool (the
  /// batched per-target initialization); the pool-reuse ratio of a
  /// fixed-sample greedy is batched_queries per pool.
  uint64_t batched_queries = 0;
  /// RIS estimate of the expected profit of `seeds` on the same pool.
  double estimated_profit = 0.0;
};

/// NSG — Nonadaptive Simple Greedy (Tang et al., TKDE'18): one fixed pool
/// of `num_rr_sets` RR sets; repeatedly add the target with the largest
/// estimated marginal *profit* (marginal coverage · n/θ − c(u)) while it is
/// positive. No estimation-error control — the paper sizes the pool as the
/// largest per-iteration spend of HATP (Section VI-A) and shows in Fig. 9
/// that more samples do not help.
///
/// The engine overloads sample the fixed pool through `engine` (must be
/// bound to problem.graph; its pool is reset); the three-argument forms use
/// a private serial engine.
Result<NonadaptiveResult> RunNsg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng);
Result<NonadaptiveResult> RunNsg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng,
                                 SamplingEngine* engine);

/// NDG — Nonadaptive Double Greedy (Tang et al., TKDE'18): deterministic
/// double greedy (Alg 1) driven by coverage estimates on one fixed pool of
/// `num_rr_sets` RR sets. Examines targets in problem order; front/rear
/// marginals are Cov(u | S)·n/θ − c(u) and c(u) − Cov(u | T \ {u})·n/θ.
Result<NonadaptiveResult> RunNdg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng);
Result<NonadaptiveResult> RunNdg(const ProfitProblem& problem,
                                 uint64_t num_rr_sets, Rng* rng,
                                 SamplingEngine* engine);

}  // namespace atpm

#endif  // ATPM_CORE_NONADAPTIVE_GREEDY_H_
