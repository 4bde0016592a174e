#ifndef ATPM_IM_IMM_H_
#define ATPM_IM_IMM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Options for RunImm.
struct ImmOptions {
  /// Approximation slack: the returned set has spread >= (1-1/e-epsilon)OPT
  /// with probability >= 1 - n^-ell.
  double epsilon = 0.5;
  /// Failure-probability exponent (success prob 1 - n^-ell).
  double ell = 1.0;
  /// RNG seed (IMM is randomized but reproducible given the seed).
  uint64_t seed = 1;
  /// Hard cap on generated RR sets; exceeding it fails with OutOfBudget.
  uint64_t max_rr_sets = 1ull << 26;
  /// Worker threads (0 = hardware concurrency); above 1 the pool is
  /// sampled by the parallel backend.
  uint32_t num_threads = 1;
  /// RR-generation kernel (geometric jumps by default; kPerEdge for
  /// bit-compat reruns of recorded seeds).
  SamplingKernel kernel = SamplingKernel::kGeometricJump;
};

/// Output of RunImm.
struct ImmResult {
  /// Selected seed set, |seeds| <= k, in greedy order (most influential
  /// first) — the paper's experiments use this order for the target set T.
  std::vector<NodeId> seeds;
  /// RIS estimate of E[I(seeds)] from the final pool.
  double estimated_spread = 0.0;
  /// Number of RR sets generated in total (both phases).
  uint64_t num_rr_sets = 0;
  /// Total edges examined while generating the pool (EPT accounting),
  /// aggregated across sampler shards.
  uint64_t total_edges_examined = 0;
};

/// IMM (Tang, Shi, Xiao — SIGMOD'15): near-linear-time influence
/// maximization via martingale-based RIS sampling. Two phases:
///
///   1. *Sampling*: geometrically guess OPT from above; for each guess x,
///      generate θ_i = λ'/x RR sets and test whether the greedy solution
///      certifies spread >= (1+ε')x; the first success yields a lower bound
///      LB on OPT.
///   2. *Selection*: enlarge the pool to θ = λ*/LB sets and return the
///      greedy max-coverage seeds.
///
/// This is the "state of the art [28]" the paper uses to build the target
/// set T (top-k influential users) in its first experimental setting.
///
/// The engine overload samples through `engine` (must be bound to `graph`;
/// its pool is reset and then holds the final IMM pool); the default form
/// builds the backend that options.num_threads implies.
Result<ImmResult> RunImm(const Graph& graph, uint32_t k,
                         const ImmOptions& options = {});
Result<ImmResult> RunImm(const Graph& graph, uint32_t k,
                         const ImmOptions& options, SamplingEngine* engine);

}  // namespace atpm

#endif  // ATPM_IM_IMM_H_
