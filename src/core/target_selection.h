#ifndef ATPM_CORE_TARGET_SELECTION_H_
#define ATPM_CORE_TARGET_SELECTION_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/profit.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// How the target set T is derived in the predefined-cost setting.
enum class TargetMethod {
  kNsg,  // simple greedy over all nodes
  kNdg,  // double greedy over all nodes
};

/// Options for the target-selection pipelines.
struct TargetSelectionOptions {
  /// IMM accuracy for the top-k pipeline.
  double imm_epsilon = 0.5;
  double imm_ell = 1.0;
  /// RR pool size used to estimate the spread lower bound E_l[I(T)].
  uint64_t bound_rr_sets = 1ull << 16;
  /// Failure probability of the lower bound.
  double bound_delta = 1e-3;
  /// Pool size handed to NSG/NDG when they derive T (predefined setting).
  uint64_t derive_rr_sets = 1ull << 16;
  /// Seed for all sampling in the pipeline.
  uint64_t seed = 7;
  /// Worker threads of the engine shared by every stage of the pipeline
  /// (IMM, bound estimation, NSG/NDG derivation); 0 = hardware
  /// concurrency, and above 1 picks the parallel backend.
  uint32_t num_threads = 1;
  /// RR-generation kernel shared by every stage of the pipeline.
  SamplingKernel kernel = SamplingKernel::kGeometricJump;
};

/// A fully-specified TPM instance plus calibration metadata.
struct TargetSelectionResult {
  ProfitProblem problem;
  /// E_l[I(T)]: the spread lower bound the costs were calibrated against
  /// (c(T) = E_l[I(T)] in the top-k pipeline; informational otherwise).
  double spread_lower_bound = 0.0;
  /// Sampling effort of every stage of the pipeline (IMM pool, bound
  /// estimation, NSG/NDG derivation), aggregated by the shared engine.
  /// Note the stages deliberately do NOT share pools: T is chosen
  /// adaptively from the IMM/derivation pool, so the spread lower bound
  /// must be estimated on a fresh pool or the martingale bound breaks.
  SamplingStats sampling_stats;
};

/// Experimental setting 1 (Section VI-A): pick the top-k influential nodes
/// via IMM as the target set T, estimate E_l[I(T)] with a martingale lower
/// bound, and distribute exactly that budget over T according to `scheme`
/// (degree-proportional / uniform / random). The resulting instance has
/// ρ(T) ≈ E[I(T)] − E_l[I(T)] >= 0 whp, matching the paper's nonnegative-
/// profit assumption.
Result<TargetSelectionResult> BuildTopKTargetProblem(
    const Graph& graph, uint32_t k, CostScheme scheme,
    const TargetSelectionOptions& options = {});

/// Experimental setting 2 (Section VI-D): assign every node of V a
/// predefined cost with c(V) = lambda * n under `scheme`, then derive the
/// target set T by running NSG or NDG over the whole graph with those
/// costs. Smaller lambda yields a larger T.
Result<TargetSelectionResult> BuildPredefinedCostProblem(
    const Graph& graph, double lambda, CostScheme scheme, TargetMethod method,
    const TargetSelectionOptions& options = {});

}  // namespace atpm

#endif  // ATPM_CORE_TARGET_SELECTION_H_
