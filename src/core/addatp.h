#ifndef ATPM_CORE_ADDATP_H_
#define ATPM_CORE_ADDATP_H_

#include "core/policy.h"
#include "diffusion/diffusion_model.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Options for AddAtpPolicy.
struct AddAtpOptions {
  /// Diffusion model for spread estimation; must match the model the
  /// environment's realization was sampled under.
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Initial additive spread error n_i * ζ_0 (the paper sets n_i ζ_0 = 64).
  /// ζ_0 is derived per iteration as initial_spread_error / n_i, clamped to
  /// (1/n_i, 1/2].
  double initial_spread_error = 64.0;
  /// Shared sampling knobs: backend, threads, the per-decision RR budget,
  /// and round batching. ADDATP's additive-only error needs Θ(n_i² log n)
  /// samples for borderline nodes, which is exactly why the paper's ADDATP
  /// runs out of memory beyond NetHEPT; the budget cap makes that failure
  /// mode explicit and testable.
  SamplingOptions sampling;
  /// true: exceeding the budget aborts the run with OutOfBudget (paper-like
  /// OOM marker). false: the decision is forced with the current estimates.
  bool fail_on_budget_exhausted = true;
  /// Enables the dynamic C2-threshold strategy of the paper's Discussion
  /// (after Theorem 2): instead of the fixed stopping bar n_i ζ_i <= 1,
  /// the bar η_i is raised adaptively while the accumulated profit loss
  /// stays within dynamic_epsilon * (profit so far), yielding an expected
  /// (1 - ε)/3 ratio and fewer samples on profitable runs.
  bool dynamic_threshold = false;
  /// The ε of the dynamic strategy.
  double dynamic_epsilon = 0.1;
};

/// ADDATP — adaptive double greedy with additive sampling error
/// (Algorithm 3). Replaces ADG's oracle with reverse-influence-sampling
/// estimates: each halving round counts
///
///   θ = ln(8/δ_i) / (2 ζ_i²),      δ_0 = 1/(k n)
///
/// RR sets — the decision's kept counts topped up by one pool that answers
/// the front and rear coverage queries as one CoverageQueryBatch (the
/// paper's literal Algorithm 3 draws two fresh independent pools R1, R2 per
/// round; sampling.batched_rounds = false restores that) — estimates the
/// front/rear profits, and stops as soon as
///   C1: the estimates are separated enough to decide correctly whp, or
///   C2: n_i ζ_i <= 1 (a wrong decision costs at most ~1 profit),
/// otherwise halves ζ_i by √2 and δ_i by 2 and resamples.
/// Theorem 2: expected profit >= (Λ(π_opt) − (2k+2)) / 3.
class AddAtpPolicy final : public AdaptivePolicy {
 public:
  explicit AddAtpPolicy(const AddAtpOptions& options = {})
      : options_(options) {}

  std::string_view name() const override { return "ADDATP"; }

  /// Samples through `engine` (not owned; must be bound to the run's graph
  /// and options.model) instead of the policy's own backend. Pass nullptr
  /// to revert.
  void set_engine(SamplingEngine* engine) override { engine_.Use(engine); }

  Result<AdaptiveRunResult> Run(const ProfitProblem& problem,
                                AdaptiveEnvironment* env, Rng* rng) override;

 private:
  AddAtpOptions options_;
  SamplingEngineHandle engine_;
};

}  // namespace atpm

#endif  // ATPM_CORE_ADDATP_H_
