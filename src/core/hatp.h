#ifndef ATPM_CORE_HATP_H_
#define ATPM_CORE_HATP_H_

#include "core/policy.h"
#include "diffusion/diffusion_model.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Options for HatpPolicy (Alg 4). Paper defaults: n_i ζ_0 = 64, ε_0 = 0.5,
/// ε = 0.05.
struct HatpOptions {
  /// Diffusion model for spread estimation; must match the model the
  /// environment's realization was sampled under.
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Initial relative error ε_0 (>= relative_error_threshold).
  double initial_relative_error = 0.5;
  /// Relative-error threshold ε — the knob in HATP's approximation bound
  /// (Theorem 4) and the variable of the paper's Fig. 4(b) sensitivity test.
  double relative_error_threshold = 0.05;
  /// Initial additive spread error n_i * ζ_0.
  double initial_spread_error = 64.0;
  /// Shared sampling knobs: backend, threads, the per-decision RR budget,
  /// and round batching (one shared pool per halving round topping up the
  /// decision's kept counts vs the literal two fresh pools of Algorithm 4).
  SamplingOptions sampling;
  /// true: exceeding the budget aborts with OutOfBudget; false (default):
  /// the decision is forced with the current estimates.
  bool fail_on_budget_exhausted = false;
};

/// HATP — adaptive double greedy with *hybrid* (relative + additive) error
/// (Algorithm 4), the paper's practical algorithm. Two changes vs ADDATP:
///
///  1. Sample sizes follow the Relative+Additive concentration bound
///     (Lemma 7): θ = (1+ε_i/3)² / (2 ε_i ζ_i) · ln(4/δ_i) — linear in
///     1/ζ_i instead of ADDATP's quadratic, an Θ(ε n) efficiency gain
///     (Theorem 5).
///  2. The error pair (ε_i, ζ_i) is tuned adaptively per round (Lines
///     19–23): nodes with large marginal spread tighten the relative error,
///     nodes with small marginal spread tighten the additive error.
///
/// Stopping rules: C'1 certifies the select/abandon comparison
/// fest + rest vs 2c(u_i) under the hybrid confidence interval; C'2 fires
/// once both errors reach their floors (ε_i <= ε and n_i ζ_i <= 1).
///
/// That is the literal schedule (batched_rounds = false). Batched rounds
/// keep a decision's counts and replace the schedule by a grid of sample
/// sizes fixed before sampling, each a quarter above the last, up to the
/// floors' θ, at which C'1 and C'2 test exact Chernoff–KL intervals of the
/// coverage fractions (KeptCountGrid in core/concentration.h): the same
/// 2 δ_0 per decision, fewer RR sets.
/// Theorem 4: expected profit >= (Λ(π_opt) − 2(k+εc(T))/(1−ε) − 2)/3.
class HatpPolicy final : public AdaptivePolicy {
 public:
  explicit HatpPolicy(const HatpOptions& options = {}) : options_(options) {}

  std::string_view name() const override { return "HATP"; }

  /// Samples through `engine` (not owned; must be bound to the run's graph
  /// and options.model) instead of the policy's own backend — lets several
  /// policies share one warm worker pool. Pass nullptr to revert.
  void set_engine(SamplingEngine* engine) override { engine_.Use(engine); }

  Result<AdaptiveRunResult> Run(const ProfitProblem& problem,
                                AdaptiveEnvironment* env, Rng* rng) override;

 private:
  HatpOptions options_;
  SamplingEngineHandle engine_;
};

/// Algorithm 4's loop, shared by HatpPolicy (`env` set) and RunHntp (`env`
/// null: the nonadaptive mode of DoubleGreedyDriver). `name` prefixes
/// error messages.
Result<AdaptiveRunResult> RunHybridDoubleGreedy(const char* name,
                                                const HatpOptions& options,
                                                const ProfitProblem& problem,
                                                AdaptiveEnvironment* env,
                                                SamplingEngineHandle* engine,
                                                Rng* rng);

}  // namespace atpm

#endif  // ATPM_CORE_HATP_H_
