#include "core/hatp.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/concentration.h"
#include "core/decision_loop.h"

namespace atpm {

namespace {

// Algorithm 4's rule: hybrid (relative + additive) error. HNTP, the
// nonadaptive tailoring, runs the same rule.
class HybridErrorRule final : public DoubleGreedyRule {
 public:
  explicit HybridErrorRule(double eps_threshold) : eps_thr_(eps_threshold) {}

  uint64_t SampleSize(const ErrorSchedule& s) const override {
    return HatpSampleSize(s.eps, s.zeta, s.delta);
  }

  bool Stop(const RoundEstimates& e, const ErrorSchedule& s) override {
    const double fest = e.fest;
    const double rest = e.rest;
    const double cost = e.cost;
    const double eps = s.eps;
    const double az = e.nd * s.zeta;  // n_i ζ_i in spread units
    // C'1: the hybrid confidence interval certifies the comparison
    // fest + rest vs 2 c(u) (select side on the first two disjuncts,
    // abandon side on the last two).
    const bool c1 =
        (fest + rest - 2.0 * az) / (1.0 + eps) >= 2.0 * cost ||
        (rest - az) / (1.0 + eps) >= cost ||
        (fest + rest + 2.0 * az) / (1.0 - eps) <= 2.0 * cost ||
        (fest + az) / (1.0 - eps) <= cost;
    const bool c2 = eps <= eps_thr_ && az <= 1.0;
    return c1 || c2;
  }

  // Adaptive error schedule (Alg 4, Lines 19–23): shrink whichever error
  // dominates the uncertainty around this node's marginal spread.
  void Tighten(const RoundEstimates& e, ErrorSchedule* s) const override {
    const double az = e.nd * s->zeta;
    const bool eps_floored = s->eps <= eps_thr_;
    const bool zeta_floored = az <= 1.0;
    if (eps_floored && !zeta_floored) {
      s->zeta /= 2.0;
    } else if (!eps_floored && zeta_floored) {
      s->eps /= 2.0;
    } else if (e.fest >= 10.0 * az) {
      s->eps /= 2.0;
    } else if (e.fest <= az) {
      s->zeta /= 2.0;
    } else {
      s->eps /= std::sqrt(2.0);
      s->zeta /= std::sqrt(2.0);
    }
    s->eps = std::max(s->eps, eps_thr_);
    s->zeta = std::max(s->zeta, 1.0 / e.nd);
    s->delta /= 2.0;
  }

  // Line 13: select iff fest + rest >= 2 c(u) (equivalently ρ̃f >= ρ̃r).
  bool Select(const RoundEstimates& e) const override {
    return e.fest + e.rest >= 2.0 * e.cost;
  }

 private:
  double eps_thr_;
};

}  // namespace

Result<AdaptiveRunResult> RunHybridDoubleGreedy(const char* name,
                                                const HatpOptions& options,
                                                const ProfitProblem& problem,
                                                AdaptiveEnvironment* env,
                                                SamplingEngineHandle* engine,
                                                Rng* rng) {
  const double eps_thr = options.relative_error_threshold;
  if (eps_thr <= 0.0 || eps_thr >= 1.0 ||
      options.initial_relative_error < eps_thr ||
      options.initial_relative_error >= 1.0) {
    return Status::InvalidArgument(
        std::string(name) +
        ": need 0 < threshold <= initial_relative_error < 1");
  }
  const DoubleGreedyDriver driver(
      {.name = name,
       .model = options.model,
       .sampling = options.sampling,
       .initial_spread_error = options.initial_spread_error,
       .initial_relative_error = options.initial_relative_error,
       .relative_error_threshold = eps_thr,
       .fail_on_budget_exhausted = options.fail_on_budget_exhausted});
  HybridErrorRule rule(eps_thr);
  return driver.Run(problem, env, engine, &rule, rng);
}

Result<AdaptiveRunResult> HatpPolicy::Run(const ProfitProblem& problem,
                                          AdaptiveEnvironment* env,
                                          Rng* rng) {
  return RunHybridDoubleGreedy("HATP", options_, problem, env, &engine_, rng);
}

}  // namespace atpm
