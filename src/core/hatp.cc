#include "core/hatp.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/concentration.h"
#include "core/decision_loop.h"

namespace atpm {

namespace {

// Algorithm 4's rule: hybrid (relative + additive) error. HNTP, the
// nonadaptive tailoring, runs the same rule. With fresh pools it follows
// Alg. 4 literally; with kept counts it tests Chernoff–KL intervals at the
// points of a grid fixed before the decision samples (KeptCountGrid).
class HybridErrorRule final : public DoubleGreedyRule {
 public:
  HybridErrorRule(double eps_threshold, bool kept_counts)
      : eps_thr_(eps_threshold), kept_counts_(kept_counts) {}

  void BeginDecision(uint32_t /*num_activated*/,
                     std::span<const NodeId> /*seeds*/,
                     ErrorSchedule* s) override {
    if (!kept_counts_) return;
    grid_ = HatpKeptCountGrid(s->eps, s->zeta, eps_thr_, ZetaFloor(s->nd),
                              s->delta);
    ReportPoint(0, s);
  }

  uint64_t SampleSize(const ErrorSchedule& s) const override {
    return kept_counts_ ? grid_.Theta(s.round)
                        : HatpSampleSize(s.eps, s.zeta, s.delta);
  }

  StopTest Stop(const RoundEstimates& e, const ErrorSchedule& s) override {
    if (kept_counts_) return StopOnGrid(e, s);
    const double fest = e.fest;
    const double rest = e.rest;
    const double cost = e.cost;
    const double eps = s.eps;
    const double az = s.nd * s.zeta;  // n_i ζ_i in spread units
    // C'1: the hybrid confidence interval certifies the comparison
    // fest + rest vs 2 c(u) (select side on the first two disjuncts,
    // abandon side on the last two).
    const bool c1 =
        (fest + rest - 2.0 * az) / (1.0 + eps) >= 2.0 * cost ||
        (rest - az) / (1.0 + eps) >= cost ||
        (fest + rest + 2.0 * az) / (1.0 - eps) <= 2.0 * cost ||
        (fest + az) / (1.0 - eps) <= cost;
    const bool c2 = eps <= eps_thr_ && az <= 1.0;
    if (c1) return StopTest::kCertified;
    return c2 ? StopTest::kFloor : StopTest::kContinue;
  }

  // Adaptive error schedule (Alg 4, Lines 19–23): shrink whichever error
  // dominates the uncertainty around this node's marginal spread. Kept
  // counts move on to the next grid point instead.
  void Tighten(const RoundEstimates& e, ErrorSchedule* s) const override {
    if (kept_counts_) {
      ReportPoint(s->round + 1, s);
      return;
    }
    const double az = s->nd * s->zeta;
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
    s->zeta = std::max(s->zeta, ZetaFloor(s->nd));
    s->delta /= 2.0;
  }

  // Line 13: select iff fest + rest >= 2 c(u) (equivalently ρ̃f >= ρ̃r).
  bool Select(const RoundEstimates& e) const override {
    return e.fest + e.rest >= 2.0 * e.cost;
  }

  // Kept counts walk the grid, fixed before the decision samples, up to its
  // last point; the literal schedule halves by what the estimates show.
  void PlanLaterRounds(const ErrorSchedule& s,
                       std::vector<uint64_t>* thetas) const override {
    if (!kept_counts_) return;
    for (uint32_t j = s.round + 1; j <= grid_.last; ++j) {
      thetas->push_back(grid_.Theta(j));
    }
  }

 private:
  // C'1 / C'2 on the KL intervals of the coverage fractions at grid point
  // s.round (the soundness argument is at KeptCountGrid).
  StopTest StopOnGrid(const RoundEstimates& e, const ErrorSchedule& s) const {
    const uint64_t theta = grid_.Theta(s.round);
    const double log_term = std::log(4.0 / grid_.delta);  // δ'/4 per tail
    const double front = e.fest / s.nd;
    const double rear = e.rest / s.nd;
    const double cost = e.cost / s.nd;
    const double front_lo = KlLowerBound(front, theta, log_term);
    const double front_hi = KlUpperBound(front, theta, log_term);
    const double rear_lo = KlLowerBound(rear, theta, log_term);
    const double rear_hi = KlUpperBound(rear, theta, log_term);
    // C'1, same disjuncts as StopLiteral. Abandoning needs the upper bounds
    // strictly below the bar: at a fraction of 1 the upper bound has no
    // width, and a tie selects (Line 13), so it must not certify abandon.
    const bool c1 = front_lo + rear_lo >= 2.0 * cost || rear_lo >= cost ||
                    front_hi + rear_hi < 2.0 * cost || front_hi < cost;
    if (c1) return StopTest::kCertified;
    if (s.round >= grid_.last) return StopTest::kFloor;
    // C'2 before the last point: both intervals inside Lemma 7's band at
    // the floors (ε, one node).
    const double zeta = ZetaFloor(s.nd);
    auto in_band = [&](double mean, double lo, double hi) {
      return lo >= (mean - zeta) / (1.0 + eps_thr_) &&
             hi <= (mean + zeta) / (1.0 - eps_thr_);
    };
    return in_band(front, front_lo, front_hi) && in_band(rear, rear_lo, rear_hi)
               ? StopTest::kFloor
               : StopTest::kContinue;
  }

  // The pair the driver reports for a decision standing on grid point j:
  // Lemma 7 at (θ_j, δ') with ε held at the threshold. The KL interval
  // there is at least as tight (KeptCountGrid), so the pair is certified.
  void ReportPoint(uint32_t j, ErrorSchedule* s) const {
    s->eps = eps_thr_;
    s->zeta = HatpCertifiedZeta(eps_thr_, grid_.Theta(j), grid_.delta);
  }

  double eps_thr_;
  bool kept_counts_;
  // The decision's grid (kept counts only).
  KeptCountGrid grid_;
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
  HybridErrorRule rule(eps_thr, options.sampling.batched_rounds);
  return driver.Run(problem, env, engine, &rule, rng);
}

Result<AdaptiveRunResult> HatpPolicy::Run(const ProfitProblem& problem,
                                          AdaptiveEnvironment* env,
                                          Rng* rng) {
  return RunHybridDoubleGreedy("HATP", options_, problem, env, &engine_, rng);
}

}  // namespace atpm
