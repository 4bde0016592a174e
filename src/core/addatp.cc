#include "core/addatp.h"

#include <algorithm>
#include <cmath>

#include "core/concentration.h"
#include "core/decision_loop.h"

namespace atpm {

namespace {

// Algorithm 3's rule: additive error only, with the optional dynamic C2 bar
// of the paper's Discussion after Theorem 2.
class AdditiveErrorRule final : public DoubleGreedyRule {
 public:
  AdditiveErrorRule(const ProfitProblem& problem, const AddAtpOptions& options)
      : problem_(problem), options_(options) {}

  // The schedule does not depend on the data, so kept counts need no δ
  // split (concentration.h).
  uint64_t SampleSize(const ErrorSchedule& s) const override {
    return AddAtpSampleSize(s.zeta, s.delta);
  }

  // C2 stopping bar: fixed at 1 in Algorithm 3; raised adaptively in the
  // dynamic variant while 2 * (eta_sum + eta) + 2 <= ε * profit-so-far.
  void BeginDecision(uint32_t num_activated, std::span<const NodeId> seeds,
                     ErrorSchedule* /*schedule*/) override {
    eta_ = 1.0;
    if (!options_.dynamic_threshold) return;
    const double profit_so_far =
        static_cast<double>(num_activated) - problem_.CostOfSet(seeds);
    const double slack =
        options_.dynamic_epsilon * profit_so_far - 2.0 * eta_sum_ - 2.0;
    eta_ = std::max(1.0, slack / 2.0);
  }

  StopTest Stop(const RoundEstimates& e, const ErrorSchedule& s) override {
    const double rho_f = RhoFront(e);
    const double rho_r = RhoRear(e);
    const double additive = s.nd * s.zeta;  // n_i ζ_i, in spread units
    const bool c1 = std::abs(rho_f - rho_r) >= 2.0 * additive ||
                    rho_f <= -additive || rho_r <= -additive;
    const bool c2 = additive <= eta_;
    if (c1) return StopTest::kCertified;
    if (!c2) return StopTest::kContinue;
    eta_sum_ += eta_;  // η̃_i = η_i iff C2 fired
    return StopTest::kFloor;
  }

  void Tighten(const RoundEstimates& /*e*/, ErrorSchedule* s) const override {
    s->zeta /= std::sqrt(2.0);
    s->delta /= 2.0;
  }

  bool Select(const RoundEstimates& e) const override {
    return RhoFront(e) >= RhoRear(e);
  }

  // Every round tightens ζ and δ alike, and C2 ends the decision at the
  // first round with n_i ζ_i <= η_i (C1 may end it sooner).
  void PlanLaterRounds(const ErrorSchedule& s,
                       std::vector<uint64_t>* thetas) const override {
    ErrorSchedule next = s;
    while (next.nd * next.zeta > eta_) {
      Tighten(RoundEstimates{}, &next);
      ++next.round;
      thetas->push_back(SampleSize(next));
    }
  }

 private:
  // Front / rear profit estimates ρ̃f = fest − c(u), ρ̃r = c(u) − rest.
  static double RhoFront(const RoundEstimates& e) { return e.fest - e.cost; }
  static double RhoRear(const RoundEstimates& e) { return -e.rest + e.cost; }

  const ProfitProblem& problem_;
  const AddAtpOptions& options_;
  // η_i of the decision in flight, and the sum of the bars η̃_j of the
  // decisions that stopped via C2.
  double eta_ = 1.0;
  double eta_sum_ = 0.0;
};

}  // namespace

Result<AdaptiveRunResult> AddAtpPolicy::Run(const ProfitProblem& problem,
                                            AdaptiveEnvironment* env,
                                            Rng* rng) {
  // No relative error: the guarantee is additive, so effective_epsilon
  // stays 0 and achieved_additive_error carries the worst n_i ζ_i.
  const DoubleGreedyDriver driver(
      {.name = "ADDATP",
       .model = options_.model,
       .sampling = options_.sampling,
       .initial_spread_error = options_.initial_spread_error,
       .fail_on_budget_exhausted = options_.fail_on_budget_exhausted});
  AdditiveErrorRule rule(problem, options_);
  return driver.Run(problem, env, &engine_, &rule, rng);
}

}  // namespace atpm
