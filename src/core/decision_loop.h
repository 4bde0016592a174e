#ifndef ATPM_CORE_DECISION_LOOP_H_
#define ATPM_CORE_DECISION_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/policy.h"
#include "core/profit.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/diffusion_model.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Error parameters of one halving round (Algorithms 3/4 notation). The
/// driver reports (eps, n_i zeta) of the round a decision stood on as its
/// guarantee, so a rule keeps them at a pair that round's θ certifies.
struct ErrorSchedule {
  /// n_i: alive nodes of the residual graph (n throughout for HNTP); fixed
  /// for the decision.
  double nd = 0.0;
  /// Relative error ε_i (hybrid rules; stays 0 under ADDATP).
  double eps = 0.0;
  /// Additive error ζ_i, as a fraction of n_i.
  double zeta = 0.0;
  /// Failure probability δ_i (kept-count HATP / HNTP spend their budget on
  /// a fixed grid instead, see KeptCountGrid).
  double delta = 0.0;
  /// Halving-round index i of the decision (0 for its first round).
  uint32_t round = 0;
};

/// Smallest additive error ζ_i a schedule takes on a residual graph of
/// `nd` alive nodes: one node's spread (1/n_i), capped at 1/2 so that the
/// sample-size bounds, which need ζ < 1, still hold when one node is left.
inline double ZetaFloor(double nd) { return std::min(1.0 / nd, 0.5); }

/// How a round's stopping test resolved.
enum class StopTest {
  /// Neither condition holds: tighten the schedule and run another round.
  kContinue,
  /// C1 / C'1: the round's confidence intervals certify the comparison.
  kCertified,
  /// C2 / C'2 alone: the errors reached their floors.
  kFloor,
};

/// What one completed round says about the candidate under examination.
struct RoundEstimates {
  /// c(u).
  double cost = 0.0;
  /// Front spread estimate n_i Cov(u | S) / θ.
  double fest = 0.0;
  /// Rear spread estimate n_i Cov(u | T \ {u}) / θ.
  double rest = 0.0;
};

/// The part of a double-greedy decision that differs between ADDATP
/// (Algorithm 3) and HATP / HNTP (Algorithm 4): sample size, stopping
/// test, error schedule, and the Line 13 comparison.
class DoubleGreedyRule {
 public:
  virtual ~DoubleGreedyRule() = default;
  /// RR sets θ a round run under `s` estimates from.
  virtual uint64_t SampleSize(const ErrorSchedule& s) const = 0;
  /// Whether the round's estimates settle the decision, and on which
  /// condition (C1/C2, C'1/C'2).
  virtual StopTest Stop(const RoundEstimates& e, const ErrorSchedule& s) = 0;
  /// Shrinks `s` for the next round of an unsettled decision.
  virtual void Tighten(const RoundEstimates& e, ErrorSchedule* s) const = 0;
  /// Line 13: select u (true) or abandon it (false).
  virtual bool Select(const RoundEstimates& e) const = 0;
  /// Appends, in order, the θ of every round the decision may still run
  /// after the round `s` describes — only when those sample sizes cannot
  /// depend on the estimates (the engine then starts their chunks early,
  /// SpeculativeRoundPlanner::NextRound). The default appends nothing.
  virtual void PlanLaterRounds(const ErrorSchedule& /*s*/,
                               std::vector<uint64_t>* /*thetas*/) const {}
  /// Called before the first round of every candidate that is examined
  /// (not skipped as already activated), with the schedule the driver
  /// built from the options — the rule may reshape it for round 0.
  virtual void BeginDecision(uint32_t /*num_activated*/,
                             std::span<const NodeId> /*seeds*/,
                             ErrorSchedule* /*schedule*/) {}
};

/// The k-sequential double-greedy loop shared by ADDATP, HATP and HNTP.
/// For every target in order it runs halving rounds through a
/// SpeculativeRoundPlanner until the rule stops, then selects or abandons
/// the candidate. It owns everything the algorithms share: the input and
/// engine checks, the run budget, the decision/round spans, one
/// degradation path (allocation failure, RR cap, run budget), round
/// accounting, and the worst-case guarantee of the run.
///
/// With an AdaptiveEnvironment every selection is seeded and observed, so
/// activated nodes leave the residual graph. Without one (HNTP, the
/// nonadaptive tailoring) nothing is ever activated: n_i = n, no node is
/// removed, a selected node stays in the rear base T, and the staleness
/// epoch of speculative answers is the number of selections so far.
class DoubleGreedyDriver {
 public:
  /// The policy options the driver reads.
  struct Config {
    /// Error-message prefix: "ADDATP", "HATP" or "HNTP".
    const char* name = "";
    DiffusionModel model = DiffusionModel::kIndependentCascade;
    SamplingOptions sampling;
    /// n_i ζ_0.
    double initial_spread_error = 64.0;
    /// ε_0 of the hybrid error schedule.
    double initial_relative_error = 0.0;
    /// ε certified by a clean run. 0 marks ADDATP's additive-only
    /// guarantee, whose effective_epsilon stays 0.
    double relative_error_threshold = 0.0;
    /// true: a round the RR cap cannot fund fails the run with
    /// OutOfBudget; false: the decision is forced from what it has.
    bool fail_on_budget_exhausted = false;
  };

  explicit DoubleGreedyDriver(const Config& config) : config_(config) {}

  /// Runs the loop over problem.targets. `env` must be fresh and bound to
  /// problem.graph, or null for the nonadaptive mode. The engine comes
  /// from `engine` (bound to problem.graph and config.model).
  Result<AdaptiveRunResult> Run(const ProfitProblem& problem,
                                AdaptiveEnvironment* env,
                                SamplingEngineHandle* engine,
                                DoubleGreedyRule* rule, Rng* rng) const;

 private:
  Config config_;
};

}  // namespace atpm

#endif  // ATPM_CORE_DECISION_LOOP_H_
