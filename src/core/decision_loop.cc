#include "core/decision_loop.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/bit_vector.h"
#include "common/math_util.h"
#include "common/trace.h"

namespace atpm {

Result<AdaptiveRunResult> DoubleGreedyDriver::Run(
    const ProfitProblem& problem, AdaptiveEnvironment* env,
    SamplingEngineHandle* engine_handle, DoubleGreedyRule* rule,
    Rng* rng) const {
  using RoundStep = SpeculativeRoundPlanner::RoundStep;
  const std::string name = config_.name;
  const SamplingOptions& sampling = config_.sampling;
  ATPM_RETURN_NOT_OK(problem.Validate());
  if (env != nullptr && &env->graph() != problem.graph) {
    return Status::InvalidArgument(name + ": environment graph mismatch");
  }
  if (env != nullptr && env->num_activated() != 0) {
    return Status::InvalidArgument(name + ": environment must be fresh");
  }

  const Graph& graph = *problem.graph;
  const NodeId n = graph.num_nodes();
  const uint32_t k = problem.k();
  if (k == 0) return AdaptiveRunResult{};

  SamplingEngine* engine = engine_handle->Get(graph, config_.model, sampling);
  if (&engine->graph() != &graph || engine->model() != config_.model) {
    return Status::InvalidArgument(
        name + ": sampling engine bound to a different graph/model");
  }

  AdaptiveRunResult result;
  result.steps.reserve(k);
  SpeculativeRoundPlanner planner(sampling, problem.targets);

  // Run-level resource envelope: the gate is polled by the engine at batch
  // boundaries and by the planner before each sampled round. Inactive
  // budgets arm nothing and the sampling paths stay bit-identical.
  BudgetGate gate(sampling.budget);
  ScopedEngineBudget scoped_budget(engine, &gate);

  // Worst-case guarantee aggregation across decisions (see
  // AdaptiveRunResult::effective_epsilon / achieved_theta).
  const bool relative = config_.relative_error_threshold > 0.0;
  double worst_eps = config_.relative_error_threshold;
  double worst_additive = 0.0;
  uint64_t min_decided_theta = UINT64_MAX;
  bool any_estimate_decision = false;
  bool any_blind_decision = false;

  // Selected seeds: the front base of Cov(u | S_{i-1}).
  BitVector seed_bitmap(n);
  // The rear base T_{i-1} \ {u_i}: undecided candidates, plus the selected
  // seeds in nonadaptive mode (adaptively they are activated and gone).
  BitVector candidates(n);
  for (NodeId t : problem.targets) candidates.Set(t);

  for (size_t pos = 0; pos < problem.targets.size(); ++pos) {
    const NodeId u = problem.targets[pos];
    obs::TraceSpan decision_span("decision");
    decision_span.AnnotateU64("node", u);
    AdaptiveStepRecord step;
    step.node = u;
    candidates.Clear(u);

    if (env != nullptr && env->IsActivated(u)) {
      step.decision = SeedDecision::kSkippedActivated;
      NotePolicyDecision();
      result.steps.push_back(step);
      continue;
    }
    rule->BeginDecision(env != nullptr ? env->num_activated() : 0,
                        result.seeds);

    const uint32_t ni = env != nullptr ? env->num_remaining() : n;
    const double nd = static_cast<double>(ni);
    const BitVector* removed = env != nullptr ? &env->activated() : nullptr;
    // Only selections reshape the bases a speculative answer depends on.
    const uint64_t epoch =
        env != nullptr ? env->residual_epoch() : result.seeds.size();

    ErrorSchedule schedule;
    schedule.eps = config_.initial_relative_error;
    schedule.zeta = Clamp(config_.initial_spread_error / nd, 1.0 / nd, 0.5);
    schedule.delta =
        1.0 / (static_cast<double>(k) * static_cast<double>(n));

    RoundEstimates estimates;
    estimates.nd = nd;
    estimates.cost = problem.CostOf(u);
    uint64_t used_this_iter = 0;
    // Evidence the decision ends up standing on when the schedule is cut
    // short (updated after every completed round).
    uint64_t last_theta = 0;
    double last_eps = 1.0;
    double last_az = nd;
    bool forced = false;

    for (;;) {
      const uint64_t theta = rule->SampleSize(schedule);
      obs::TraceSpan round_span("round");
      round_span.AnnotateU64("theta", theta);
      if (step.rounds == 0) planner.Begin(pos, u, epoch, theta);
      // One round: served from a stored speculative answer (free, estimates
      // scale by the answering pool's size), or sampled — batched rounds
      // share one pool across the front and rear queries, the literal
      // Algorithms 3/4 pay two independent pools R1, R2.
      FrontRearHits hits;
      const Result<RoundStep> round = planner.NextRound(
          engine, u, seed_bitmap, candidates, removed, ni, theta, epoch,
          sampling.max_rr_sets_per_decision - used_this_iter, rng, &hits);
      if (!round.ok() && !round.status().IsResourceExhausted()) {
        // Allocation failure is absorbed below — the decision proceeds on
        // the rounds already completed; real engine faults propagate.
        return round.status();
      }
      if (round.ok() && round.value() == RoundStep::kOverBudget &&
          config_.fail_on_budget_exhausted) {
        return Status::OutOfBudget(
            name + ": deciding node " + std::to_string(u) + " needs " +
            std::to_string(RoundRrSets(theta, planner.batched())) +
            " more RR sets (budget " +
            std::to_string(sampling.max_rr_sets_per_decision) + ")");
      }
      // Charge what the round drew, even when it yields no estimate.
      used_this_iter += hits.sets;
      step.coverage_queries += hits.queries;
      result.total_count_pools += hits.pools;
      if (round.ok() && hits.theta > 0) {
        // A usable round: sampled, served, or a pool a run budget cut
        // short, which still estimates honestly over what it drew.
        if (round.value() == RoundStep::kServed && step.rounds == 0) {
          step.first_round_speculative = true;
        }
        ++step.rounds;
        NotePolicyRound();
        const double scale = nd / static_cast<double>(hits.theta);
        estimates.fest = static_cast<double>(hits.front) * scale;
        estimates.rest = static_cast<double>(hits.rear) * scale;
        last_theta = hits.theta;
        last_eps = schedule.eps;
        last_az = nd * schedule.zeta;
      }

      std::optional<DegradationReason> degraded;
      if (!round.ok()) {
        degraded = DegradationReason::kAllocFailure;
      } else if (round.value() == RoundStep::kOverBudget) {
        degraded = DegradationReason::kRrBudget;
      } else if (round.value() == RoundStep::kDegraded) {
        const BudgetGate* engine_gate = engine->budget();
        degraded = ReasonFromBudgetStop(engine_gate != nullptr
                                            ? engine_gate->Exhausted()
                                            : BudgetStop::kNone);
      }
      if (degraded.has_value()) {
        // The schedule is cut short: decide from the last completed round,
        // or — with none — mark the decision instead of comparing zeroes.
        forced = true;
        result.degradation_events.push_back(
            {*degraded, u, step.rounds, theta, last_theta});
        NoteDegradationEvent(result.degradation_events.back());
        decision_span.AnnotateU64("degraded_reason",
                                  static_cast<uint64_t>(*degraded));
        if (step.rounds == 0) {
          ++result.budget_exhausted_decisions;
        } else {
          ++result.budget_truncated_decisions;
        }
        break;
      }
      if (rule->Stop(estimates, schedule)) break;
      rule->Tighten(estimates, &schedule);
    }

    step.rr_sets_used = used_this_iter;
    result.total_rr_sets += used_this_iter;
    result.total_coverage_queries += step.coverage_queries;
    result.max_rr_sets_per_iteration =
        std::max(result.max_rr_sets_per_iteration, used_this_iter);

    if (step.rounds == 0) {
      // No estimate at all: the comparison is vacuous, so the worst-case
      // guarantee trackers take their trivial bounds.
      step.decision = SeedDecision::kBudgetExhausted;
      any_blind_decision = true;
      if (relative) worst_eps = 1.0;
      worst_additive = std::max(worst_additive, nd);
    } else {
      // A certified stop delivers the requested guarantee; a forced
      // decision stands on the last round's coarser (ε, n_i ζ).
      any_estimate_decision = true;
      min_decided_theta = std::min(min_decided_theta, last_theta);
      if (forced) worst_eps = std::max(worst_eps, last_eps);
      worst_additive = std::max(worst_additive, last_az);
      if (!rule->Select(estimates)) {
        step.decision = SeedDecision::kAbandoned;
      } else {
        step.decision = SeedDecision::kSelected;
        result.seeds.push_back(u);
        seed_bitmap.Set(u);
        if (env == nullptr) {
          candidates.Set(u);  // selected nodes remain in T (Alg 1)
        } else {
          const std::vector<NodeId>& activated = env->SeedAndObserve(u);
          step.newly_activated = static_cast<uint32_t>(activated.size());
          for (NodeId v : activated) {
            if (candidates.Test(v)) candidates.Clear(v);
          }
        }
      }
    }
    NotePolicyDecision();
    result.steps.push_back(step);
  }

  result.effective_epsilon = worst_eps;
  result.achieved_additive_error = worst_additive;
  result.achieved_theta = (!any_estimate_decision || any_blind_decision)
                              ? 0
                              : min_decided_theta;
  const SpeculationStats& spec = planner.stats();
  result.speculation_hits = spec.hits;
  result.speculation_rounds_served = spec.rounds_served;
  result.speculation_misses = spec.misses;
  result.speculation_discarded = spec.discarded;
  result.speculative_queries = spec.speculative_queries;
  if (env != nullptr) FinalizeAdaptiveResult(problem, *env, &result);
  return result;
}

}  // namespace atpm
