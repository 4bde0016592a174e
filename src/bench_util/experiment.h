#ifndef ATPM_BENCH_UTIL_EXPERIMENT_H_
#define ATPM_BENCH_UTIL_EXPERIMENT_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/policy.h"
#include "core/profit.h"
#include "diffusion/realization.h"

namespace atpm {

/// Aggregate outcome of one (algorithm, configuration) cell of an
/// experiment figure.
struct AlgoStats {
  /// Mean realized profit over the worlds (the y-axis of Figs. 2–4, 7, 8).
  double mean_profit = 0.0;
  /// Mean wall-clock seconds per world — total algorithm time for adaptive
  /// policies, one-shot selection time for nonadaptive ones (Figs. 5, 6).
  double mean_seconds = 0.0;
  /// Mean number of seeds actually selected.
  double mean_seeds = 0.0;
  /// Largest RR-set spend on a single iteration observed in any world
  /// (used to size NSG/NDG, Section VI-A); 0 for nonadaptive algorithms.
  uint64_t max_rr_sets_per_iteration = 0;
  /// True iff at least one world aborted with OutOfBudget — rendered like
  /// the paper's ADDATP out-of-memory marker.
  bool out_of_budget = false;
  /// Worlds completed (== worlds requested unless out_of_budget).
  uint32_t completed_runs = 0;
};

/// Shares one set of sampled possible worlds across every algorithm of an
/// experiment, mirroring the paper's protocol ("we randomly generate 20
/// possible realizations for each dataset" and evaluate everything on
/// them). Adaptive policies run once per world; nonadaptive batches are
/// selected once and evaluated on every world.
class ExperimentRunner {
 public:
  /// Samples `num_worlds` realizations of the problem's graph.
  ExperimentRunner(const ProfitProblem& problem, uint32_t num_worlds,
                   uint64_t seed);

  /// Runs `policy` once per world (each run gets a fresh environment and a
  /// deterministic per-world RNG). An OutOfBudget abort stops further
  /// worlds and is flagged in the stats; other errors are returned.
  Result<AlgoStats> RunAdaptive(AdaptivePolicy* policy);

  /// Evaluates a fixed seed batch on every world. `selection_seconds` is
  /// the one-shot selection cost reported as the algorithm's time.
  AlgoStats EvaluateFixedSet(std::span<const NodeId> seeds,
                             double selection_seconds) const;

  /// The "Baseline" curve: profit of seeding the entire target set T.
  AlgoStats EvaluateBaseline() const;

  /// The shared worlds (exposed for custom evaluations).
  std::span<const Realization> worlds() const { return worlds_; }
  /// The underlying problem.
  const ProfitProblem& problem() const { return *problem_; }
  /// Per-world deterministic RNG seed (world index `i`).
  uint64_t WorldSeed(uint32_t i) const;

 private:
  const ProfitProblem* problem_;
  uint64_t seed_;
  std::vector<Realization> worlds_;
};

}  // namespace atpm

#endif  // ATPM_BENCH_UTIL_EXPERIMENT_H_
