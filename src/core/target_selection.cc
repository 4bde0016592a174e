#include "core/target_selection.h"

#include <utility>

#include "common/bit_vector.h"
#include "core/nonadaptive_greedy.h"
#include "im/imm.h"
#include "im/spread_bound.h"
#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"

namespace atpm {

namespace {

// E_l[I(T)]: coverage of T over a fresh pool, pushed through the martingale
// lower bound. The pool MUST be fresh (not the one T was derived from):
// reusing the derivation pool would condition the bound on the very samples
// that picked T and void the concentration guarantee. Only Cov(T) is read,
// so the pool stores only the entries of T.
Result<double> EstimateSpreadLowerBound(SamplingEngine* engine,
                                        std::span<const NodeId> targets,
                                        uint64_t num_rr_sets, double delta,
                                        Rng* rng) {
  const NodeId n = engine->graph().num_nodes();
  engine->ResetPool();
  engine->pool().RestrictTo(targets);
  ATPM_RETURN_NOT_OK(
      engine->TryGeneratePool(/*removed=*/nullptr, n, num_rr_sets, rng));
  const RRCollection& pool = engine->pool();
  // A budget-truncated pool still certifies a (weaker) martingale bound
  // over what it drew; an empty one bounds nothing.
  if (pool.num_sets() == 0) return 0.0;

  BitVector members(n);
  for (NodeId t : targets) members.Set(t);
  const uint64_t cov = pool.CoverageOfSet(members);
  return SpreadLowerBound(cov, pool.num_sets(), n, delta);
}

// One engine drives every stage of a pipeline call.
std::unique_ptr<SamplingEngine> PipelineEngine(
    const Graph& graph, const TargetSelectionOptions& options) {
  SamplingOptions sampling;
  sampling.num_threads = options.num_threads;
  sampling.kernel = options.kernel;
  return CreateSamplingEngine(graph, DiffusionModel::kIndependentCascade,
                              sampling);
}

}  // namespace

Result<TargetSelectionResult> BuildTopKTargetProblem(
    const Graph& graph, uint32_t k, CostScheme scheme,
    const TargetSelectionOptions& options) {
  std::unique_ptr<SamplingEngine> engine = PipelineEngine(graph, options);
  ImmOptions imm_options;
  imm_options.epsilon = options.imm_epsilon;
  imm_options.ell = options.imm_ell;
  imm_options.seed = options.seed;
  Result<ImmResult> imm = RunImm(graph, k, imm_options, engine.get());
  if (!imm.ok()) return imm.status();

  Rng rng(options.seed ^ 0x5ca1ab1eULL);
  const std::vector<NodeId>& targets = imm.value().seeds;
  const Result<double> bound = EstimateSpreadLowerBound(
      engine.get(), targets, options.bound_rr_sets, options.bound_delta,
      &rng);
  if (!bound.ok()) return bound.status();
  const double lower_bound = bound.value();
  if (lower_bound <= 0.0) {
    return Status::Internal(
        "top-k target selection: vanishing spread lower bound");
  }

  Result<std::vector<double>> costs =
      BuildCalibratedCosts(graph, targets, scheme, lower_bound, &rng);
  if (!costs.ok()) return costs.status();

  TargetSelectionResult result;
  result.problem.graph = &graph;
  result.problem.targets = targets;
  result.problem.costs = std::move(costs).value();
  result.spread_lower_bound = lower_bound;
  result.sampling_stats = engine->stats();
  ATPM_RETURN_NOT_OK(result.problem.Validate());
  return result;
}

Result<TargetSelectionResult> BuildPredefinedCostProblem(
    const Graph& graph, double lambda, CostScheme scheme, TargetMethod method,
    const TargetSelectionOptions& options) {
  std::unique_ptr<SamplingEngine> engine = PipelineEngine(graph, options);
  Rng rng(options.seed ^ 0xdecafbadULL);
  Result<std::vector<double>> costs =
      BuildPredefinedCosts(graph, scheme, lambda, &rng);
  if (!costs.ok()) return costs.status();

  // Derive T: run the chosen nonadaptive baseline over *all* nodes.
  ProfitProblem all_nodes;
  all_nodes.graph = &graph;
  all_nodes.targets.resize(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) all_nodes.targets[u] = u;
  all_nodes.costs = costs.value();

  Result<NonadaptiveResult> derived =
      method == TargetMethod::kNsg
          ? RunNsg(all_nodes, options.derive_rr_sets, &rng, engine.get())
          : RunNdg(all_nodes, options.derive_rr_sets, &rng, engine.get());
  if (!derived.ok()) return derived.status();
  if (derived.value().seeds.empty()) {
    return Status::InvalidArgument(
        "predefined-cost target selection: lambda too large, derived T is "
        "empty");
  }

  TargetSelectionResult result;
  result.problem.graph = &graph;
  result.problem.targets = derived.value().seeds;
  result.problem.costs = std::move(costs).value();
  const Result<double> bound = EstimateSpreadLowerBound(
      engine.get(), result.problem.targets, options.bound_rr_sets,
      options.bound_delta, &rng);
  if (!bound.ok()) return bound.status();
  result.spread_lower_bound = bound.value();
  result.sampling_stats = engine->stats();
  ATPM_RETURN_NOT_OK(result.problem.Validate());
  return result;
}

}  // namespace atpm
