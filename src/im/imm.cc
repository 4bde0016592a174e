#include "im/imm.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "im/greedy_coverage.h"
#include "rris/rr_collection.h"
#include "rris/sampling_engine.h"

namespace atpm {

Result<ImmResult> RunImm(const Graph& graph, uint32_t k,
                         const ImmOptions& options) {
  SamplingOptions sampling;
  sampling.num_threads = options.num_threads;
  sampling.kernel = options.kernel;
  std::unique_ptr<SamplingEngine> engine = CreateSamplingEngine(
      graph, DiffusionModel::kIndependentCascade, sampling);
  return RunImm(graph, k, options, engine.get());
}

Result<ImmResult> RunImm(const Graph& graph, uint32_t k,
                         const ImmOptions& options, SamplingEngine* engine) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("IMM: empty graph");
  if (k == 0 || k > n) {
    return Status::InvalidArgument("IMM: k must be in [1, n], got " +
                                   std::to_string(k));
  }
  if (options.epsilon <= 0.0 || options.epsilon >= 1.0) {
    return Status::InvalidArgument("IMM: epsilon must be in (0, 1)");
  }
  if (&engine->graph() != &graph) {
    return Status::InvalidArgument(
        "IMM: sampling engine bound to a different graph");
  }

  const double nd = static_cast<double>(n);
  const double log_n = std::log(nd);
  const double log_nk = LogBinomial(n, k);
  const double eps = options.epsilon;
  // ell' compensates the union bound over the sampling phase iterations
  // (IMM paper, Sec. 4.2).
  const double ell =
      options.ell * (1.0 + std::log(2.0) / std::max(log_n, 1e-9));

  Rng rng(options.seed);
  engine->ResetPool();
  RRCollection& pool = engine->pool();

  ImmResult result;

  // --- Phase 1: estimate a lower bound LB on OPT_k. ---
  const double eps_prime = std::sqrt(2.0) * eps;
  const double lambda_prime =
      (2.0 + 2.0 * eps_prime / 3.0) *
      (log_nk + ell * log_n + std::log(std::max(std::log2(nd), 1.0))) * nd /
      (eps_prime * eps_prime);

  double lower_bound = 1.0;
  const int max_rounds =
      std::max(1, static_cast<int>(std::log2(std::max(nd, 2.0))) - 1);
  for (int i = 1; i <= max_rounds; ++i) {
    const double x = nd / std::pow(2.0, i);
    const uint64_t theta_i =
        static_cast<uint64_t>(std::ceil(lambda_prime / x));
    if (theta_i > options.max_rr_sets) {
      return Status::OutOfBudget("IMM sampling phase needs " +
                                 std::to_string(theta_i) + " RR sets, cap " +
                                 std::to_string(options.max_rr_sets));
    }
    if (pool.num_sets() < theta_i) {
      ATPM_RETURN_NOT_OK(engine->TryGeneratePool(
          /*removed=*/nullptr, n, theta_i - pool.num_sets(), &rng));
    }
    GreedyCoverageResult greedy = GreedyMaxCoverage(&pool, k);
    const double est = nd * static_cast<double>(greedy.covered) /
                       static_cast<double>(pool.num_sets());
    if (est >= (1.0 + eps_prime) * x) {
      lower_bound = est / (1.0 + eps_prime);
      break;
    }
  }

  // --- Phase 2: final pool of θ = λ* / LB sets, then greedy. ---
  const double e_const = std::exp(1.0);
  const double alpha = std::sqrt(ell * log_n + std::log(2.0));
  const double beta = std::sqrt((1.0 - 1.0 / e_const) *
                                (log_nk + ell * log_n + std::log(2.0)));
  const double lambda_star = 2.0 * nd *
                             std::pow((1.0 - 1.0 / e_const) * alpha + beta, 2) /
                             (eps * eps);
  const uint64_t theta =
      static_cast<uint64_t>(std::ceil(lambda_star / lower_bound));
  if (theta > options.max_rr_sets) {
    return Status::OutOfBudget("IMM selection phase needs " +
                               std::to_string(theta) + " RR sets, cap " +
                               std::to_string(options.max_rr_sets));
  }
  if (pool.num_sets() < theta) {
    ATPM_RETURN_NOT_OK(engine->TryGeneratePool(
        /*removed=*/nullptr, n, theta - pool.num_sets(), &rng));
  }

  GreedyCoverageResult final_greedy = GreedyMaxCoverage(&pool, k);
  result.seeds = std::move(final_greedy.seeds);
  result.estimated_spread = nd * static_cast<double>(final_greedy.covered) /
                            static_cast<double>(pool.num_sets());
  result.num_rr_sets = pool.num_sets();
  result.total_edges_examined = engine->total_edges_examined();
  return result;
}

}  // namespace atpm
