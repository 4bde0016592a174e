#ifndef ATPM_DIFFUSION_SPREAD_ORACLE_H_
#define ATPM_DIFFUSION_SPREAD_ORACLE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "common/status.h"
#include "diffusion/diffusion_model.h"
#include "graph/graph.h"
#include "rris/sampling_engine.h"

namespace atpm {

/// Access to expected spreads E[I_{G_i}(S)] on residual graphs. The paper's
/// *oracle model* assumes this is available in O(1); in practice computing
/// it exactly is #P-hard, so we offer
///   * ExactSpreadOracle      — full possible-world enumeration (2^m worlds;
///                              only for tiny graphs; the reference oracle
///                              for tests and the oracle-model experiments),
///   * MonteCarloSpreadOracle — forward-simulation average with common
///                              random numbers for low-variance marginals,
///   * RisSpreadOracle        — reverse-influence-sampling estimate through
///                              a SamplingEngine (scales to large graphs
///                              and inherits the engine's parallelism).
/// All three honor both diffusion models (IC and LT).
class SpreadOracle {
 public:
  virtual ~SpreadOracle() = default;

  /// Expected spread of `seeds` on the residual graph G \ removed (pass
  /// nullptr for the full graph). Seeds inside `removed` contribute 0.
  virtual double ExpectedSpread(std::span<const NodeId> seeds,
                                const BitVector* removed) = 0;

  /// Expected marginal spread E[I(base u {u})] - E[I(base)] on the residual
  /// graph. The default computes the two terms separately; implementations
  /// may pair samples for variance reduction.
  virtual double ExpectedMarginalSpread(NodeId u,
                                        std::span<const NodeId> base,
                                        const BitVector* removed);

  /// Marginal spreads of several candidates against the same base — the
  /// greedy-sweep shape. The default loops ExpectedMarginalSpread (one
  /// query's cost per candidate); RIS-backed oracles override it to answer
  /// the whole batch on ONE shared RR pool.
  virtual std::vector<double> ExpectedMarginalSpreads(
      std::span<const NodeId> candidates, std::span<const NodeId> base,
      const BitVector* removed);

  /// The graph this oracle is bound to.
  virtual const Graph& graph() const = 0;
};

/// Exact expected spread by enumerating every live-edge pattern of the
/// residual graph. Cost is O(2^m' * (n + m)) where m' is the number of edges
/// with both endpoints alive; construction fails above `max_edges`.
class ExactSpreadOracle final : public SpreadOracle {
 public:
  /// Creates an exact oracle for `graph` under `model`. Fails with
  /// InvalidArgument if the graph has more than `max_edges` edges
  /// (enumeration would be infeasible; under LT the world count
  /// Π_v (indeg(v)+1) is also bounded by 2^max_edges).
  static Result<std::unique_ptr<ExactSpreadOracle>> Create(
      const Graph& graph, uint32_t max_edges = 24,
      DiffusionModel model = DiffusionModel::kIndependentCascade);

  double ExpectedSpread(std::span<const NodeId> seeds,
                        const BitVector* removed) override;
  const Graph& graph() const override { return *graph_; }

 private:
  ExactSpreadOracle(const Graph* graph, DiffusionModel model)
      : graph_(graph), model_(model) {}
  double ExpectedSpreadLt(std::span<const NodeId> seeds,
                          const BitVector* removed);
  const Graph* graph_;
  DiffusionModel model_;
};

/// Options for MonteCarloSpreadOracle.
struct MonteCarloOptions {
  /// Forward simulations per query.
  uint32_t num_samples = 10000;
  /// RNG seed; every query draws fresh trial salts from a private stream,
  /// so oracle results are deterministic given the seed.
  uint64_t seed = 1;
  /// Diffusion model of the simulated worlds (IC edge coins or LT node
  /// thresholds, both hashed per trial for common random numbers).
  DiffusionModel model = DiffusionModel::kIndependentCascade;
};

/// Monte Carlo expected-spread estimator. Marginal queries evaluate
/// I_φ(base u {u}) − I_φ(base) within the *same* possible world (common
/// random numbers), which shrinks the marginal's variance dramatically.
class MonteCarloSpreadOracle final : public SpreadOracle {
 public:
  MonteCarloSpreadOracle(const Graph& graph, const MonteCarloOptions& options)
      : graph_(&graph), options_(options), rng_(options.seed) {}

  double ExpectedSpread(std::span<const NodeId> seeds,
                        const BitVector* removed) override;
  double ExpectedMarginalSpread(NodeId u, std::span<const NodeId> base,
                                const BitVector* removed) override;
  const Graph& graph() const override { return *graph_; }

 private:
  const Graph* graph_;
  MonteCarloOptions options_;
  Rng rng_;
};

/// Options for RisSpreadOracle.
struct RisOracleOptions {
  /// RR sets drawn per query (fresh pool each time; the engine's pool is
  /// reset).
  uint64_t num_rr_sets = 1ull << 15;
  /// Seed of the oracle's private sampling stream.
  uint64_t seed = 1;
};

/// Expected-spread estimator on the RIS identity: E[I_{G_i}(S)] ≈
/// n_i / θ · Cov_R(S) over a fresh pool of θ RR sets drawn through a
/// SamplingEngine. Unlike the Monte Carlo oracle this scales to large
/// graphs (cost is per-pool, not per-seed-set traversal) and runs on
/// whichever backend the engine was built with; the engine also fixes the
/// diffusion model. Marginal queries go through the batched coverage-query
/// layer: E[I(base u {u})] − E[I(base)] = n_i/θ · Cov_R(u | base), so one
/// pool answers a whole candidate sweep (with the two terms paired on the
/// same samples — the variance-reduction the base-class contract allows).
class RisSpreadOracle final : public SpreadOracle {
 public:
  /// Creates the oracle over `engine` (not owned; its pool is clobbered by
  /// every query).
  explicit RisSpreadOracle(SamplingEngine* engine,
                           const RisOracleOptions& options = {})
      : engine_(engine), options_(options), rng_(options.seed) {}

  double ExpectedSpread(std::span<const NodeId> seeds,
                        const BitVector* removed) override;
  double ExpectedMarginalSpread(NodeId u, std::span<const NodeId> base,
                                const BitVector* removed) override;
  std::vector<double> ExpectedMarginalSpreads(
      std::span<const NodeId> candidates, std::span<const NodeId> base,
      const BitVector* removed) override;
  const Graph& graph() const override { return engine_->graph(); }

 private:
  SamplingEngine* engine_;
  RisOracleOptions options_;
  Rng rng_;
};

}  // namespace atpm

#endif  // ATPM_DIFFUSION_SPREAD_ORACLE_H_
