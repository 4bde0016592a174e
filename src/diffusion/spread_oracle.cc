#include "diffusion/spread_oracle.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "diffusion/ic_model.h"
#include "diffusion/realization.h"

namespace atpm {

double SpreadOracle::ExpectedMarginalSpread(NodeId u,
                                            std::span<const NodeId> base,
                                            const BitVector* removed) {
  std::vector<NodeId> with(base.begin(), base.end());
  with.push_back(u);
  return ExpectedSpread(with, removed) - ExpectedSpread(base, removed);
}

std::vector<double> SpreadOracle::ExpectedMarginalSpreads(
    std::span<const NodeId> candidates, std::span<const NodeId> base,
    const BitVector* removed) {
  std::vector<double> marginals;
  marginals.reserve(candidates.size());
  for (NodeId u : candidates) {
    marginals.push_back(ExpectedMarginalSpread(u, base, removed));
  }
  return marginals;
}

Result<std::unique_ptr<ExactSpreadOracle>> ExactSpreadOracle::Create(
    const Graph& graph, uint32_t max_edges, DiffusionModel model) {
  if (graph.num_edges() > max_edges) {
    return Status::InvalidArgument(
        "ExactSpreadOracle: graph has " + std::to_string(graph.num_edges()) +
        " edges, enumeration cap is " + std::to_string(max_edges));
  }
  return std::unique_ptr<ExactSpreadOracle>(
      new ExactSpreadOracle(&graph, model));
}

// LT worlds: every node independently keeps in-edge j with probability
// p_j, or no in-edge with the leftover mass 1 - Σ_j p_j. Enumerated with a
// per-node odometer; Π_v (indeg(v)+1) <= 2^m worlds, bounded by Create.
double ExactSpreadOracle::ExpectedSpreadLt(std::span<const NodeId> seeds,
                                           const BitVector* removed) {
  const Graph& g = *graph_;
  const NodeId n = g.num_nodes();
  // choice[v] in [0, indeg(v)]: index of the kept in-edge, indeg(v) = none.
  std::vector<uint32_t> choice(n, 0);
  double expected = 0.0;
  BitVector live(g.num_edges());
  for (;;) {
    double world_prob = 1.0;
    live.Reset();
    for (NodeId v = 0; v < n && world_prob > 0.0; ++v) {
      const auto probs = g.InProbs(v);
      if (choice[v] < probs.size()) {
        world_prob *= probs[choice[v]];
        live.Set(g.InEdgeIndex(v, choice[v]));
      } else {
        double none = 1.0;
        for (float p : probs) none -= p;
        world_prob *= std::max(0.0, none);
      }
    }
    if (world_prob > 0.0) {
      const Realization world = Realization::FromLiveEdges(g, BitVector(live));
      expected += world_prob * world.Spread(seeds, removed);
    }
    NodeId v = 0;
    while (v < n) {
      if (++choice[v] <= g.InDegree(v)) break;
      choice[v] = 0;
      ++v;
    }
    if (v == n) break;
  }
  return expected;
}

double ExactSpreadOracle::ExpectedSpread(std::span<const NodeId> seeds,
                                         const BitVector* removed) {
  if (model_ == DiffusionModel::kLinearThreshold) {
    return ExpectedSpreadLt(seeds, removed);
  }
  const Graph& g = *graph_;
  const uint64_t m = g.num_edges();
  ATPM_CHECK_LE(m, 62u);

  // Per-edge probabilities in global edge-index order.
  std::vector<float> probs(m);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto p = g.OutProbs(u);
    for (uint32_t j = 0; j < p.size(); ++j) {
      probs[g.OutEdgeIndex(u, j)] = p[j];
    }
  }

  double expected = 0.0;
  BitVector live(m);
  for (uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    double world_prob = 1.0;
    live.Reset();
    for (uint64_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1ULL) {
        world_prob *= probs[e];
        live.Set(e);
      } else {
        world_prob *= 1.0 - probs[e];
      }
    }
    if (world_prob == 0.0) continue;
    const Realization world = Realization::FromLiveEdges(g, BitVector(live));
    expected += world_prob * world.Spread(seeds, removed);
  }
  return expected;
}

namespace {

uint32_t HashedWorldSpread(const Graph& graph, DiffusionModel model,
                           std::span<const NodeId> seeds, uint64_t salt,
                           const BitVector* removed) {
  return model == DiffusionModel::kLinearThreshold
             ? SpreadInHashedWorldLt(graph, seeds, salt, removed)
             : SpreadInHashedWorld(graph, seeds, salt, removed);
}

/// Refills `engine`'s pool with `count` RR sets. The oracle interface
/// returns plain doubles and has no error channel, so a failure aborts.
const RRCollection& RefillPool(SamplingEngine* engine,
                               const BitVector* removed, uint32_t num_alive,
                               uint64_t count, Rng* rng) {
  engine->ResetPool();
  const Status status = engine->TryGeneratePool(removed, num_alive, count,
                                                rng);
  if (!status.ok()) {
    std::fprintf(stderr, "RisSpreadOracle: %s\n", status.ToString().c_str());
  }
  ATPM_CHECK(status.ok());
  return engine->pool();
}

}  // namespace

double MonteCarloSpreadOracle::ExpectedSpread(std::span<const NodeId> seeds,
                                              const BitVector* removed) {
  double sum = 0.0;
  for (uint32_t t = 0; t < options_.num_samples; ++t) {
    sum += HashedWorldSpread(*graph_, options_.model, seeds, rng_.Next(),
                             removed);
  }
  return sum / options_.num_samples;
}

double MonteCarloSpreadOracle::ExpectedMarginalSpread(
    NodeId u, std::span<const NodeId> base, const BitVector* removed) {
  std::vector<NodeId> with(base.begin(), base.end());
  with.push_back(u);
  double sum = 0.0;
  for (uint32_t t = 0; t < options_.num_samples; ++t) {
    const uint64_t salt = rng_.Next();
    const uint32_t spread_with =
        HashedWorldSpread(*graph_, options_.model, with, salt, removed);
    const uint32_t spread_base =
        HashedWorldSpread(*graph_, options_.model, base, salt, removed);
    sum += static_cast<double>(spread_with) - static_cast<double>(spread_base);
  }
  return sum / options_.num_samples;
}

double RisSpreadOracle::ExpectedSpread(std::span<const NodeId> seeds,
                                       const BitVector* removed) {
  const Graph& g = engine_->graph();
  const NodeId n = g.num_nodes();
  const uint32_t num_alive =
      n - static_cast<uint32_t>(removed != nullptr ? removed->Count() : 0);
  if (num_alive == 0 || seeds.empty()) return 0.0;

  const RRCollection& pool =
      RefillPool(engine_, removed, num_alive, options_.num_rr_sets, &rng_);
  // Scale by the sets actually in the pool — identical to num_rr_sets
  // normally, and the honest denominator when a BudgetGate truncated it.
  if (pool.num_sets() == 0) return 0.0;

  BitVector members(n);
  for (NodeId s : seeds) members.Set(s);
  // Seeds inside `removed` contribute nothing: removed nodes never appear
  // in residual RR sets, so their bits are inert.
  const uint64_t cov = pool.CoverageOfSet(members);
  return static_cast<double>(num_alive) * static_cast<double>(cov) /
         static_cast<double>(pool.num_sets());
}

double RisSpreadOracle::ExpectedMarginalSpread(NodeId u,
                                               std::span<const NodeId> base,
                                               const BitVector* removed) {
  return ExpectedMarginalSpreads({&u, 1}, base, removed)[0];
}

std::vector<double> RisSpreadOracle::ExpectedMarginalSpreads(
    std::span<const NodeId> candidates, std::span<const NodeId> base,
    const BitVector* removed) {
  const Graph& g = engine_->graph();
  const NodeId n = g.num_nodes();
  const uint32_t num_alive =
      n - static_cast<uint32_t>(removed != nullptr ? removed->Count() : 0);
  std::vector<double> marginals(candidates.size(), 0.0);
  if (num_alive == 0 || candidates.empty()) return marginals;

  BitVector members(n);
  for (NodeId s : base) members.Set(s);

  // One shared pool answers every candidate's Cov_R(u | base): the marginal
  // identity E[I(base u {u})] − E[I(base)] = n_i/θ · Cov_R(u | base) pairs
  // the two terms on the same samples, so the per-candidate estimate is the
  // paired-difference estimator (low variance) at half the sampling of the
  // generic two-ExpectedSpread fallback — and a k-candidate sweep costs one
  // pool instead of k.
  const RRCollection& pool =
      RefillPool(engine_, removed, num_alive, options_.num_rr_sets, &rng_);
  if (pool.num_sets() == 0) return marginals;

  CoverageQueryBatch batch;
  constexpr size_t kInBase = static_cast<size_t>(-1);
  std::vector<size_t> slot(candidates.size(), kInBase);
  for (size_t i = 0; i < candidates.size(); ++i) {
    // A candidate already in the base has zero marginal by definition.
    if (!members.Test(candidates[i])) {
      slot[i] = batch.Add(candidates[i], &members);
    }
  }
  pool.AnswerBatch(&batch);

  const double scale = static_cast<double>(num_alive) /
                       static_cast<double>(pool.num_sets());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (slot[i] != kInBase) {
      marginals[i] = static_cast<double>(batch.hits(slot[i])) * scale;
    }
  }
  return marginals;
}

}  // namespace atpm
