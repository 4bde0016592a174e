#ifndef ATPM_BENCH_UTIL_SHARED_POOL_ENGINE_H_
#define ATPM_BENCH_UTIL_SHARED_POOL_ENGINE_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rris/sampling_engine.h"

namespace atpm {

/// Cross-world round-pool sharing for the experiment protocol.
///
/// ExperimentRunner evaluates every adaptive policy on the same fixed set
/// of possible worlds, and each run starts from an identical fresh residual
/// graph. The early halving rounds of different worlds therefore ask the
/// engine for *the same estimates*: same residual bitmap, same candidate
/// queries, same θ — only the sampling seed differs (each world has a
/// private RNG). Since any pool of θ RR sets on that residual graph
/// certifies the same concentration bound, the first world's pool can
/// answer every later world's identical round; runs diverge only once
/// their worlds produce different observations.
///
/// This decorator memoizes TryCountCoverageBatchSeeded on the round's
/// *content* — (num_alive, θ, removed bitmap, query nodes, base bitmaps) —
/// with the seed deliberately excluded, and replays stored hit counters on
/// a match. Per-world decision sequences stay valid HATP/ADDATP decisions
/// (every estimate still comes from a legitimate pool of ≥ θ sets); worlds
/// that share a round are simply correlated through it, which the
/// mean-over-worlds experiment protocol tolerates. This is a bench_util
/// layer tool, not a core sampling substrate — policies comparing RNG-
/// stream-sensitive telemetry should not run through it.
///
/// The content key is a 64-bit mix of the full round content; a collision
/// would silently alias two distinct rounds, which at 2^-64 per pair is
/// far below the Monte Carlo noise floor of the experiments.
class SharedRoundPoolEngine final : public SamplingEngine {
 public:
  /// Wraps `inner` (not owned; must outlive the wrapper).
  explicit SharedRoundPoolEngine(SamplingEngine* inner) : inner_(inner) {}

  /// Pool generation is stateful (the engine's pool accumulates), so it
  /// always delegates; only the throwaway counting pools are shared.
  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override {
    return inner_->TryGeneratePool(removed, num_alive, count, rng);
  }

  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override;

  /// Budgets apply to the engine that actually samples.
  void set_budget(BudgetGate* budget) override {
    SamplingEngine::set_budget(budget);
    inner_->set_budget(budget);
  }

  RRCollection& pool() override { return inner_->pool(); }
  void ResetPool() override { inner_->ResetPool(); }
  uint64_t total_edges_examined() const override {
    return inner_->total_edges_examined();
  }
  const Graph& graph() const override { return inner_->graph(); }
  DiffusionModel model() const override { return inner_->model(); }
  SamplingKernel kernel() const override { return inner_->kernel(); }
  uint32_t num_workers() const override { return inner_->num_workers(); }
  std::string_view name() const override { return "shared-round"; }

  /// Rounds answered by actually sampling a pool through the inner engine.
  uint64_t rounds_sampled() const { return rounds_sampled_; }
  /// Rounds served from a stored answer (no sampling).
  uint64_t rounds_reused() const { return rounds_reused_; }
  /// reused / (sampled + reused); 0 before any round.
  double ReuseRatio() const {
    const uint64_t total = rounds_sampled_ + rounds_reused_;
    return total == 0
               ? 0.0
               : static_cast<double>(rounds_reused_) /
                     static_cast<double>(total);
  }

  /// Drops every stored answer and zeroes the reuse counters (e.g. between
  /// algorithms whose examination orders should not cross-pollinate the
  /// memo size, or to re-baseline the ratio).
  void ClearMemo();

 private:
  SamplingEngine* inner_;
  /// One memoized round: the hit counters its pool produced plus the sets
  /// actually sampled (θ unless a budget truncated the pool — replays must
  /// report the same honest denominator the original round did).
  struct StoredRound {
    std::vector<uint64_t> hits;
    uint64_t sampled = 0;
  };
  /// Content hash of a round -> the answer its pool produced.
  std::unordered_map<uint64_t, StoredRound> memo_;
  uint64_t rounds_sampled_ = 0;
  uint64_t rounds_reused_ = 0;
};

}  // namespace atpm

#endif  // ATPM_BENCH_UTIL_SHARED_POOL_ENGINE_H_
