#ifndef PERFBENCH_TIMING_ENGINE_H_
#define PERFBENCH_TIMING_ENGINE_H_

// Timing decorator for the sampling layer. It wraps the engine a policy
// samples through (AdaptivePolicy::set_engine, or the engine overloads of
// RunNsg / RunNdg), forwards every virtual to it unchanged, draws no RNG,
// and reads effort from the inner engine's SamplingStats. It only adds
// clock reads around each call, so a decorated run selects the same seeds
// from the same RR sets as an undecorated one.

#include <cstdint>
#include <string_view>

#include "perfbench/span_log.h"
#include "rris/sampling_engine.h"

namespace perfbench {

/// Effort and time of one kind of engine call (pool fills or count
/// batches), summed over calls.
struct EngineCallTotals {
  uint64_t calls = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Worker-seconds the engine's workers held but did not use:
  /// workers x wall - CPU, summed per call.
  double idle_core_s = 0.0;
  uint64_t sets = 0;
  uint64_t edges = 0;
  uint64_t rng_draws = 0;
  uint64_t pools = 0;
  uint64_t queries = 0;
  /// Calls a multi-worker engine ran on the calling thread because the
  /// batch was under its parallel threshold.
  uint64_t inline_calls = 0;
  /// Nodes stored in the inner pool after each fill, summed (fills only).
  uint64_t stored_nodes = 0;

  void Add(const EngineCallTotals& other) {
    calls += other.calls;
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    idle_core_s += other.idle_core_s;
    sets += other.sets;
    edges += other.edges;
    rng_draws += other.rng_draws;
    pools += other.pools;
    queries += other.queries;
    inline_calls += other.inline_calls;
    stored_nodes += other.stored_nodes;
  }
};

class TimingEngine final : public atpm::SamplingEngine {
 public:
  /// Wraps `inner` (not owned). `min_parallel_batch` is the threshold the
  /// inner engine was built with; `spans` may be null.
  TimingEngine(atpm::SamplingEngine* inner, uint64_t min_parallel_batch,
               SpanLog* spans)
      : inner_(inner),
        min_parallel_batch_(min_parallel_batch),
        spans_(spans) {}

  atpm::Status TryGeneratePool(const atpm::BitVector* removed,
                               uint32_t num_alive, uint64_t count,
                               atpm::Rng* rng) override {
    ScopedSpan span(spans_, "rris.fill");
    const Mark mark = Begin();
    atpm::Status status = inner_->TryGeneratePool(removed, num_alive, count,
                                                  rng);
    End(mark, count, &fill_);
    fill_.stored_nodes += inner_->pool().total_nodes();
    return status;
  }

  atpm::Result<uint64_t> TryCountCoverageBatchSeeded(
      atpm::CoverageQueryBatch* batch, const atpm::BitVector* removed,
      uint32_t num_alive, uint64_t theta, uint64_t seed) override {
    ScopedSpan span(spans_, "rris.count");
    const Mark mark = Begin();
    atpm::Result<uint64_t> sampled = inner_->TryCountCoverageBatchSeeded(
        batch, removed, num_alive, theta, seed);
    End(mark, theta, &count_);
    return sampled;
  }

  void set_budget(atpm::BudgetGate* budget) override {
    SamplingEngine::set_budget(budget);
    inner_->set_budget(budget);
  }
  atpm::RRCollection& pool() override { return inner_->pool(); }
  void ResetPool() override { inner_->ResetPool(); }
  uint64_t total_edges_examined() const override {
    return inner_->total_edges_examined();
  }
  const atpm::Graph& graph() const override { return inner_->graph(); }
  atpm::DiffusionModel model() const override { return inner_->model(); }
  atpm::SamplingKernel kernel() const override { return inner_->kernel(); }
  uint32_t num_workers() const override { return inner_->num_workers(); }
  std::string_view name() const override { return inner_->name(); }

  const EngineCallTotals& count() const { return count_; }
  const EngineCallTotals& fill() const { return fill_; }

  void ResetTotals() {
    count_ = {};
    fill_ = {};
  }

 private:
  struct Mark {
    int64_t wall_ns;
    int64_t cpu_ns;
    atpm::SamplingStats stats;
  };

  Mark Begin() const { return {WallNs(), CpuNs(), inner_->stats()}; }

  void End(const Mark& mark, uint64_t requested,
           EngineCallTotals* totals) const {
    const double wall = static_cast<double>(WallNs() - mark.wall_ns) * 1e-9;
    const double cpu = static_cast<double>(CpuNs() - mark.cpu_ns) * 1e-9;
    const atpm::SamplingStats& now = inner_->stats();
    const uint32_t workers = inner_->num_workers();
    const bool inline_call = workers > 1 && requested < min_parallel_batch_;
    ++totals->calls;
    totals->wall_s += wall;
    totals->cpu_s += cpu;
    totals->idle_core_s += static_cast<double>(workers) * wall - cpu;
    totals->sets += now.rr_sets_generated - mark.stats.rr_sets_generated;
    totals->edges += now.edges_examined - mark.stats.edges_examined;
    totals->rng_draws += now.rng_draws - mark.stats.rng_draws;
    totals->pools += now.count_pools - mark.stats.count_pools;
    totals->queries += now.coverage_queries - mark.stats.coverage_queries;
    if (inline_call) ++totals->inline_calls;
  }

  atpm::SamplingEngine* inner_;
  uint64_t min_parallel_batch_;
  SpanLog* spans_;
  EngineCallTotals count_;
  EngineCallTotals fill_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENGINE_H_
