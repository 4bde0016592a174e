#ifndef ATPM_RRIS_SAMPLING_ENGINE_H_
#define ATPM_RRIS_SAMPLING_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "common/run_budget.h"
#include "common/status.h"
#include "diffusion/diffusion_model.h"
#include "graph/graph.h"
#include "rris/coverage_batch.h"
#include "rris/rr_collection.h"
#include "rris/rr_set.h"
#include "rris/sampling_stats.h"

namespace atpm {

/// Sampling knobs shared by every RIS-driven decision loop (ADDATP, HATP,
/// HNTP). Policy option structs embed one of these instead of copy-pasting
/// the fields; engine construction (CreateSamplingEngine) reads the
/// thread count and kernel from it.
struct SamplingOptions {
  /// Worker threads (0 = hardware concurrency). The resolved count picks
  /// the backend: above 1 the persistent thread pool, otherwise the serial
  /// engine, which reproduces the single-threaded code path bit for bit for
  /// a fixed seed. Results are deterministic for a fixed (seed,
  /// num_threads) pair but differ across thread counts.
  uint32_t num_threads = 1;
  /// Budget cap on RR sets generated for a single seed decision (all pools
  /// and all halving rounds combined).
  uint64_t max_rr_sets_per_decision = 1ull << 23;
  /// One shared pool of θ RR sets per halving round answers both the front
  /// and the rear coverage query through a CoverageQueryBatch — half the RR
  /// sets per round, identical per-query concentration bounds. false
  /// restores the literal two-independent-pools sampling of Algorithms 3/4
  /// (bit-identical to the pre-batching code paths for a fixed seed).
  bool batched_rounds = true;
  /// Speculative cross-candidate pipelining: every batched halving round's
  /// pool additionally answers the first-round front/rear queries of the
  /// next `lookahead_window` undecided candidates, tagged with the
  /// residual-graph epoch. When the decision loop reaches such a candidate
  /// and the epoch is unchanged (only seedings bump it — skipped and
  /// abandoned candidates do not), the stored answer serves its first round
  /// without sampling a pool; stale answers are discarded unread. 0 (the
  /// default) disables speculation and is bit-identical to plain batched
  /// rounds for a fixed seed. Requires batched_rounds; ignored otherwise.
  uint32_t lookahead_window = 0;
  /// RR-generation kernel of every generator the engine owns (see
  /// SamplingKernel in graph/graph.h). The default geometric-jump kernel is
  /// statistically equivalent to the historical per-edge loop but consumes
  /// a different RNG stream; set kPerEdge to reproduce pre-kernel decision
  /// sequences bit for bit for a fixed seed.
  SamplingKernel kernel = SamplingKernel::kGeometricJump;
  /// Resource envelope for the whole run: wall-clock deadline, RR-pool
  /// byte cap, and cooperative cancellation. Inactive (the default) adds
  /// no checks and leaves every RNG stream bit-identical; when a limit
  /// trips mid-run the policies finish the current decision on the RR
  /// sets already drawn and report the weakened guarantee
  /// (DegradationEvent / achieved_theta / effective_epsilon) instead of
  /// crashing or silently answering with less evidence than requested.
  RunBudget budget;
};

/// The substrate boundary between RR-set sampling and the TPM algorithms.
///
/// Every policy needs exactly two operations on the residual graph
/// G \ removed (`num_alive` = nodes outside `removed`):
///
///  * TryGeneratePool — append `count` stored RR sets to the engine's pool
///    (NSG/NDG/IMM-style fixed pools, spread lower bounds), with the total
///    edges examined (the IMM/EPT cost measure) accumulated in
///    total_edges_examined() so concentration accounting aggregates
///    correctly across parallel shards;
///  * TryCountCoverageBatch — draw ONE pool of θ throwaway RR sets and
///    answer every Cov(u | base) query of a CoverageQueryBatch in a single
///    pass (the ADDATP/HATP per-decision hot path; a round's front and rear
///    estimates share the pool instead of paying a fan-out each).
///
/// Both return a Status and never abort; callers with no error channel
/// check it themselves. Engines are bound to one (graph, diffusion model)
/// pair and are *not* re-entrant: one query runs at a time. Randomness is
/// always drawn from the caller's Rng, so runs remain reproducible; the
/// parallel backend consumes exactly one 64-bit draw per query and splits
/// it into per-worker streams (SplitSeed), making results deterministic for
/// a fixed (caller stream, thread count) pair.
class SamplingEngine {
 public:
  virtual ~SamplingEngine() = default;

  /// Appends up to `count` RR sets sampled on G \ removed to the engine's
  /// pool (fewer when the installed BudgetGate trips mid-batch — the pool
  /// then holds every set generated before the stop, and pool().num_sets()
  /// is the honest denominator). Edge-examination cost accrues into
  /// total_edges_examined(). Failures — an injected failpoint, a worker
  /// exception, allocation exhaustion — surface as a Status instead of
  /// terminating the process; kResourceExhausted means the pool kept what
  /// it had and the caller may degrade onto it.
  virtual Status TryGeneratePool(const BitVector* removed,
                                 uint32_t num_alive, uint64_t count,
                                 Rng* rng) = 0;

  /// Samples one shared pool of `theta` RR sets without storing them and
  /// fills in `batch`'s per-query hit counters. Consumes one 64-bit draw
  /// from `rng` regardless of batch width or worker count. Returns the
  /// number of sets actually drawn — θ, unless the installed BudgetGate
  /// stopped the pool early, in which case the hit counters are exact over
  /// that smaller pool and the return value is the honest denominator.
  Result<uint64_t> TryCountCoverageBatch(CoverageQueryBatch* batch,
                                         const BitVector* removed,
                                         uint32_t num_alive, uint64_t theta,
                                         Rng* rng) {
    return TryCountCoverageBatchSeeded(batch, removed, num_alive, theta,
                                       rng->Next());
  }

  /// Seed-level variant of TryCountCoverageBatch: the serial backend
  /// counts with the stream Rng(seed); the parallel backend gives worker w
  /// the stream Rng(SplitSeed(seed, w)) and a private counter shard,
  /// merged deterministically in worker order. Returns the sets actually
  /// drawn (see TryCountCoverageBatch). A one-query batch is bit-identical
  /// to the historical per-query sampling for a fixed seed.
  virtual Result<uint64_t> TryCountCoverageBatchSeeded(
      CoverageQueryBatch* batch, const BitVector* removed,
      uint32_t num_alive, uint64_t theta, uint64_t seed) = 0;

  /// Installs (or clears, with nullptr) the budget gate the sampling
  /// paths poll at batch boundaries. Borrowed: the caller keeps the gate
  /// alive until it is cleared. Engines are not re-entrant, so one gate at
  /// a time; decorators forward to their inner engine.
  virtual void set_budget(BudgetGate* budget) { budget_ = budget; }
  /// The installed budget gate (null = unbudgeted).
  BudgetGate* budget() const { return budget_; }

  /// The engine's pool of stored RR sets (as filled by TryGeneratePool).
  virtual RRCollection& pool() = 0;
  /// Empties the pool (keeps capacity) and zeroes the edge accounting.
  virtual void ResetPool() = 0;
  /// Total edges examined by all TryGeneratePool calls since the last
  /// ResetPool, aggregated across workers.
  virtual uint64_t total_edges_examined() const = 0;

  /// Lifetime sampling-effort counters (pool + counting paths). Unlike
  /// total_edges_examined these survive ResetPool; ResetStats re-baselines
  /// them (e.g. per benchmark phase).
  const SamplingStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SamplingStats{}; }

  /// The bound graph.
  virtual const Graph& graph() const = 0;
  /// The bound diffusion model.
  virtual DiffusionModel model() const = 0;
  /// The RR-generation kernel of the engine's generators.
  virtual SamplingKernel kernel() const = 0;
  /// Worker count (1 for the serial backend).
  virtual uint32_t num_workers() const = 0;
  /// Backend identifier for logs and benchmarks.
  virtual std::string_view name() const = 0;

 protected:
  /// Harvest helpers shared by both backends (the per-path counter
  /// bookkeeping used to be copy-pasted four times): fold a finished
  /// generation/counting batch into the per-engine SamplingStats — kept
  /// exact, `stats()` stays a thin read — and mirror the same deltas into
  /// the global atpm_obs registry (atpm_rr_sets_generated_total & co).
  void AccrueGeneration(uint64_t sets, uint64_t edges, uint64_t draws);
  void AccrueCounting(uint64_t pools, uint64_t queries);

  SamplingStats stats_;
  BudgetGate* budget_ = nullptr;
};

/// What the two backends share: the stored pool with its edge accounting,
/// and one RRSetGenerator that samples on the calling thread. The serial
/// backend runs every call through it; the parallel backend runs the
/// batches below its fan-out threshold through it. A count batch charges
/// its pool and queries only once the pool has been drawn.
class CallerThreadSamplingEngine : public SamplingEngine {
 public:
  RRCollection& pool() override { return pool_; }
  void ResetPool() override;
  uint64_t total_edges_examined() const override { return edges_examined_; }
  const Graph& graph() const override { return generator_.graph(); }
  DiffusionModel model() const override { return model_; }
  SamplingKernel kernel() const override { return generator_.kernel(); }

 protected:
  CallerThreadSamplingEngine(const Graph& graph, DiffusionModel model,
                             SamplingKernel kernel);

  /// TryGeneratePool on the calling thread, drawing from `rng` directly.
  Status FillOnCallerThread(const BitVector* removed, uint32_t num_alive,
                            uint64_t count, Rng* rng);
  /// TryCountCoverageBatchSeeded on the calling thread with the stream
  /// Rng(seed).
  Result<uint64_t> CountOnCallerThread(CoverageQueryBatch* batch,
                                       const BitVector* removed,
                                       uint32_t num_alive, uint64_t theta,
                                       uint64_t seed);

  RRCollection pool_;
  uint64_t edges_examined_ = 0;

 private:
  DiffusionModel model_;
  RRSetGenerator generator_;
  /// Batch staging in AppendShard layout (flat nodes + per-set sizes),
  /// reused across fills so the hot loop never reallocates.
  std::vector<NodeId> shard_nodes_;
  std::vector<uint32_t> shard_sizes_;
};

/// Single-threaded backend: a persistent RRSetGenerator driven by the
/// caller's Rng. For a fixed (seed, kernel) pair this reproduces the raw
/// generator code paths (RRCollection::Generate / CountCoveringBatch with
/// the stream Rng(seed)) bit for bit.
class SerialSamplingEngine final : public CallerThreadSamplingEngine {
 public:
  explicit SerialSamplingEngine(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      SamplingKernel kernel = SamplingKernel::kGeometricJump)
      : CallerThreadSamplingEngine(graph, model, kernel) {}

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override {
    return FillOnCallerThread(removed, num_alive, count, rng);
  }
  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override {
    return CountOnCallerThread(batch, removed, num_alive, theta, seed);
  }

  uint32_t num_workers() const override { return 1; }
  std::string_view name() const override { return "serial"; }
};

/// Thread-pool backend: `num_threads` persistent workers, each with its own
/// RRSetGenerator (no shared mutable state on the hot path) and a private
/// Rng stream derived by SplitSeed from the query's base seed. Pool
/// generation shards into per-worker flat buffers that are spliced into the
/// CSR pool in worker order (RRCollection::AppendShard); counting jobs give
/// every worker a private per-query counter shard merged by summation in
/// worker order — so merged pools, batch counts, and aggregated edge counts
/// are all deterministic for a fixed (seed, num_threads) pair. Queries
/// below min_parallel_batch bypass the pool and run on the calling thread
/// through the serial backend's code; for the counting path that is
/// bit-identical to the serial backend (both count with the stream
/// Rng(base seed)), while TryGeneratePool is only statistically equivalent
/// (the serial backend generates from the caller's stream directly, the
/// inline path from one reseeded draw).
class ParallelSamplingEngine final : public CallerThreadSamplingEngine {
 public:
  /// Batches below this size run on the calling thread — fan-out overhead
  /// dominates tiny jobs, and the adaptive policies issue plenty of them
  /// early in the error schedule.
  static constexpr uint64_t kDefaultMinParallelBatch = 4096;

  explicit ParallelSamplingEngine(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      uint32_t num_threads = 0,
      uint64_t min_parallel_batch = kDefaultMinParallelBatch,
      SamplingKernel kernel = SamplingKernel::kGeometricJump);
  ~ParallelSamplingEngine() override;

  ParallelSamplingEngine(const ParallelSamplingEngine&) = delete;
  ParallelSamplingEngine& operator=(const ParallelSamplingEngine&) = delete;

  Status TryGeneratePool(const BitVector* removed, uint32_t num_alive,
                         uint64_t count, Rng* rng) override;
  Result<uint64_t> TryCountCoverageBatchSeeded(CoverageQueryBatch* batch,
                                               const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t theta,
                                               uint64_t seed) override;

  uint32_t num_workers() const override {
    return static_cast<uint32_t>(workers_.size());
  }
  std::string_view name() const override { return "parallel"; }

 private:
  /// Per-worker state; only its owning thread touches it during a job.
  struct Worker {
    std::unique_ptr<RRSetGenerator> generator;
    uint64_t quota = 0;
    /// Per-query hit counters of the current batch job (counter shard).
    std::vector<uint64_t> hit_shard;
    uint64_t edges_result = 0;
    /// RNG draws consumed by this worker's generator during the current
    /// job (delta of RRSetGenerator::rng_draws), merged into
    /// SamplingStats::rng_draws after the barrier.
    uint64_t draws_result = 0;
    /// RR sets this worker actually drew in the current counting job
    /// (its quota, unless a budget gate stopped it early).
    uint64_t sampled_result = 0;
    /// Exception that escaped this worker's job body, if any. Captured by
    /// WorkerLoop so a throwing job degrades to a Status from RunOnPool
    /// instead of std::terminate-ing the process.
    std::exception_ptr error;
    std::vector<NodeId> shard_nodes;
    std::vector<uint32_t> shard_sizes;
  };

  /// Runs `body(worker_index)` on every pool thread and blocks until all
  /// finish. Exactly one job is in flight at a time. Returns the first
  /// (by worker index) captured worker exception translated to a Status —
  /// std::bad_alloc to kResourceExhausted, anything else to kInternal —
  /// after every worker has reached the barrier, so the pool is always
  /// reusable afterwards.
  Status RunOnPool(const std::function<void(uint32_t)>& body);
  void WorkerLoop(uint32_t index);
  /// Splits `total` draws over the workers (remainder to the lowest ids).
  void AssignQuotas(uint64_t total);
  /// Whether a batch of `size` sets runs on the calling thread.
  bool RunsInline(uint64_t size) const {
    return workers_.size() <= 1 || size < min_parallel_batch_;
  }

  uint64_t min_parallel_batch_;

  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* job_ = nullptr;
  uint64_t job_epoch_ = 0;
  uint32_t pending_ = 0;
  bool stopping_ = false;
};

/// Installs `gate` on `engine` for the current scope iff the gate's
/// RunBudget is active, and always clears the engine's gate slot on
/// destruction — so a policy's budget never leaks into the next caller of
/// a shared engine. An inactive budget arms nothing and the engine runs
/// the bit-identical unbudgeted paths.
class ScopedEngineBudget {
 public:
  ScopedEngineBudget(SamplingEngine* engine, BudgetGate* gate)
      : engine_(engine),
        armed_(gate != nullptr && gate->budget().active()) {
    if (armed_) engine_->set_budget(gate);
  }
  ~ScopedEngineBudget() {
    if (armed_) engine_->set_budget(nullptr);
  }

  ScopedEngineBudget(const ScopedEngineBudget&) = delete;
  ScopedEngineBudget& operator=(const ScopedEngineBudget&) = delete;

  /// Whether the gate was installed (i.e. the budget is active).
  bool armed() const { return armed_; }

 private:
  SamplingEngine* engine_;
  bool armed_;
};

/// Builds the engine for (graph, model) that `options` implies. The thread
/// count alone picks the backend: num_threads, with 0 meaning hardware
/// concurrency, resolves to a count, and above 1 the factory builds a
/// ParallelSamplingEngine with that many workers and the default
/// min_parallel_batch; otherwise a SerialSamplingEngine. A one-worker pool
/// would route every query through its inline serial path anyway, so the
/// worker thread + condvar machinery would be pure overhead.
std::unique_ptr<SamplingEngine> CreateSamplingEngine(
    const Graph& graph,
    DiffusionModel model = DiffusionModel::kIndependentCascade,
    const SamplingOptions& options = {});

/// Engine slot embedded by policies: hands out an injected (borrowed)
/// engine when one was set, otherwise lazily builds — and caches across
/// Run() calls, so a parallel backend keeps its worker pool warm — an
/// owned engine for the requested (graph, model, options). The cache keys
/// on graph identity, so the graph passed to Get must stay alive (and
/// unmoved) for as long as the handle may serve it.
class SamplingEngineHandle {
 public:
  /// Injects an external engine (not owned; pass nullptr to clear). Its
  /// graph/model must match what the policy is run on.
  void Use(SamplingEngine* external) { external_ = external; }

  /// The engine to use for (graph, model, options).
  SamplingEngine* Get(const Graph& graph, DiffusionModel model,
                      const SamplingOptions& options);

 private:
  SamplingEngine* external_ = nullptr;
  std::unique_ptr<SamplingEngine> owned_;
  SamplingOptions owned_options_{};
};

}  // namespace atpm

#endif  // ATPM_RRIS_SAMPLING_ENGINE_H_
