#ifndef ATPM_RRIS_SAMPLING_ENGINE_H_
#define ATPM_RRIS_SAMPLING_ENGINE_H_

#include <atomic>
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
  /// engine. Scheduling only: every thread count draws the same RR sets
  /// for a fixed seed, so results are identical across thread counts.
  uint32_t num_threads = 1;
  /// Budget cap on RR sets generated for a single seed decision (all pools
  /// and all halving rounds combined: the top-ups of kept counts, or
  /// 2θ_i per round unbatched).
  uint64_t max_rr_sets_per_decision = 1ull << 23;
  /// Batched rounds with kept counts: one pool answers both the front and
  /// the rear coverage query through a CoverageQueryBatch, and a decision
  /// keeps its hits across its halving rounds, so round i+1 draws only the
  /// θ_{i+1} − θ_i sets that top them up — θ_last RR sets per decision
  /// instead of 2 Σ θ_i. HATP's θ_i then follow a grid fixed before the
  /// decision samples, each point a quarter above the last, tested on
  /// Chernoff–KL intervals (KeptCountGrid in core/concentration.h). false
  /// restores the literal two-independent-pools sampling and error
  /// schedule of Algorithms 3/4 (the reference its goldens pin).
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
  /// a different RNG stream; kPerEdge is the statistical reference. The
  /// raw per-edge generator still replays pre-kernel RNG streams, but
  /// engine runs draw chunk streams and so do not.
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
/// always drawn from the caller's Rng, so runs remain reproducible: every
/// call consumes exactly one 64-bit draw, the batch's seed, and the sets
/// it samples depend on that seed and the batch size alone — never on the
/// worker count (see ParallelSamplingEngine for the chunk-stream rule).
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

  /// Seed-level variant of TryCountCoverageBatch: the θ sets are drawn in
  /// chunks, chunk c from the stream Rng(SplitSeed(seed, c)), and the hits
  /// are summed over chunks, so the counts are the same for any worker
  /// count. Returns the sets actually drawn (see TryCountCoverageBatch).
  /// The batch's planned rounds (CoverageQueryBatch::AddPlannedRound) only
  /// let an engine start the decision's later rounds early; decorators
  /// pass the batch through unchanged so the plan reaches the engine.
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
  /// A member restriction set on the empty pool (RRCollection::RestrictTo)
  /// applies to every fill until ResetPool: the walks, draws and edges are
  /// unchanged, and only member nodes are staged and stored.
  virtual RRCollection& pool() = 0;
  /// Empties the pool (keeps capacity), drops its member restriction, and
  /// zeroes the edge accounting.
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
  /// Worker count, the calling thread included (1 for the serial backend).
  virtual uint32_t num_workers() const = 0;
  /// Backend identifier for logs and benchmarks.
  virtual std::string_view name() const = 0;

 protected:
  /// Harvest helper: folds a finished generation batch into the
  /// per-engine SamplingStats, the one exact record of sampling effort —
  /// `stats()` stays a thin read — and observes the batch size into the
  /// atpm_rr_batch_sets histogram.
  void AccrueGeneration(uint64_t sets, uint64_t edges, uint64_t draws);

  SamplingStats stats_;
  BudgetGate* budget_ = nullptr;
};

/// The sampling engine: `num_threads` workers, each with its own
/// RRSetGenerator (no shared mutable state on the hot path). The workers'
/// generators share one read-only StepTable, built with the engine, so
/// its memory (32 bytes per node) does not grow with the worker count. The
/// calling thread is worker 0 and workers 1.. are persistent pool threads,
/// so one worker means no thread.
///
/// Every batch — a pool fill or a count — is cut into chunks of kChunkSets
/// RR sets (the last one shorter), and chunk c draws from the stream
/// Rng(SplitSeed(base, c)), where `base` is the call's seed. Workers claim
/// chunks in order; a fill is spliced into the CSR pool in chunk order
/// (RRCollection::AppendShard) and a count sums its chunks' hits. Pools,
/// hit counts, edges and RNG draws therefore depend on (seed, θ) alone:
/// never on the thread count, min_parallel_batch, or which worker ran
/// which chunk. A batch below min_parallel_batch, or any batch of a
/// one-worker engine, runs every chunk on the calling thread through the
/// same chunk body; the threshold decides scheduling only.
///
/// Counts run on a count stream. A count opens a stream of one round —
/// itself — plus, when its batch carries a plan (the later rounds of a
/// decision whose sample sizes are fixed in advance), one round per
/// planned {top-up, seed}. Round r's chunks follow round r-1's in one
/// chunk sequence and are claimed in that order, so workers with no chunk
/// of the current round left start chunks of the following rounds, and
/// keep counting them after the call returns, at most num_workers() chunks
/// past the end of the round the caller waits on. The next call continues
/// the stream when its θ, seed, num_alive, query nodes, plan and the
/// contents of `removed` and of every base are the ones the stream was
/// opened with; it then often finds some of its chunks already counted.
/// Anything else closes the stream and opens a new one, so results never
/// depend on the plan. A stream that runs ahead copies `removed`, each
/// distinct base and the query list when it opens, so ahead work never
/// reads caller memory after a call returns. Results are kept per chunk
/// and reach SamplingStats only when their round is returned; chunks of
/// rounds never returned are discarded when the stream closes (counted in
/// the atpm_count_chunks_discarded_total registry counter). A fill, a
/// count that does not continue the stream, ResetPool, set_budget and the
/// destructor close it first. Run-ahead is off with one worker, while a
/// BudgetGate is installed, and while any failpoint is armed: those runs
/// claim exactly the chunks of the round they count.
///
/// An exception thrown in a chunk (an injected fault, bad_alloc) becomes
/// the batch's Status on whichever thread ran it. A failed batch adds no
/// sets, edges, pools or queries to the accounting, and adds the RNG draws
/// it consumed.
class ParallelSamplingEngine : public SamplingEngine {
 public:
  /// Batches below this size run on the calling thread — fan-out overhead
  /// dominates tiny jobs, and the adaptive policies issue plenty of them
  /// early in the error schedule. A count is measured together with the
  /// planned rounds it may run ahead into.
  static constexpr uint64_t kDefaultMinParallelBatch = 4096;
  /// RR sets per chunk: the unit of the stream layout and of claiming.
  static constexpr uint64_t kChunkSets = 1024;

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

  /// Closes the count stream, then installs the gate.
  void set_budget(BudgetGate* budget) override;

  RRCollection& pool() override { return pool_; }
  void ResetPool() override;
  uint64_t total_edges_examined() const override { return edges_examined_; }
  const Graph& graph() const override {
    return workers_.front().generator->graph();
  }
  DiffusionModel model() const override { return model_; }
  SamplingKernel kernel() const override {
    return workers_.front().generator->kernel();
  }
  uint32_t num_workers() const override {
    return static_cast<uint32_t>(workers_.size());
  }
  std::string_view name() const override {
    return workers_.size() > 1 ? "parallel" : "serial";
  }

 private:
  /// Where one chunk of a pool fill sits in its worker's staging buffers.
  struct StagedChunk {
    uint64_t chunk;
    size_t node_begin, node_end;
    size_t set_begin, set_end;
  };

  /// A generator's cumulative RNG draws, settled count walks and count-walk
  /// nodes, or their growth since the last harvest.
  struct WalkCounts {
    uint64_t draws = 0;
    uint64_t settled_walks = 0;
    uint64_t walk_nodes = 0;

    static WalkCounts Of(const RRSetGenerator& generator) {
      return {generator.rng_draws(), generator.settled_walks(),
              generator.count_walk_nodes()};
    }
    WalkCounts operator-(const WalkCounts& o) const {
      return {draws - o.draws, settled_walks - o.settled_walks,
              walk_nodes - o.walk_nodes};
    }
    WalkCounts& operator+=(const WalkCounts& o) {
      draws += o.draws;
      settled_walks += o.settled_walks;
      walk_nodes += o.walk_nodes;
      return *this;
    }
  };

  /// Per-worker state; only its owning thread touches it during a batch.
  struct Worker {
    std::unique_ptr<RRSetGenerator> generator;
    /// The generator's counts at the last harvest (TakeWalkCounts).
    WalkCounts seen;
    /// Pool fills: edges examined by this worker's chunks, and the chunks
    /// in AppendShard layout.
    uint64_t edges = 0;
    std::vector<NodeId> nodes;
    std::vector<uint32_t> sizes;
    std::vector<StagedChunk> chunks;
    /// Exception that escaped one of this worker's fill chunks, if any.
    std::exception_ptr error;
  };

  /// One round of the count stream: `sets` RR sets from `seed`, counted
  /// by the stream's chunks [first_chunk, end_chunk).
  struct StreamRound {
    uint64_t sets = 0;
    uint64_t seed = 0;
    uint64_t first_chunk = 0;
    uint64_t end_chunk = 0;
  };
  /// What one chunk of the count stream drew; its hits are
  /// CountStream::hits[chunk * queries.size() ...].
  struct StreamChunk {
    uint32_t round = 0;
    uint64_t sampled = 0;
    uint64_t edges = 0;
    WalkCounts walks;
    std::exception_ptr error;
  };
  /// The count stream (see the class comment). Chunks read the fields
  /// above `returned`, which the caller writes only while no chunk of the
  /// stream runs; a chunk's StreamChunk and hits are written by the thread
  /// that counts it and read after its completion is seen under mu_.
  struct CountStream {
    std::vector<StreamRound> rounds;
    std::vector<StreamChunk> chunks;
    std::vector<uint64_t> hits;
    /// The queries; their bases point at `base_copies` when `ahead`.
    std::vector<CoverageQuery> queries;
    const BitVector* removed = nullptr;
    uint32_t num_alive = 0;
    const BudgetGate* budget = nullptr;
    /// Pool threads claim chunks too (false: the caller counts them all).
    bool shared = false;
    /// The stream runs ahead: its inputs are copies and it stays open
    /// between calls.
    bool ahead = false;
    BitVector removed_copy;
    std::vector<BitVector> base_copies;
    /// Rounds returned so far (caller only); a continuation counts
    /// rounds[returned].
    size_t returned = 0;
    // Guarded by mu_.
    bool open = false;
    /// Next unclaimed chunk; chunks at or past `limit` are not claimed.
    uint64_t next = 0;
    uint64_t limit = 0;
    /// Chunks being counted.
    uint32_t running = 0;
    /// A chunk threw: nothing more is claimed.
    bool failed = false;
    /// The caller waits for chunks to finish.
    bool waiting = false;
    /// Finished chunks per round.
    std::vector<uint64_t> done;
  };

  /// One chunk: `sets` RR sets drawn from `rng` by `worker`.
  using ChunkBody =
      std::function<void(Worker& worker, uint64_t chunk, uint64_t sets,
                         Rng* rng)>;

  /// Runs the ceil(size / kChunkSets) chunks of a pool fill and blocks
  /// until all are done. Returns the first (by worker index) exception a
  /// chunk threw, translated to a Status (ExceptionToStatus) after every
  /// worker has stopped, so the engine is always reusable afterwards.
  Status RunChunks(uint64_t size, uint64_t seed, const ChunkBody& body);
  void WorkerLoop(uint32_t index);
  /// What all workers' generators counted since the last harvest.
  WalkCounts TakeWalkCounts();
  /// Whether a batch of `size` sets runs on the calling thread.
  bool RunsInline(uint64_t size) const {
    return workers_.size() <= 1 || size < min_parallel_batch_;
  }
  /// Aborts when the graph was reweighted after the engine was built.
  void CheckWeightVersion() const {
    workers_.front().generator->CheckWeightVersion();
  }

  /// Opens a stream for a count of `theta` sets from `seed`, plus the
  /// batch's planned rounds when `ahead`. The stream must be closed.
  void OpenStream(const CoverageQueryBatch& batch, const BitVector* removed,
                  uint32_t num_alive, uint64_t theta, uint64_t seed,
                  bool ahead, bool shared);
  /// Whether this count is the open stream's next round, with the inputs
  /// and the plan the stream was opened with.
  bool ContinuesStream(const CoverageQueryBatch& batch,
                       const BitVector* removed, uint32_t num_alive,
                       uint64_t theta, uint64_t seed) const;
  /// Counts the stream's next round, waits for it, and returns its sets
  /// (its hits in `batch`), or the first error of its chunks.
  Result<uint64_t> CountRound(CoverageQueryBatch* batch);
  /// Stops claims, waits for running chunks, drops the stream, and
  /// re-baselines the walk-count harvest. No-op on a closed stream.
  void CloseStream();
  /// Whether a pool thread may claim a stream chunk (mu_ held).
  bool StreamClaimable() const {
    return stream_.open && stream_.shared && !stream_.failed &&
           stream_.next < stream_.limit;
  }
  /// Counts stream chunk `chunk` with `worker`'s generator (mu_ not held).
  void CountStreamChunk(Worker& worker, uint64_t chunk);
  /// Records that `chunk` finished (mu_ held).
  void FinishStreamChunk(uint64_t chunk);

  RRCollection pool_;
  uint64_t edges_examined_ = 0;
  DiffusionModel model_;
  uint64_t min_parallel_batch_;

  std::vector<Worker> workers_;
  CountStream stream_;
  std::mutex mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* job_ = nullptr;
  uint64_t job_epoch_ = 0;
  uint32_t pending_ = 0;
  bool stopping_ = false;
  /// Next unclaimed chunk of the running fill.
  std::atomic<uint64_t> next_chunk_{0};
  std::vector<std::thread> threads_;
};

/// The one-worker engine: every batch runs on the calling thread, with
/// the same chunk streams as any other worker count.
class SerialSamplingEngine final : public ParallelSamplingEngine {
 public:
  explicit SerialSamplingEngine(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      SamplingKernel kernel = SamplingKernel::kGeometricJump)
      : ParallelSamplingEngine(graph, model, 1, kDefaultMinParallelBatch,
                               kernel) {}
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
/// min_parallel_batch; otherwise a SerialSamplingEngine. Either draws the
/// same RR sets for a fixed seed.
std::unique_ptr<SamplingEngine> CreateSamplingEngine(
    const Graph& graph,
    DiffusionModel model = DiffusionModel::kIndependentCascade,
    const SamplingOptions& options = {});

/// Engine slot embedded by policies: hands out an injected (borrowed)
/// engine when one was set, otherwise lazily builds — and caches across
/// Run() calls, so a parallel backend keeps its worker pool warm — an
/// owned engine for the requested (graph, model, options). The cache keys
/// on graph identity, so the graph passed to Get must stay alive (and
/// unmoved) for as long as the handle may serve it. A graph reweighted
/// between Get calls gets a new engine (the step table is a snapshot).
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
  uint64_t owned_weight_version_ = 0;
};

}  // namespace atpm

#endif  // ATPM_RRIS_SAMPLING_ENGINE_H_
