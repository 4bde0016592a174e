#include "rris/sampling_engine.h"

#include <algorithm>
#include <new>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace atpm {

namespace {

/// Global-registry instruments shared by both backends. Registered once on
/// first use; every hot-path touch is a relaxed add (or a single relaxed
/// load when metrics are disabled).
struct EngineMetrics {
  obs::Counter* rr_sets;
  obs::Counter* edges;
  obs::Counter* draws;
  obs::Counter* count_pools;
  obs::Counter* coverage_queries;
  obs::Histogram* pool_fill_seconds;
  obs::Histogram* count_batch_seconds;
  obs::Histogram* batch_sets;

  static const EngineMetrics& Get() {
    static const EngineMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* m = new EngineMetrics();
      m->rr_sets = reg.RegisterCounter(
          "atpm_rr_sets_generated_total",
          "RR sets sampled across all engines (pool + counting paths)");
      m->edges = reg.RegisterCounter(
          "atpm_rr_edges_examined_total",
          "Edges examined while sampling RR sets (the IMM/EPT cost measure)");
      m->draws = reg.RegisterCounter(
          "atpm_rng_draws_total",
          "64-bit RNG draws consumed by RR-set generators");
      m->count_pools = reg.RegisterCounter(
          "atpm_count_pools_total",
          "Throwaway counting pools sampled for coverage-query batches");
      m->coverage_queries = reg.RegisterCounter(
          "atpm_coverage_queries_total",
          "Coverage queries answered by counting pools");
      m->pool_fill_seconds = reg.RegisterHistogram(
          "atpm_pool_fill_seconds", "Latency of stored-pool generation calls",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      m->count_batch_seconds = reg.RegisterHistogram(
          "atpm_count_batch_seconds",
          "Latency of coverage-counting batch calls",
          obs::ExponentialBuckets(1e-6, 4.0, 14));
      m->batch_sets = reg.RegisterHistogram(
          "atpm_rr_batch_sets", "RR sets drawn per engine batch",
          obs::ExponentialBuckets(1.0, 4.0, 14));
      return m;
    }();
    return *metrics;
  }
};

/// Translates an exception that escaped a sampling job into the Status the
/// engine API surfaces: allocation exhaustion is a degradable condition
/// (callers keep what they have), everything else is an internal fault.
Status ExceptionToStatus(std::string_view where, std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(std::string(where) +
                                     ": allocation failed");
  } catch (const std::exception& e) {
    return Status::Internal(std::string(where) + ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string(where) + ": unknown exception");
  }
}

}  // namespace

void SamplingEngine::AccrueGeneration(uint64_t sets, uint64_t edges,
                                      uint64_t draws) {
  stats_.rr_sets_generated += sets;
  stats_.edges_examined += edges;
  stats_.rng_draws += draws;
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.rr_sets->Increment(sets);
  metrics.edges->Increment(edges);
  metrics.draws->Increment(draws);
  if (sets > 0) metrics.batch_sets->Observe(static_cast<double>(sets));
}

void SamplingEngine::AccrueCounting(uint64_t pools, uint64_t queries) {
  stats_.count_pools += pools;
  stats_.coverage_queries += queries;
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.count_pools->Increment(pools);
  metrics.coverage_queries->Increment(queries);
}

// ----------------------------------------------------------- caller thread

CallerThreadSamplingEngine::CallerThreadSamplingEngine(const Graph& graph,
                                                       DiffusionModel model,
                                                       SamplingKernel kernel)
    : pool_(graph.num_nodes()),
      model_(model),
      generator_(graph, model, kernel) {}

Status CallerThreadSamplingEngine::FillOnCallerThread(
    const BitVector* removed, uint32_t num_alive, uint64_t count, Rng* rng) {
  ATPM_FAILPOINT("engine.serial_batch");
  obs::TraceSpan span("pool_fill");
  span.AnnotateU64("count", count);
  obs::ScopedLatency latency(EngineMetrics::Get().pool_fill_seconds);
  // Batched block generation straight into the shard layout: one splice
  // into the pool CSR instead of a staging copy per set, and one shared
  // alive-list build per block. Bit-identical sets to the historical
  // Generate + AddSet loop on the same stream.
  shard_nodes_.clear();
  shard_sizes_.clear();
  const uint64_t draws_before = generator_.rng_draws();
  Status status = Status::OK();
  uint64_t edges = 0;
  try {
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    edges = generator_.GenerateBatch(removed, num_alive, count, rng,
                                     &shard_nodes_, &shard_sizes_, budget_);
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_append");
    pool_.AppendShard(shard_nodes_, shard_sizes_);
  } catch (...) {
    // A bad_alloc mid-batch leaves the staging shard partially grown (it
    // is cleared on the next call) and the pool untouched; the draws the
    // generator consumed are still accounted.
    status = ExceptionToStatus(std::string(name()) + " pool generation",
                               std::current_exception());
  }
  edges_examined_ += status.ok() ? edges : 0;
  AccrueGeneration(status.ok() ? shard_sizes_.size() : 0,
                   status.ok() ? edges : 0,
                   generator_.rng_draws() - draws_before);
  return status;
}

Result<uint64_t> CallerThreadSamplingEngine::CountOnCallerThread(
    CoverageQueryBatch* batch, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t seed) {
  if (batch->empty()) return uint64_t{0};
  ATPM_FAILPOINT("engine.serial_batch");
  obs::TraceSpan span("count_batch");
  span.AnnotateU64("theta", theta);
  span.AnnotateU64("queries", batch->size());
  obs::ScopedLatency latency(EngineMetrics::Get().count_batch_seconds);
  Rng rng(seed);
  const uint64_t draws_before = generator_.rng_draws();
  uint64_t sampled = theta;
  uint64_t edges = 0;
  try {
    // The throwaway counting pool is an allocation consumer too: its
    // scratch growth is covered by the same alloc failpoint so injected
    // bad_alloc exercises the policies' absorb-and-degrade path.
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    edges = generator_.CountCoveringBatch(removed, num_alive, theta,
                                          batch->queries(), batch->hit_data(),
                                          &rng, budget_, &sampled);
  } catch (...) {
    AccrueGeneration(0, 0, generator_.rng_draws() - draws_before);
    return ExceptionToStatus(std::string(name()) + " coverage counting",
                             std::current_exception());
  }
  AccrueGeneration(sampled, edges, generator_.rng_draws() - draws_before);
  AccrueCounting(1, batch->size());
  return sampled;
}

void CallerThreadSamplingEngine::ResetPool() {
  pool_.Clear();
  edges_examined_ = 0;
}

// ---------------------------------------------------------------- parallel

ParallelSamplingEngine::ParallelSamplingEngine(const Graph& graph,
                                               DiffusionModel model,
                                               uint32_t num_threads,
                                               uint64_t min_parallel_batch,
                                               SamplingKernel kernel)
    : CallerThreadSamplingEngine(graph, model, kernel),
      min_parallel_batch_(min_parallel_batch) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.resize(num_threads);
  for (Worker& worker : workers_) {
    worker.generator = std::make_unique<RRSetGenerator>(graph, model, kernel);
  }
  threads_.reserve(num_threads);
  for (uint32_t w = 0; w < num_threads; ++w) {
    threads_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

ParallelSamplingEngine::~ParallelSamplingEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ParallelSamplingEngine::WorkerLoop(uint32_t index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(uint32_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&]() {
        return stopping_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (stopping_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    // Containment: an exception escaping a job body used to ripple into
    // std::terminate (nothing above this frame catches). Capture it so
    // RunOnPool can translate it into a Status after the barrier; the
    // worker stays alive and the pool stays usable.
    try {
      (*job)(index);
    } catch (...) {
      workers_[index].error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

Status ParallelSamplingEngine::RunOnPool(
    const std::function<void(uint32_t)>& body) {
  for (Worker& worker : workers_) worker.error = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &body;
    ++job_epoch_;
    pending_ = static_cast<uint32_t>(workers_.size());
  }
  job_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() { return pending_ == 0; });
    job_ = nullptr;
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].error != nullptr) {
      // First failed worker in index order: deterministic for a fixed
      // fault schedule even when several workers fail at once.
      return ExceptionToStatus("parallel sampling worker",
                               std::move(workers_[w].error));
    }
  }
  return Status::OK();
}

void ParallelSamplingEngine::AssignQuotas(uint64_t total) {
  const uint64_t num_workers = workers_.size();
  const uint64_t chunk = total / num_workers;
  const uint64_t remainder = total % num_workers;
  for (uint64_t w = 0; w < num_workers; ++w) {
    workers_[w].quota = chunk + (w < remainder ? 1 : 0);
  }
}

Status ParallelSamplingEngine::TryGeneratePool(const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t count, Rng* rng) {
  // One draw from the caller's stream per query, independent of the worker
  // count; the fan-out is derived from it via SplitSeed.
  const uint64_t base_seed = rng->Next();
  if (RunsInline(count)) {
    Rng local(base_seed);
    return FillOnCallerThread(removed, num_alive, count, &local);
  }
  obs::TraceSpan span("pool_fill");
  span.AnnotateU64("count", count);
  obs::ScopedLatency latency(EngineMetrics::Get().pool_fill_seconds);
  AssignQuotas(count);
  const Status pool_status = RunOnPool([&](uint32_t w) {
    Worker& worker = workers_[w];
    worker.shard_nodes.clear();
    worker.shard_sizes.clear();
    worker.edges_result = 0;
    const uint64_t draws_before = worker.generator->rng_draws();
    Rng local(SplitSeed(base_seed, w));
    ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    worker.edges_result =
        worker.generator->GenerateBatch(removed, num_alive, worker.quota,
                                        &local, &worker.shard_nodes,
                                        &worker.shard_sizes, budget_);
    worker.draws_result = worker.generator->rng_draws() - draws_before;
  });
  if (!pool_status.ok()) return pool_status;

  // Merge in worker order: deterministic layout, and the EPT accounting
  // (total edges examined) aggregates exactly as in a serial run.
  Status merge_status = Status::OK();
  uint64_t edges = 0;
  uint64_t generated = 0;
  uint64_t draws = 0;
  for (Worker& worker : workers_) {
    draws += worker.draws_result;
    if (!merge_status.ok()) continue;
    try {
      ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_append");
      pool_.AppendShard(worker.shard_nodes, worker.shard_sizes);
    } catch (...) {
      // Shards merged before the failure stay in the pool (they are whole
      // RR sets); the stats below count exactly those. Draws accrue for
      // every worker regardless — they were consumed either way.
      merge_status = ExceptionToStatus("pool shard merge",
                                       std::current_exception());
      continue;
    }
    edges += worker.edges_result;
    generated += worker.shard_sizes.size();
  }
  edges_examined_ += edges;
  AccrueGeneration(generated, edges, draws);
  return merge_status;
}

Result<uint64_t> ParallelSamplingEngine::TryCountCoverageBatchSeeded(
    CoverageQueryBatch* batch, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t seed) {
  if (RunsInline(theta)) {
    return CountOnCallerThread(batch, removed, num_alive, theta, seed);
  }
  const size_t num_queries = batch->size();
  if (num_queries == 0) return uint64_t{0};
  obs::TraceSpan span("count_batch");
  span.AnnotateU64("theta", theta);
  span.AnnotateU64("queries", num_queries);
  obs::ScopedLatency latency(EngineMetrics::Get().count_batch_seconds);

  AssignQuotas(theta);
  const Status pool_status = RunOnPool([&](uint32_t w) {
    Worker& worker = workers_[w];
    // Size-only adjustment: CountCoveringBatch zeroes the counters itself,
    // so re-zeroing here (the old `assign`) would touch every entry twice.
    worker.hit_shard.resize(num_queries);
    worker.sampled_result = 0;
    const uint64_t draws_before = worker.generator->rng_draws();
    Rng local(SplitSeed(seed, w));
    ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
    worker.edges_result = worker.generator->CountCoveringBatch(
        removed, num_alive, worker.quota, batch->queries(),
        worker.hit_shard.data(), &local, budget_, &worker.sampled_result);
    worker.draws_result = worker.generator->rng_draws() - draws_before;
  });
  if (!pool_status.ok()) return pool_status;

  // Deterministic merge: per-worker counter shards summed in worker order.
  // Under a tripped budget each worker's hits are exact over its own
  // sampled prefix, so the summed hits are exact over the summed sample
  // count — the honest θ the caller scales by.
  uint64_t sampled = 0;
  uint64_t edges = 0;
  uint64_t draws = 0;
  batch->ZeroHits();
  uint64_t* hits = batch->hit_data();
  for (const Worker& worker : workers_) {
    for (size_t q = 0; q < num_queries; ++q) hits[q] += worker.hit_shard[q];
    edges += worker.edges_result;
    draws += worker.draws_result;
    sampled += worker.sampled_result;
  }
  AccrueGeneration(sampled, edges, draws);
  AccrueCounting(1, num_queries);
  return sampled;
}

// ----------------------------------------------------------------- factory

std::unique_ptr<SamplingEngine> CreateSamplingEngine(
    const Graph& graph, DiffusionModel model,
    const SamplingOptions& options) {
  uint32_t threads = options.num_threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : options.num_threads;
  if (threads > 1) {
    return std::make_unique<ParallelSamplingEngine>(
        graph, model, threads, ParallelSamplingEngine::kDefaultMinParallelBatch,
        options.kernel);
  }
  return std::make_unique<SerialSamplingEngine>(graph, model, options.kernel);
}

SamplingEngine* SamplingEngineHandle::Get(const Graph& graph,
                                          DiffusionModel model,
                                          const SamplingOptions& options) {
  if (external_ != nullptr) return external_;
  // Reuse is keyed by graph identity (address + shape): the caller owns the
  // graph's lifetime and must not recycle it while the handle is live. The
  // shape check guards the likeliest ABA accident — a new, differently
  // sized graph allocated at the old address — which would otherwise hand
  // out generators with undersized visited markers.
  const bool reusable =
      owned_ != nullptr && &owned_->graph() == &graph &&
      owned_->graph().num_nodes() == graph.num_nodes() &&
      owned_->graph().num_edges() == graph.num_edges() &&
      owned_->model() == model &&
      owned_options_.num_threads == options.num_threads &&
      owned_options_.kernel == options.kernel;
  if (!reusable) {
    owned_ = CreateSamplingEngine(graph, model, options);
    owned_options_ = options;
  }
  return owned_.get();
}

}  // namespace atpm
