#include "rris/sampling_engine.h"

#include <algorithm>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace atpm {

namespace {

/// Global-registry instruments shared by both backends. Registered once on
/// first use; every touch is once per engine call, never per RR set. The
/// effort counts themselves live in SamplingStats only.
struct EngineMetrics {
  obs::Histogram* pool_fill_seconds;
  obs::Histogram* count_batch_seconds;
  obs::Histogram* batch_sets;

  static const EngineMetrics& Get() {
    static const EngineMetrics* const metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* m = new EngineMetrics();
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
  if (sets > 0) {
    EngineMetrics::Get().batch_sets->Observe(static_cast<double>(sets));
  }
}

ParallelSamplingEngine::ParallelSamplingEngine(const Graph& graph,
                                               DiffusionModel model,
                                               uint32_t num_threads,
                                               uint64_t min_parallel_batch,
                                               SamplingKernel kernel)
    : pool_(graph.num_nodes()),
      model_(model),
      min_parallel_batch_(min_parallel_batch) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.resize(num_threads);
  // One step table per engine, read by every worker.
  const std::shared_ptr<const StepTable> steps =
      RRSetGenerator::MakeStepTable(graph, model, kernel);
  for (Worker& worker : workers_) {
    worker.generator =
        std::make_unique<RRSetGenerator>(graph, model, kernel, steps);
  }
  // Worker 0 is the calling thread.
  threads_.reserve(num_threads - 1);
  for (uint32_t w = 1; w < num_threads; ++w) {
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
    (*job)(index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

Status ParallelSamplingEngine::RunChunks(uint64_t size, uint64_t seed,
                                         const ChunkBody& body) {
  const uint64_t num_chunks = (size + kChunkSets - 1) / kChunkSets;
  next_chunk_ = 0;
  for (Worker& worker : workers_) worker.error = nullptr;
  const std::function<void(uint32_t)> claim = [&](uint32_t w) {
    Worker& worker = workers_[w];
    try {
      for (uint64_t c = next_chunk_++; c < num_chunks; c = next_chunk_++) {
        ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
        ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
        Rng rng(SplitSeed(seed, c));
        body(worker, c, std::min(kChunkSets, size - c * kChunkSets), &rng);
      }
    } catch (...) {
      // The batch has failed: record why and let no worker claim more.
      worker.error = std::current_exception();
      next_chunk_ = num_chunks;
    }
  };
  if (RunsInline(size)) {
    claim(0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &claim;
      ++job_epoch_;
      pending_ = static_cast<uint32_t>(threads_.size());
    }
    job_cv_.notify_all();
    claim(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() { return pending_ == 0; });
    job_ = nullptr;
  }
  for (Worker& worker : workers_) {
    if (worker.error != nullptr) {
      return ExceptionToStatus(std::string(name()) + " sampling",
                               std::move(worker.error));
    }
  }
  return Status::OK();
}

ParallelSamplingEngine::WalkCounts ParallelSamplingEngine::TakeWalkCounts() {
  WalkCounts delta;
  for (Worker& worker : workers_) {
    const RRSetGenerator& generator = *worker.generator;
    const WalkCounts now{generator.rng_draws(), generator.settled_walks(),
                         generator.count_walk_nodes()};
    delta.draws += now.draws - worker.seen.draws;
    delta.settled_walks += now.settled_walks - worker.seen.settled_walks;
    delta.walk_nodes += now.walk_nodes - worker.seen.walk_nodes;
    worker.seen = now;
  }
  return delta;
}

Status ParallelSamplingEngine::TryGeneratePool(const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t count, Rng* rng) {
  // One draw from the caller's stream per call, whatever the worker count.
  const uint64_t seed = rng->Next();
  ATPM_FAILPOINT("engine.serial_batch");
  obs::TraceSpan span("pool_fill");
  span.AnnotateU64("count", count);
  obs::ScopedLatency latency(EngineMetrics::Get().pool_fill_seconds);
  for (Worker& worker : workers_) {
    worker.edges = 0;
    worker.nodes.clear();
    worker.sizes.clear();
    worker.chunks.clear();
  }
  Status status = RunChunks(
      count, seed, [&](Worker& worker, uint64_t chunk, uint64_t sets,
                       Rng* chunk_rng) {
        StagedChunk staged{chunk, worker.nodes.size(), 0, worker.sizes.size(),
                           0};
        worker.edges += worker.generator->GenerateBatch(
            removed, num_alive, sets, chunk_rng, &worker.nodes,
            &worker.sizes, pool_.members(), budget_);
        staged.node_end = worker.nodes.size();
        staged.set_end = worker.sizes.size();
        worker.chunks.push_back(staged);
      });
  const uint64_t draws = TakeWalkCounts().draws;

  uint64_t sets = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  for (const Worker& worker : workers_) {
    sets += worker.sizes.size();
    nodes += worker.nodes.size();
    edges += worker.edges;
  }
  // Splice in chunk order. The pool grows once up front, so a failed
  // allocation leaves it untouched and the appends cannot fail.
  if (status.ok()) {
    try {
      ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_append");
      std::vector<std::pair<const Worker*, const StagedChunk*>> order(
          (count + kChunkSets - 1) / kChunkSets);
      for (const Worker& worker : workers_) {
        for (const StagedChunk& staged : worker.chunks) {
          order[staged.chunk] = {&worker, &staged};
        }
      }
      pool_.Reserve(pool_.num_sets() + sets, pool_.total_nodes() + nodes);
      for (const auto& [worker, staged] : order) {
        pool_.AppendShard(
            std::span<const NodeId>(worker->nodes)
                .subspan(staged->node_begin,
                         staged->node_end - staged->node_begin),
            std::span<const uint32_t>(worker->sizes)
                .subspan(staged->set_begin,
                         staged->set_end - staged->set_begin));
      }
    } catch (...) {
      status = ExceptionToStatus(std::string(name()) + " pool merge",
                                 std::current_exception());
    }
  }
  if (!status.ok()) {
    AccrueGeneration(0, 0, draws);
    return status;
  }
  edges_examined_ += edges;
  AccrueGeneration(sets, edges, draws);
  return status;
}

Result<uint64_t> ParallelSamplingEngine::TryCountCoverageBatchSeeded(
    CoverageQueryBatch* batch, const BitVector* removed, uint32_t num_alive,
    uint64_t theta, uint64_t seed) {
  const size_t num_queries = batch->size();
  if (num_queries == 0) return uint64_t{0};
  ATPM_FAILPOINT("engine.serial_batch");
  obs::TraceSpan span("count_batch");
  span.AnnotateU64("theta", theta);
  span.AnnotateU64("queries", num_queries);
  obs::ScopedLatency latency(EngineMetrics::Get().count_batch_seconds);
  for (Worker& worker : workers_) {
    worker.edges = 0;
    worker.sampled = 0;
    worker.hits.assign(num_queries, 0);
    // CountCoveringBatch zeroes the chunk counters itself.
    worker.chunk_hits.resize(num_queries);
  }
  const Status status = RunChunks(
      theta, seed, [&](Worker& worker, uint64_t, uint64_t sets,
                       Rng* chunk_rng) {
        uint64_t sampled = sets;
        worker.edges += worker.generator->CountCoveringBatch(
            removed, num_alive, sets, batch->queries(),
            worker.chunk_hits.data(), chunk_rng, budget_, &sampled);
        worker.sampled += sampled;
        for (size_t q = 0; q < num_queries; ++q) {
          worker.hits[q] += worker.chunk_hits[q];
        }
      });
  const WalkCounts walks = TakeWalkCounts();
  if (!status.ok()) {
    AccrueGeneration(0, 0, walks.draws);
    return status;
  }

  // Under a tripped budget each chunk's hits are exact over its own
  // sampled prefix, so the summed hits are exact over the summed sample
  // count — the honest θ the caller scales by.
  uint64_t sampled = 0;
  uint64_t edges = 0;
  batch->ZeroHits();
  uint64_t* hits = batch->hit_data();
  for (const Worker& worker : workers_) {
    for (size_t q = 0; q < num_queries; ++q) hits[q] += worker.hits[q];
    edges += worker.edges;
    sampled += worker.sampled;
  }
  AccrueGeneration(sampled, edges, walks.draws);
  stats_.settled_walks += walks.settled_walks;
  stats_.count_walk_nodes += walks.walk_nodes;
  ++stats_.count_pools;
  stats_.coverage_queries += num_queries;
  return sampled;
}

void ParallelSamplingEngine::ResetPool() {
  pool_.Clear();
  edges_examined_ = 0;
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
