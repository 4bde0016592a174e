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
/// first use; every touch is once per engine call or stream close, never
/// per RR set. The effort counts themselves live in SamplingStats only.
struct EngineMetrics {
  obs::Histogram* pool_fill_seconds;
  obs::Histogram* count_batch_seconds;
  obs::Histogram* batch_sets;
  obs::Counter* chunks_discarded;

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
      m->chunks_discarded = reg.RegisterCounter(
          "atpm_count_chunks_discarded_total",
          "Count-stream chunks counted ahead for rounds never returned");
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
  CloseStream();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ParallelSamplingEngine::WorkerLoop(uint32_t index) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    job_cv_.wait(lock, [&]() {
      return stopping_ || (job_ != nullptr && job_epoch_ != seen_epoch) ||
             StreamClaimable();
    });
    if (stopping_) return;
    if (job_ != nullptr && job_epoch_ != seen_epoch) {
      seen_epoch = job_epoch_;
      const std::function<void(uint32_t)>* job = job_;
      lock.unlock();
      (*job)(index);
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
      continue;
    }
    const uint64_t chunk = stream_.next++;
    ++stream_.running;
    lock.unlock();
    CountStreamChunk(workers_[index], chunk);
    lock.lock();
    FinishStreamChunk(chunk);
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
    const WalkCounts now = WalkCounts::Of(*worker.generator);
    delta += now - worker.seen;
    worker.seen = now;
  }
  return delta;
}

Status ParallelSamplingEngine::TryGeneratePool(const BitVector* removed,
                                               uint32_t num_alive,
                                               uint64_t count, Rng* rng) {
  CheckWeightVersion();
  CloseStream();
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
  CheckWeightVersion();
  const size_t num_queries = batch->size();
  if (num_queries == 0) return uint64_t{0};
  uint64_t planned_sets = 0;
  for (const PlannedRound& round : batch->planned_rounds()) {
    planned_sets += round.sets;
  }
  // Run-ahead needs pool threads and a plan, and stays off where the
  // chunks a round claims are observed: a budget gate polls inside them
  // and an armed failpoint counts their claims.
  const bool may_run_ahead = workers_.size() > 1 && planned_sets > 0 &&
                             budget_ == nullptr && !failpoint::AnyArmed();
  const bool shared =
      !RunsInline(theta + (may_run_ahead ? planned_sets : 0));
  const bool ahead = may_run_ahead && shared;
  if (!ahead) CloseStream();
  ATPM_FAILPOINT("engine.serial_batch");
  obs::TraceSpan span("count_batch");
  span.AnnotateU64("theta", theta);
  span.AnnotateU64("queries", num_queries);
  obs::ScopedLatency latency(EngineMetrics::Get().count_batch_seconds);
  if (!ahead || !ContinuesStream(*batch, removed, num_alive, theta, seed)) {
    CloseStream();
    OpenStream(*batch, removed, num_alive, theta, seed, ahead, shared);
  }
  return CountRound(batch);
}

void ParallelSamplingEngine::OpenStream(const CoverageQueryBatch& batch,
                                        const BitVector* removed,
                                        uint32_t num_alive, uint64_t theta,
                                        uint64_t seed, bool ahead,
                                        bool shared) {
  CountStream& s = stream_;
  s.rounds.clear();
  const auto add_round = [&](uint64_t sets, uint64_t round_seed) {
    const uint64_t first = s.rounds.empty() ? 0 : s.rounds.back().end_chunk;
    s.rounds.push_back(StreamRound{
        sets, round_seed, first, first + (sets + kChunkSets - 1) / kChunkSets});
  };
  add_round(theta, seed);
  if (ahead) {
    for (const PlannedRound& round : batch.planned_rounds()) {
      add_round(round.sets, round.seed);
    }
  }
  const uint64_t num_chunks = s.rounds.back().end_chunk;
  s.chunks.assign(num_chunks, StreamChunk{});
  for (uint32_t r = 0; r < s.rounds.size(); ++r) {
    for (uint64_t c = s.rounds[r].first_chunk; c < s.rounds[r].end_chunk;
         ++c) {
      s.chunks[c].round = r;
    }
  }
  // CountCoveringBatch zeroes each chunk's counters itself.
  s.hits.resize(num_chunks * batch.size());
  s.queries.assign(batch.queries().begin(), batch.queries().end());
  s.removed = removed;
  s.num_alive = num_alive;
  s.budget = budget_;
  if (ahead) {
    // Ahead chunks outlive the call: count on copies of the inputs, one
    // per distinct base.
    if (removed != nullptr) {
      s.removed_copy = *removed;
      s.removed = &s.removed_copy;
    }
    std::vector<const BitVector*> bases;
    for (const CoverageQuery& query : s.queries) {
      if (query.base != nullptr &&
          std::find(bases.begin(), bases.end(), query.base) == bases.end()) {
        bases.push_back(query.base);
      }
    }
    if (s.base_copies.size() < bases.size()) s.base_copies.resize(bases.size());
    for (size_t b = 0; b < bases.size(); ++b) s.base_copies[b] = *bases[b];
    for (CoverageQuery& query : s.queries) {
      if (query.base == nullptr) continue;
      query.base = &s.base_copies[static_cast<size_t>(
          std::find(bases.begin(), bases.end(), query.base) - bases.begin())];
    }
  }
  s.shared = shared;
  s.ahead = ahead;
  s.returned = 0;
  std::lock_guard<std::mutex> lock(mu_);
  s.open = true;
  s.next = 0;
  s.limit = 0;
  s.running = 0;
  s.failed = false;
  s.done.assign(s.rounds.size(), 0);
}

bool ParallelSamplingEngine::ContinuesStream(const CoverageQueryBatch& batch,
                                             const BitVector* removed,
                                             uint32_t num_alive,
                                             uint64_t theta,
                                             uint64_t seed) const {
  const CountStream& s = stream_;
  if (!s.ahead || s.returned >= s.rounds.size()) return false;
  const StreamRound& round = s.rounds[s.returned];
  if (round.sets != theta || round.seed != seed || s.num_alive != num_alive) {
    return false;
  }
  const std::span<const PlannedRound> plan = batch.planned_rounds();
  if (plan.size() != s.rounds.size() - s.returned - 1) return false;
  for (size_t i = 0; i < plan.size(); ++i) {
    const StreamRound& later = s.rounds[s.returned + 1 + i];
    if (plan[i] != PlannedRound{later.sets, later.seed}) return false;
  }
  if ((removed == nullptr) != (s.removed == nullptr) ||
      (removed != nullptr && !(*removed == *s.removed))) {
    return false;
  }
  const std::span<const CoverageQuery> queries = batch.queries();
  if (queries.size() != s.queries.size()) return false;
  for (size_t q = 0; q < queries.size(); ++q) {
    const CoverageQuery& mine = s.queries[q];
    if (queries[q].node != mine.node ||
        (queries[q].base == nullptr) != (mine.base == nullptr) ||
        (mine.base != nullptr && !(*queries[q].base == *mine.base))) {
      return false;
    }
  }
  return true;
}

void ParallelSamplingEngine::CountStreamChunk(Worker& worker, uint64_t chunk) {
  StreamChunk& out = stream_.chunks[chunk];
  const StreamRound& round = stream_.rounds[out.round];
  const uint64_t index = chunk - round.first_chunk;
  const uint64_t sets = std::min(kChunkSets, round.sets - index * kChunkSets);
  RRSetGenerator& generator = *worker.generator;
  const WalkCounts before = WalkCounts::Of(generator);
  try {
    ATPM_FAILPOINT_MAYBE_THROW("engine.parallel_worker");
    ATPM_FAILPOINT_MAYBE_THROW("alloc.pool_reserve");
    Rng rng(SplitSeed(round.seed, index));
    out.sampled = sets;
    out.edges = generator.CountCoveringBatch(
        stream_.removed, stream_.num_alive, sets, stream_.queries,
        stream_.hits.data() + chunk * stream_.queries.size(), &rng,
        stream_.budget, &out.sampled);
  } catch (...) {
    out.error = std::current_exception();
  }
  out.walks = WalkCounts::Of(generator) - before;
}

void ParallelSamplingEngine::FinishStreamChunk(uint64_t chunk) {
  --stream_.running;
  const StreamChunk& done = stream_.chunks[chunk];
  ++stream_.done[done.round];
  // A failed round ends the stream: nothing more is claimed.
  if (done.error != nullptr) stream_.failed = true;
  if (stream_.waiting) done_cv_.notify_all();
}

Result<uint64_t> ParallelSamplingEngine::CountRound(CoverageQueryBatch* batch) {
  CountStream& s = stream_;
  const size_t r = s.returned;
  const StreamRound& round = s.rounds[r];
  const uint64_t round_chunks = round.end_chunk - round.first_chunk;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t limit =
        s.ahead ? std::min<uint64_t>(s.rounds.back().end_chunk,
                                     round.end_chunk + workers_.size())
                : round.end_chunk;
    s.limit = std::max(s.limit, limit);
    if (s.shared && s.next < s.limit) job_cv_.notify_all();
    // The caller counts chunks of its own round only, so it returns as
    // soon as the round is done.
    while (!s.failed && s.next < round.end_chunk) {
      const uint64_t chunk = s.next++;
      ++s.running;
      lock.unlock();
      CountStreamChunk(workers_.front(), chunk);
      lock.lock();
      FinishStreamChunk(chunk);
    }
    // Chunks are claimed in order, so when a later round's chunk fails
    // every chunk of this round was claimed and still finishes.
    s.waiting = true;
    done_cv_.wait(lock, [&]() {
      return s.done[r] == round_chunks || (s.failed && s.running == 0);
    });
    s.waiting = false;
  }
  s.returned = r + 1;

  // Under a tripped budget each chunk's hits are exact over its own
  // sampled prefix, so the summed hits are exact over the summed sample
  // count — the honest θ the caller scales by.
  uint64_t sampled = 0;
  uint64_t edges = 0;
  WalkCounts walks;
  std::exception_ptr error;
  for (uint64_t c = round.first_chunk; c < round.end_chunk; ++c) {
    const StreamChunk& chunk = s.chunks[c];
    if (chunk.error != nullptr && error == nullptr) error = chunk.error;
    sampled += chunk.sampled;
    edges += chunk.edges;
    walks += chunk.walks;
  }
  if (error != nullptr) {
    CloseStream();
    AccrueGeneration(0, 0, walks.draws);
    return ExceptionToStatus(std::string(name()) + " sampling",
                             std::move(error));
  }
  const size_t num_queries = s.queries.size();
  batch->ZeroHits();
  uint64_t* hits = batch->hit_data();
  for (uint64_t c = round.first_chunk; c < round.end_chunk; ++c) {
    const uint64_t* chunk_hits = s.hits.data() + c * num_queries;
    for (size_t q = 0; q < num_queries; ++q) hits[q] += chunk_hits[q];
  }
  if (!s.ahead) CloseStream();
  AccrueGeneration(sampled, edges, walks.draws);
  stats_.settled_walks += walks.settled_walks;
  stats_.count_walk_nodes += walks.walk_nodes;
  ++stats_.count_pools;
  stats_.coverage_queries += num_queries;
  return sampled;
}

void ParallelSamplingEngine::CloseStream() {
  uint64_t discarded = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stream_.open) return;
    stream_.limit = stream_.next;
    stream_.waiting = true;
    done_cv_.wait(lock, [&]() { return stream_.running == 0; });
    stream_.waiting = false;
    stream_.open = false;
    const uint64_t kept_end =
        stream_.returned > 0 ? stream_.rounds[stream_.returned - 1].end_chunk
                             : 0;
    if (stream_.next > kept_end) discarded = stream_.next - kept_end;
  }
  if (stream_.ahead) {
    EngineMetrics::Get().chunks_discarded->Increment(discarded);
    stream_.ahead = false;
  }
  // Discarded chunks drew from the generators too; a fill's harvest must
  // not see their draws.
  TakeWalkCounts();
}

void ParallelSamplingEngine::set_budget(BudgetGate* budget) {
  CloseStream();
  SamplingEngine::set_budget(budget);
}

void ParallelSamplingEngine::ResetPool() {
  CloseStream();
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
      owned_options_.kernel == options.kernel &&
      owned_weight_version_ == graph.weight_version();
  if (!reusable) {
    owned_ = CreateSamplingEngine(graph, model, options);
    owned_options_ = options;
    owned_weight_version_ = graph.weight_version();
  }
  return owned_.get();
}

}  // namespace atpm
