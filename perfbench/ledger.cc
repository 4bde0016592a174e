// The repo's performance ledger: one workload per invocation, timed end to
// end with tracing off, or per layer with tracing on.
//
//   perfbench_ledger --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// Workloads (each has a fixed instance: graph, targets, costs and worlds;
// --seed draws every sampling stream, so the same seed gives the same
// inputs and the same decisions):
//   hatp-wide    HATP, speculative pipelining (lookahead 4), Epinions
//                stand-in, 1 thread: large RR sets, ~8 queries per pool, so
//                the count batch's per-visited-node query loop dominates.
//   hatp-narrow  HATP, default sampling (batched rounds, 2 queries per
//                pool), NetHEPT stand-in, 4 threads: small RR sets, so
//                per-set overhead and the parallel fan-out dominate.
//   fixed-pool   NSG then NDG, each on one stored pool of fixed theta,
//                Epinions stand-in, 4 threads: pool fill (write side of the
//                generator) plus RRCollection::AnswerBatch.
//
// A run packs the graph store once, then sets up several times (store load
// with a full checksum pass that faults the graph in, target selection,
// world sampling, engine build plus one warm-up count batch) and reports
// the median as setup_s. It then repeats the workload until --seconds have
// passed. Every repetition does identical work; its deterministic counters
// must repeat exactly, and its outputs are checked (seed replay, seed-set
// validity, pool sizes). With --trace 1, untraced and traced repetitions
// alternate: the traced ones sample through a timing decorator
// (timing_engine.h) and record spans (span_log.h) around the calls into
// each layer; the output carries per-layer metrics and the tracing
// overhead, and the spans are written to <workdir> as Chrome trace JSON.
//
// Standard output: a host/input record line, a human-readable summary, and
// as the last line one JSON object {correct, attempted, failed, metrics}.
// The exit code is non-zero when an output check fails.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util/datasets.h"
#include "core/hatp.h"
#include "core/nonadaptive_greedy.h"
#include "core/profit.h"
#include "core/target_selection.h"
#include "diffusion/adaptive_environment.h"
#include "diffusion/realization.h"
#include "graph/graph_store.h"
#include "perfbench/span_log.h"
#include "perfbench/timing_engine.h"
#include "rris/coverage_batch.h"
#include "rris/sampling_engine.h"

namespace perfbench {
namespace {

using atpm::NodeId;

/// Batches under this many RR sets run inline on a parallel engine (the
/// engine's default threshold, passed explicitly so the decorator knows
/// it).
constexpr uint64_t kMinParallelBatch = 4096;
/// Hard cap on repetitions per run; the time budget normally ends it first.
constexpr size_t kMaxReps = 1000;

enum class Kind { kHatp, kFixedPool };

struct Workload {
  const char* name;
  Kind kind;
  const char* dataset;
  double scale;
  /// |T|, chosen by IMM top-k with degree-proportional costs.
  uint32_t k;
  /// Possible worlds: one HATP run each, or the profit evaluation of the
  /// NSG/NDG seed sets.
  uint32_t worlds;
  uint32_t threads;
  /// HATP speculation window (0 = off).
  uint32_t lookahead;
  /// NSG/NDG pool size.
  uint64_t theta;
  /// Set-ups per run; setup_s is their median.
  uint32_t setups;
};

/// Seed of every workload's instance: graph, targets, costs and worlds are
/// fixed, like a real dataset. --seed draws the sampling streams. Seeding
/// the worlds too made HATP's run time vary 300x between seeds (in some
/// worlds the first seed activates every other target).
constexpr uint64_t kInstanceSeed = 1;

constexpr Workload kWorkloads[] = {
    // HATP run time varies with the sampling stream (a close decision that
    // needs one more halving round doubles its cost), so the HATP
    // workloads sum many short runs: few targets, many worlds.
    {"hatp-wide", Kind::kHatp, "Epinions", 0.3, 4, 16, 1, 4, 0, 9},
    {"hatp-narrow", Kind::kHatp, "NetHEPT", 0.4, 5, 6, 4, 0, 0, 9},
    {"fixed-pool", Kind::kFixedPool, "Epinions", 0.3, 50, 4, 4, 0,
     uint64_t{1} << 20, 9},
};

// ------------------------------------------------------------- utilities

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Collects output-check failures; any failure makes the run incorrect.
class Checker {
 public:
  void Expect(bool condition, const std::string& what) {
    if (condition) return;
    if (failures_ < 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

// ------------------------------------------------------------- host speed

/// Host-speed probe. On a 4-vCPU Xeon VM sharing its host, one hatp-wide
/// run of a fixed seed took 19-25 s within one hour, wall and CPU time
/// alike, so raw times compare the neighbours, not the code. The
/// ledger runs this fixed walk before every unit and scales the run's
/// times by kReferenceS / (median walk time): seconds on a host at the
/// reference speed. The walk is pointer chasing over a 4 MiB table, the
/// access pattern of an RR-set walk over a graph of this size; it runs no
/// atpm code, so a change to the program cannot move it.
class HostProbe {
 public:
  /// Median walk time on the reference host (a 4-vCPU Xeon VM).
  static constexpr double kReferenceS = 0.0150;

  HostProbe() : next_(kEntries) {
    // One cycle through every slot (Sattolo's algorithm), fixed seed.
    for (uint32_t i = 0; i < kEntries; ++i) next_[i] = i;
    atpm::Rng rng(0x5eedULL);
    for (uint32_t i = kEntries - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.Next() % i]);
    }
  }

  void Sample() {
    const int64_t start = WallNs();
    uint32_t at = 0;
    for (uint32_t step = 0; step < kSteps; ++step) at = next_[at];
    samples_.push_back(static_cast<double>(WallNs() - start) * 1e-9);
    sink_ = at;
  }

  /// Factor that converts this run's times to reference-host seconds.
  double Scale() const { return kReferenceS / Median(samples_); }
  size_t samples() const { return samples_.size(); }

 private:
  static constexpr uint32_t kEntries = uint32_t{1} << 20;
  static constexpr uint32_t kSteps = uint32_t{1} << 18;
  std::vector<uint32_t> next_;
  std::vector<double> samples_;
  /// Keeps the walk from being optimized away.
  volatile uint32_t sink_ = 0;
};

// ------------------------------------------------------------ host record

uint32_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

long CacheBytes(int level) {
#if defined(_SC_LEVEL2_CACHE_SIZE) && defined(_SC_LEVEL3_CACHE_SIZE)
  return sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
#else
  (void)level;
  return -1;
#endif
}

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ----------------------------------------------------------------- set-up

/// Everything one set-up builds. Heap-allocated and never moved: the
/// problem, worlds and engines hold pointers to `graph`.
struct Instance {
  atpm::Graph graph;
  atpm::ProfitProblem problem;
  std::vector<atpm::Realization> worlds;
  /// HATP samples through engines[0]. NSG and NDG each own one engine, so
  /// each pool keeps the capacity its own fills need: on a shared engine,
  /// whether NDG's pool outgrows NSG's capacity is a coin flip of the
  /// sampling stream, which made peak RSS bimodal across seeds.
  std::vector<std::unique_ptr<atpm::SamplingEngine>> engines;
  uint64_t im_rr_sets = 0;

  atpm::SamplingStats Stats() const {
    atpm::SamplingStats total;
    for (const auto& engine : engines) {
      const atpm::SamplingStats& s = engine->stats();
      total.rr_sets_generated += s.rr_sets_generated;
      total.edges_examined += s.edges_examined;
      total.count_pools += s.count_pools;
      total.coverage_queries += s.coverage_queries;
      total.rng_draws += s.rng_draws;
    }
    return total;
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double load_s = 0.0;
  double select_s = 0.0;
  double world_s = 0.0;
  double engine_s = 0.0;
};

uint64_t WorldSeed(uint64_t seed, uint32_t world) {
  return seed * 0x9e3779b97f4a7c15ULL + world + 1;
}

std::unique_ptr<Instance> Setup(const Workload& w, uint64_t seed,
                                const std::string& store_path, SpanLog* spans,
                                SetupTimes* times, std::string* error) {
  auto inst = std::make_unique<Instance>();
  ScopedSpan setup_span(spans, "bench.setup");
  const int64_t start = WallNs();
  int64_t mark = start;
  const auto lap = [&mark]() {
    const int64_t now = WallNs();
    const double seconds = static_cast<double>(now - mark) * 1e-9;
    mark = now;
    return seconds;
  };
  {
    ScopedSpan span(spans, "graph.load");
    atpm::GraphStoreLoadOptions load;
    load.verify_payload = true;  // hashes every page: faults the graph in
    atpm::Result<atpm::Graph> graph = atpm::LoadGraphStore(store_path, load);
    if (!graph.ok()) {
      *error = "store load: " + graph.status().ToString();
      return nullptr;
    }
    inst->graph = std::move(graph).value();
  }
  times->load_s = lap();
  {
    ScopedSpan span(spans, "im.target_select");
    atpm::TargetSelectionOptions options;
    options.seed = kInstanceSeed + w.k;
    options.num_threads = w.threads;
    atpm::Result<atpm::TargetSelectionResult> selection =
        atpm::BuildTopKTargetProblem(inst->graph, w.k,
                                     atpm::CostScheme::kDegreeProportional,
                                     options);
    if (!selection.ok()) {
      *error = "target selection: " + selection.status().ToString();
      return nullptr;
    }
    inst->problem = selection.value().problem;
    inst->im_rr_sets = selection.value().sampling_stats.rr_sets_generated;
  }
  times->select_s = lap();
  {
    ScopedSpan span(spans, "diffusion.world_sample");
    atpm::Rng rng(kInstanceSeed ^ 0x3715bULL);
    inst->worlds.reserve(w.worlds);
    for (uint32_t i = 0; i < w.worlds; ++i) {
      inst->worlds.push_back(atpm::Realization::Sample(inst->graph, &rng));
    }
  }
  times->world_s = lap();
  {
    ScopedSpan span(spans, "rris.engine_build");
    const size_t num_engines = w.kind == Kind::kFixedPool ? 2 : 1;
    for (size_t e = 0; e < num_engines; ++e) {
      std::unique_ptr<atpm::SamplingEngine> engine;
      if (w.threads > 1) {
        engine = std::make_unique<atpm::ParallelSamplingEngine>(
            inst->graph, atpm::DiffusionModel::kIndependentCascade,
            w.threads, kMinParallelBatch);
      } else {
        engine = std::make_unique<atpm::SerialSamplingEngine>(inst->graph);
      }
      // Warm-up: one count batch wide enough to run on the worker pool, so
      // threads, generator buffers and hot graph pages exist before timing.
      atpm::CoverageQueryBatch batch;
      batch.Add(inst->problem.targets.front());
      atpm::Result<uint64_t> warm = engine->TryCountCoverageBatchSeeded(
          &batch, nullptr, inst->graph.num_nodes(), kMinParallelBatch,
          seed ^ 0x3a7bULL);
      if (!warm.ok()) {
        *error = "warm-up: " + warm.status().ToString();
        return nullptr;
      }
      engine->ResetStats();
      inst->engines.push_back(std::move(engine));
    }
  }
  times->engine_s = lap();
  times->total_s = static_cast<double>(WallNs() - start) * 1e-9;
  return inst;
}

// ------------------------------------------------------------ repetitions

/// Counters that depend only on the inputs: identical in every repetition.
struct Counters {
  uint64_t rr_sets = 0;
  uint64_t edges = 0;
  uint64_t rng_draws = 0;
  uint64_t count_pools = 0;
  uint64_t fill_sets = 0;
  uint64_t decisions = 0;

  bool operator==(const Counters&) const = default;
};

struct Rep {
  /// Wall and CPU time of each unit: one HATP run per world, or NSG and
  /// NDG. The run's metrics take each unit's median over repetitions, so
  /// a burst of interference from other processes is filtered per unit.
  std::vector<double> unit_wall_s;
  std::vector<double> unit_cpu_s;
  /// Sum of unit_wall_s.
  double run_s = 0.0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double profit = 0.0;
  Counters counters;
  /// Inner-engine effort over the repetition.
  atpm::SamplingStats inner;
  /// Seed sets: one per world (HATP) or {NSG, NDG}.
  std::vector<std::vector<NodeId>> seeds;
  uint64_t total_rr_sets = 0;
  // Decision-layer telemetry.
  uint64_t rounds = 0;
  uint64_t pools = 0;
  uint64_t spec_hits = 0;
  uint64_t spec_misses = 0;
  uint64_t spec_discarded = 0;
  uint64_t num_seeds = 0;
  // Observation replay.
  double observe_s = 0.0;
  uint64_t activated = 0;
  /// The repetition's root span (traced repetitions only).
  int32_t span = -1;
};

/// Samples the host probe (untraced repetitions only, so no span holds
/// it), then runs one unit of a repetition and records its wall and CPU
/// time.
template <typename Fn>
void TimeUnit(Rep* rep, HostProbe* probe, Fn&& unit) {
  if (probe != nullptr) probe->Sample();
  const int64_t wall0 = WallNs();
  const int64_t cpu0 = CpuNs();
  unit();
  const double wall_s = static_cast<double>(WallNs() - wall0) * 1e-9;
  rep->unit_wall_s.push_back(wall_s);
  rep->unit_cpu_s.push_back(static_cast<double>(CpuNs() - cpu0) * 1e-9);
  rep->run_s += wall_s;
}

atpm::SamplingStats Delta(const atpm::SamplingStats& after,
                          const atpm::SamplingStats& before) {
  atpm::SamplingStats d;
  d.rr_sets_generated = after.rr_sets_generated - before.rr_sets_generated;
  d.edges_examined = after.edges_examined - before.edges_examined;
  d.count_pools = after.count_pools - before.count_pools;
  d.coverage_queries = after.coverage_queries - before.coverage_queries;
  d.rng_draws = after.rng_draws - before.rng_draws;
  return d;
}

bool SameStats(const atpm::SamplingStats& a, const atpm::SamplingStats& b) {
  return a.rr_sets_generated == b.rr_sets_generated &&
         a.edges_examined == b.edges_examined &&
         a.count_pools == b.count_pools &&
         a.coverage_queries == b.coverage_queries &&
         a.rng_draws == b.rng_draws;
}

void CheckSeedSet(const atpm::ProfitProblem& problem,
                  const std::vector<NodeId>& seeds, const char* who,
                  Checker* check) {
  const std::set<NodeId> targets(problem.targets.begin(),
                                 problem.targets.end());
  const std::set<NodeId> distinct(seeds.begin(), seeds.end());
  check->Expect(distinct.size() == seeds.size(),
                std::string(who) + ": seeds are not distinct");
  check->Expect(std::includes(targets.begin(), targets.end(),
                              distinct.begin(), distinct.end()),
                std::string(who) + ": seeds are not a subset of T");
}

/// One HATP run per world through engines[0] (the bare engine or the
/// timing decorator around it), then the output checks.
Rep RunHatp(const Workload& w, uint64_t seed, Instance* inst,
            const std::vector<atpm::SamplingEngine*>& engines,
            HostProbe* probe, SpanLog* spans, Checker* check) {
  atpm::HatpOptions options;
  options.sampling.num_threads = w.threads;
  options.sampling.lookahead_window = w.lookahead;
  atpm::HatpPolicy hatp(options);
  hatp.set_engine(engines[0]);

  std::vector<atpm::AdaptiveEnvironment> envs;
  std::vector<atpm::Rng> rngs;
  envs.reserve(w.worlds);
  for (uint32_t i = 0; i < w.worlds; ++i) {
    envs.emplace_back(atpm::Realization(inst->worlds[i]));
    rngs.emplace_back(WorldSeed(seed, i));
  }
  std::vector<atpm::Result<atpm::AdaptiveRunResult>> runs;
  runs.reserve(w.worlds);

  Rep rep;
  const atpm::SamplingStats before = inst->Stats();
  {
    ScopedSpan rep_span(spans, "core.rep");
    rep.span = rep_span.id();
    for (uint32_t i = 0; i < w.worlds; ++i) {
      ScopedSpan run_span(spans, "core.run");
      TimeUnit(&rep, probe, [&] {
        runs.push_back(hatp.Run(inst->problem, &envs[i], &rngs[i]));
      });
    }
  }
  hatp.set_engine(nullptr);
  rep.inner = Delta(inst->Stats(), before);

  for (uint32_t i = 0; i < w.worlds; ++i) {
    if (!runs[i].ok()) {
      ++rep.ops;
      ++rep.failed;
      check->Expect(false, "HATP run failed: " + runs[i].status().ToString());
      continue;
    }
    const atpm::AdaptiveRunResult& run = runs[i].value();
    rep.ops += run.steps.size();
    rep.failed += run.degradation_events.size();
    CheckSeedSet(inst->problem, run.seeds, "HATP", check);
    check->Expect(envs[i].num_seedings() == run.seeds.size(),
                  "HATP: num_seedings() != seeds.size()");

    // Replay the seeds on a fresh environment over the same world.
    atpm::AdaptiveEnvironment replay{atpm::Realization(inst->worlds[i])};
    {
      ScopedSpan span(spans, "diffusion.observe");
      const int64_t start = WallNs();
      for (NodeId s : run.seeds) replay.SeedAndObserve(s);
      rep.observe_s += static_cast<double>(WallNs() - start) * 1e-9;
    }
    const double replay_profit =
        static_cast<double>(replay.num_activated()) -
        inst->problem.CostOfSet(run.seeds);
    check->Expect(replay.num_activated() == run.realized_spread,
                  "HATP: replay does not reproduce realized_spread");
    check->Expect(replay_profit == run.realized_profit,
                  "HATP: replay does not reproduce realized_profit");

    rep.activated += replay.num_activated();
    rep.profit += run.realized_profit / static_cast<double>(w.worlds);
    rep.seeds.push_back(run.seeds);
    rep.total_rr_sets += run.total_rr_sets;
    rep.counters.decisions += run.steps.size();
    for (const atpm::AdaptiveStepRecord& step : run.steps) {
      rep.rounds += step.rounds;
    }
    rep.pools += run.total_count_pools;
    rep.spec_hits += run.speculation_hits;
    rep.spec_misses += run.speculation_misses;
    rep.spec_discarded += run.speculation_discarded;
    rep.num_seeds += run.seeds.size();
  }
  return rep;
}

/// NSG then NDG, each on one stored pool of theta sets (engines[0] and
/// engines[1]), then the checks.
Rep RunFixedPool(const Workload& w, uint64_t seed, Instance* inst,
                 const std::vector<atpm::SamplingEngine*>& engines,
                 HostProbe* probe, SpanLog* spans, Checker* check) {
  using GreedyFn = atpm::Result<atpm::NonadaptiveResult> (*)(
      const atpm::ProfitProblem&, uint64_t, atpm::Rng*, atpm::SamplingEngine*);
  const GreedyFn greedy[2] = {&atpm::RunNsg, &atpm::RunNdg};
  const char* names[2] = {"NSG", "NDG"};
  atpm::Rng rngs[2] = {atpm::Rng(seed * 17 + 1), atpm::Rng(seed * 19 + 1)};
  std::vector<atpm::Result<atpm::NonadaptiveResult>> runs;
  uint64_t pool_sets[2] = {0, 0};

  Rep rep;
  const atpm::SamplingStats before = inst->Stats();
  {
    ScopedSpan rep_span(spans, "core.rep");
    rep.span = rep_span.id();
    for (int g = 0; g < 2; ++g) {
      ScopedSpan run_span(spans, "core.run");
      TimeUnit(&rep, probe, [&] {
        runs.push_back(
            greedy[g](inst->problem, w.theta, &rngs[g], engines[g]));
      });
      pool_sets[g] = engines[g]->pool().num_sets();
    }
  }
  rep.inner = Delta(inst->Stats(), before);

  for (int g = 0; g < 2; ++g) {
    ++rep.ops;
    if (!runs[g].ok()) {
      ++rep.failed;
      check->Expect(false, std::string(names[g]) +
                               " failed: " + runs[g].status().ToString());
      continue;
    }
    const atpm::NonadaptiveResult& run = runs[g].value();
    check->Expect(run.num_rr_sets == w.theta && pool_sets[g] == w.theta,
                  std::string(names[g]) + ": pool does not hold theta sets");
    CheckSeedSet(inst->problem, run.seeds, names[g], check);
    // Replay the seed set on a fresh environment over every world; it must
    // reproduce the profit the evaluation helper reports.
    double replay_sum = 0.0;
    for (const atpm::Realization& world : inst->worlds) {
      atpm::AdaptiveEnvironment replay{atpm::Realization(world)};
      {
        ScopedSpan span(spans, "diffusion.observe");
        const int64_t start = WallNs();
        // A nonadaptive seed may already be active from an earlier one.
        for (NodeId s : run.seeds) {
          if (!replay.IsActivated(s)) replay.SeedAndObserve(s);
        }
        rep.observe_s += static_cast<double>(WallNs() - start) * 1e-9;
      }
      rep.activated += replay.num_activated();
      replay_sum += static_cast<double>(replay.num_activated()) -
                    inst->problem.CostOfSet(run.seeds);
    }
    const double profit =
        atpm::AverageRealizedProfit(inst->problem, inst->worlds, run.seeds);
    check->Expect(
        replay_sum / static_cast<double>(inst->worlds.size()) == profit,
        std::string(names[g]) + ": replay does not reproduce the profit");
    rep.profit += profit / 2.0;
    rep.seeds.push_back(run.seeds);
    rep.counters.fill_sets += run.num_rr_sets;
    rep.counters.decisions += 1;
    rep.num_seeds += run.seeds.size();
  }
  return rep;
}

Rep RunRep(const Workload& w, uint64_t seed, Instance* inst,
           const std::vector<atpm::SamplingEngine*>& engines,
           HostProbe* probe, SpanLog* spans, Checker* check) {
  Rep rep = w.kind == Kind::kHatp
                ? RunHatp(w, seed, inst, engines, probe, spans, check)
                : RunFixedPool(w, seed, inst, engines, probe, spans, check);
  rep.counters.rr_sets = rep.inner.rr_sets_generated;
  rep.counters.edges = rep.inner.edges_examined;
  rep.counters.rng_draws = rep.inner.rng_draws;
  rep.counters.count_pools = rep.inner.count_pools;
  return rep;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) && !args->workdir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_ledger --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) found = &candidate;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const uint64_t seed = args.seed;
  const bool traced = args.trace == 1;
  SpanLog span_log;
  SpanLog* spans = traced ? &span_log : nullptr;

  // Pack the store once per run.
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const std::string store_path = args.workdir + "/" + w.name + ".atpm";
  double pack_s = 0.0;
  uint64_t n = 0;
  uint64_t m = 0;
  {
    const int64_t start = WallNs();
    atpm::Result<atpm::BenchDataset> dataset =
        atpm::BuildDataset(w.dataset, w.scale, kInstanceSeed);
    if (!dataset.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    const atpm::Status saved =
        atpm::SaveGraphStore(dataset.value().graph, store_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "store save: %s\n", saved.ToString().c_str());
      return 1;
    }
    n = dataset.value().graph.num_nodes();
    m = dataset.value().graph.num_edges();
    pack_s = static_cast<double>(WallNs() - start) * 1e-9;
  }
  const uint64_t store_bytes = std::filesystem::file_size(store_path, ec);

  // Set up several times; keep the last instance for the timed phase.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Instance> inst;
  for (uint32_t s = 0; s < w.setups; ++s) {
    inst.reset();
    SetupTimes times;
    std::string error;
    inst = Setup(w, seed, store_path, spans, &times, &error);
    if (inst == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(times);
  }
  const auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(values);
  };

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpu_model\": %s, \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld, \"ndebug\": %s}, \"input\": {\"workload\": \"%s\", "
      "\"seed\": %llu, \"threads\": %u, \"dataset\": \"%s\", \"scale\": %g, "
      "\"n\": %llu, \"m\": %llu, \"store_bytes\": %llu, \"pack_s\": %.4f, "
      "\"k\": %u, \"worlds\": %u, \"lookahead\": %u, \"theta\": %llu, "
      "\"setups\": %u}}\n",
      AvailableCpus(), JsonString(CpuModel()).c_str(), CacheBytes(2),
      CacheBytes(3), ndebug ? "true" : "false", w.name,
      static_cast<unsigned long long>(seed), w.threads, w.dataset, w.scale,
      static_cast<unsigned long long>(n), static_cast<unsigned long long>(m),
      static_cast<unsigned long long>(store_bytes), pack_s, w.k, w.worlds,
      w.lookahead, static_cast<unsigned long long>(w.theta), w.setups);

  // Timed phase. Untraced runs sample through the bare engine; traced runs
  // alternate a bare repetition with a decorated, span-recording one.
  Checker check;
  std::vector<atpm::SamplingEngine*> bare;
  std::vector<std::unique_ptr<TimingEngine>> timing;
  std::vector<atpm::SamplingEngine*> decorators;
  for (const auto& engine : inst->engines) {
    bare.push_back(engine.get());
    timing.push_back(std::make_unique<TimingEngine>(engine.get(),
                                                    kMinParallelBatch, spans));
    decorators.push_back(timing.back().get());
  }
  std::vector<Rep> plain;
  std::vector<Rep> decorated;
  std::vector<EngineCallTotals> count_totals;
  std::vector<EngineCallTotals> fill_totals;
  // One untimed warm-up repetition first: it grows the engine's buffers to
  // their working size (a pool fill faults in hundreds of MB), so every
  // timed repetition does the same work from the same state.
  HostProbe probe;
  const Rep warmup =
      RunRep(w, seed, inst.get(), bare, &probe, nullptr, &check);
  // Repeat while another round is predicted to fit in the time budget.
  const int64_t start = WallNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  int64_t elapsed = 0;
  do {
    plain.push_back(
        RunRep(w, seed, inst.get(), bare, &probe, nullptr, &check));
    if (traced) {
      for (auto& t : timing) t->ResetTotals();
      decorated.push_back(
          RunRep(w, seed, inst.get(), decorators, nullptr, spans, &check));
      EngineCallTotals count;
      EngineCallTotals fill;
      for (const auto& t : timing) {
        count.Add(t->count());
        fill.Add(t->fill());
      }
      count_totals.push_back(count);
      fill_totals.push_back(fill);
    }
    elapsed = WallNs() - start;
  } while (elapsed + elapsed / static_cast<int64_t>(plain.size()) <= budget &&
           plain.size() < kMaxReps);

  // Counter repeatability: every repetition, decorated or not, must match
  // the first one exactly; a mismatch is a failed op.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Rep& first = warmup;
  std::vector<const Rep*> all = {&warmup};
  for (const Rep& rep : plain) all.push_back(&rep);
  for (const Rep& rep : decorated) all.push_back(&rep);
  for (const Rep* rep : all) {
    attempted += rep->ops;
    failed += rep->failed;
    if (!(rep->counters == first.counters)) {
      ++failed;
      check.Expect(false, "deterministic counters differ between repetitions");
    }
    check.Expect(rep->seeds == first.seeds && rep->profit == first.profit &&
                     rep->total_rr_sets == first.total_rr_sets &&
                     SameStats(rep->inner, first.inner),
                 "repetitions (traced or not) disagree on seeds, profit, "
                 "total_rr_sets or inner SamplingStats");
  }
  for (size_t i = 0; i < decorated.size(); ++i) {
    check.Expect(count_totals[i].sets + fill_totals[i].sets ==
                     decorated[i].inner.rr_sets_generated,
                 "decorator sets != inner rr_sets_generated delta");
    if (w.kind == Kind::kHatp && decorated[i].failed == 0) {
      check.Expect(count_totals[i].sets == decorated[i].total_rr_sets,
                   "decorator count sets != HATP total_rr_sets");
    }
  }

  std::vector<Metric> metrics;
  if (!traced) {
    // Sum over units of each unit's median over repetitions.
    double run_s = 0.0;
    double cpu_s = 0.0;
    for (size_t u = 0; u < first.unit_wall_s.size(); ++u) {
      std::vector<double> wall;
      std::vector<double> cpu;
      for (const Rep& rep : plain) {
        wall.push_back(rep.unit_wall_s[u]);
        cpu.push_back(rep.unit_cpu_s[u]);
      }
      run_s += Median(wall);
      cpu_s += Median(cpu);
    }
    std::vector<double> rep_run_s;
    for (const Rep& rep : plain) rep_run_s.push_back(rep.run_s);
    const double scale = probe.Scale();
    metrics = {
        {"run_s", run_s * scale, "s"},
        {"cpu_s", cpu_s * scale, "s"},
        {"setup_s", setup_median(&SetupTimes::total_s) * scale, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("%s seed %llu: host speed %.4f of reference (%zu probes); "
                "unscaled: run_s %.4f, cpu_s %.4f, setup_s %.4f\n",
                w.name, static_cast<unsigned long long>(seed), scale,
                probe.samples(), run_s, cpu_s,
                setup_median(&SetupTimes::total_s));
    std::printf("  warm-up %.4f s, %zu repetitions of %.4f to %.4f s, %llu "
                "RR sets, %llu edges, profit %.4f\n",
                warmup.run_s, plain.size(),
                *std::min_element(rep_run_s.begin(), rep_run_s.end()),
                *std::max_element(rep_run_s.begin(), rep_run_s.end()),
                static_cast<unsigned long long>(first.counters.rr_sets),
                static_cast<unsigned long long>(first.counters.edges),
                first.profit);
  } else {
    // Per traced repetition: span self times by name, then medians.
    std::map<std::string, std::vector<double>> samples;
    for (size_t i = 0; i < decorated.size(); ++i) {
      const Rep& rep = decorated[i];
      const EngineCallTotals& count = count_totals[i];
      const EngineCallTotals& fill = fill_totals[i];
      const std::map<std::string, double> self =
          span_log.SelfSecondsByName(rep.span);
      const auto self_of = [&self](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
      };
      EngineCallTotals sampling = count;
      sampling.Add(fill);
      // HATP observes inside its runs; NSG/NDG seeds are replayed after.
      const double observe_in_run_s =
          w.kind == Kind::kHatp ? rep.observe_s : 0.0;
      samples["run_s"].push_back(span_log.Seconds(rep.span));
      samples["rris.sample_s"].push_back(self_of("rris.count") +
                                         self_of("rris.fill"));
      samples["rris.ns_per_edge"].push_back(
          Ratio(sampling.wall_s * 1e9, static_cast<double>(sampling.edges)));
      samples["rris.ns_per_set"].push_back(
          Ratio(sampling.wall_s * 1e9, static_cast<double>(sampling.sets)));
      samples["rris.cores"].push_back(Ratio(sampling.cpu_s, sampling.wall_s));
      samples["rris.idle_core_s"].push_back(sampling.idle_core_s);
      samples["core.self_s"].push_back(self_of("core.rep") +
                                       self_of("core.run") - observe_in_run_s);
      samples["diffusion.observe_s"].push_back(rep.observe_s);
      samples["observe_in_run_s"].push_back(observe_in_run_s);
    }
    std::vector<double> plain_run_s;
    for (const Rep& rep : plain) plain_run_s.push_back(rep.run_s);
    const double traced_run_s = Median(samples["run_s"]);
    const double untraced_run_s = Median(plain_run_s);

    const Rep& rep = decorated.front();
    const EngineCallTotals& count = count_totals.front();
    const EngineCallTotals& fill = fill_totals.front();
    const double decisions = static_cast<double>(rep.counters.decisions);
    const auto med = [&samples](const char* name) {
      return Median(samples[name]);
    };
    metrics = {
        {"rris.sample_s", med("rris.sample_s"), "s"},
        {"rris.ns_per_edge", med("rris.ns_per_edge"), "ns"},
        {"rris.ns_per_set", med("rris.ns_per_set"), "ns"},
        {"rris.queries_per_pool",
         Ratio(static_cast<double>(count.queries),
               static_cast<double>(count.pools)),
         "queries/pool"},
        {"rris.count_sets", static_cast<double>(count.sets), "count"},
        {"rris.count_pools", static_cast<double>(count.pools), "count"},
        {"rris.edges", static_cast<double>(count.edges + fill.edges),
         "count"},
        {"rris.rng_draws",
         static_cast<double>(count.rng_draws + fill.rng_draws), "count"},
        {"rris.cores", med("rris.cores"), "cores"},
        {"rris.idle_core_s", med("rris.idle_core_s"), "s"},
        {"rris.inline_pools", static_cast<double>(count.inline_calls),
         "count"},
        {"rris.fill_sets", static_cast<double>(fill.sets), "count"},
        {"rris.pool_nodes", static_cast<double>(fill.stored_nodes), "count"},
        // Pool CSR bytes the fills wrote: node ids plus one offset per set.
        {"rris.pool_mb_computed",
         static_cast<double>(fill.stored_nodes * sizeof(NodeId) +
                             fill.sets * sizeof(uint64_t)) /
             (1024.0 * 1024.0),
         "MiB"},
        {"core.self_s", med("core.self_s"), "s"},
        {"core.decisions", decisions, "count"},
        {"core.rounds_per_decision",
         Ratio(static_cast<double>(rep.rounds), decisions), "rounds"},
        {"core.pools_per_decision",
         Ratio(static_cast<double>(rep.pools), decisions), "pools"},
        {"core.rr_sets_per_decision",
         Ratio(static_cast<double>(rep.total_rr_sets), decisions), "sets"},
        {"core.spec_hit_rate",
         Ratio(static_cast<double>(rep.spec_hits),
               static_cast<double>(rep.spec_hits + rep.spec_misses)),
         "ratio"},
        {"core.spec_discarded", static_cast<double>(rep.spec_discarded),
         "count"},
        {"core.seeds", static_cast<double>(rep.num_seeds), "count"},
        {"core.profit", rep.profit, "nodes"},
        {"diffusion.observe_s", med("diffusion.observe_s"), "s"},
        {"diffusion.world_sample_s", setup_median(&SetupTimes::world_s),
         "s"},
        {"diffusion.activated", static_cast<double>(rep.activated), "count"},
        {"graph.load_s", setup_median(&SetupTimes::load_s), "s"},
        {"graph.store_mb",
         static_cast<double>(store_bytes) / (1024.0 * 1024.0), "MiB"},
        {"im.target_select_s", setup_median(&SetupTimes::select_s), "s"},
        {"im.rr_sets", static_cast<double>(inst->im_rr_sets), "count"},
        {"trace.run_s", traced_run_s, "s"},
        {"trace.overhead_s", traced_run_s - untraced_run_s, "s"},
    };

    const double layers_sum = med("core.self_s") + med("rris.sample_s") +
                              med("observe_in_run_s");
    std::printf("%s seed %llu: %zu traced + %zu untraced repetitions\n",
                w.name, static_cast<unsigned long long>(seed),
                decorated.size(), plain.size());
    std::printf("  layer self time (median traced repetition):\n");
    std::printf("    core      %.4f s\n", med("core.self_s"));
    std::printf("    rris      %.4f s  (count batches and pool fills)\n",
                med("rris.sample_s"));
    std::printf("    diffusion %.4f s  (observe inside the runs)\n",
                med("observe_in_run_s"));
    std::printf("    sum       %.4f s  vs traced run_s %.4f s\n", layers_sum,
                traced_run_s);
    std::printf("  set-up self time (median): graph %.4f s, im %.4f s, "
                "diffusion %.4f s, rris %.4f s\n",
                setup_median(&SetupTimes::load_s),
                setup_median(&SetupTimes::select_s),
                setup_median(&SetupTimes::world_s),
                setup_median(&SetupTimes::engine_s));
    std::printf("  tracing overhead: %.4f s (traced %.4f s - untraced %.4f s)\n",
                traced_run_s - untraced_run_s, traced_run_s, untraced_run_s);
    const std::string trace_path = args.workdir + "/trace_" + w.name +
                                   "_seed" + std::to_string(seed) + ".json";
    if (span_log.WriteChromeTrace(trace_path)) {
      std::printf("  spans: %zu written to %s\n", span_log.spans().size(),
                  trace_path.c_str());
    } else {
      check.Expect(false, "cannot write " + trace_path);
    }
  }

  std::filesystem::remove(store_path, ec);
  PrintResult(check.ok(), attempted, failed, metrics);
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
