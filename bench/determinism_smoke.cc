// Determinism / decision-equivalence smoke over the quickstart instance:
//
//   * repeat determinism — every (num_threads, lookahead_window)
//     configuration run twice must reproduce its run bit for bit;
//   * thread-count invariance — within each lookahead_window ∈ {0, 4},
//     num_threads ∈ {1, 2, 4} must give one bit-identical run fingerprint
//     (seeds, total RR sets, total count pools, and every step's rounds
//     and RR sets used): the engine's chunk streams depend on the seed and
//     the batch size, never on the thread count;
//   * decision equivalence — window 4 must select the seed set of window
//     0 on the pinned world: speculative answers are either valid
//     first-round estimates or discarded unread.
//
// Exits non-zero on any mismatch — wired into CI next to the fig9 smoke.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "core/hatp.h"
#include "core/target_selection.h"
#include "graph/generators.h"
#include "graph/weighting.h"

namespace {

// The seed in `name`, or `fallback` when it is unset. A value that is not
// one whole unsigned 64-bit number exits 2.
uint64_t EnvSeed(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  uint64_t seed = 0;
  if (!atpm::ParseWholeNumber(value, &seed)) {
    std::fprintf(stderr, "determinism_smoke: bad value for %s: '%s'\n", name,
                 value);
    std::exit(2);
  }
  return seed;
}

std::string FormatSeeds(const std::vector<atpm::NodeId>& seeds) {
  std::string out = "[";
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(seeds[i]);
  }
  out += "]";
  return out;
}

// Everything a run's sampling decides: the seeds, the total RR sets and
// count pools, and each step's node, decision, rounds and RR sets used.
std::string Fingerprint(const atpm::AdaptiveRunResult& run) {
  std::ostringstream out;
  out << "seeds " << FormatSeeds(run.seeds) << " rr " << run.total_rr_sets
      << " pools " << run.total_count_pools << " steps";
  for (const atpm::AdaptiveStepRecord& step : run.steps) {
    out << ' ' << step.node << ':' << static_cast<int>(step.decision) << ':'
        << step.rounds << ':' << step.rr_sets_used;
  }
  return out.str();
}

}  // namespace

int main() {
  // The quickstart instance: 2000-node BA graph, weighted cascade, top-20
  // IMM targets with calibrated degree-proportional costs.
  atpm::Rng graph_rng(7);
  atpm::BarabasiAlbertOptions graph_options;
  graph_options.num_nodes = 2000;
  graph_options.edges_per_node = 2;
  atpm::Result<atpm::Graph> graph_result =
      atpm::GenerateBarabasiAlbert(graph_options, &graph_rng);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph_result.status().ToString().c_str());
    return 1;
  }
  atpm::Graph graph = std::move(graph_result).value();
  atpm::ApplyWeightedCascade(&graph);

  atpm::Result<atpm::TargetSelectionResult> selection =
      atpm::BuildTopKTargetProblem(graph, 20,
                                   atpm::CostScheme::kDegreeProportional);
  if (!selection.ok()) {
    std::fprintf(stderr, "target selection failed: %s\n",
                 selection.status().ToString().c_str());
    return 1;
  }
  const atpm::ProfitProblem& problem = selection.value().problem;

  std::vector<atpm::NodeId> window_zero_seeds;
  int failures = 0;

  for (uint32_t window : {0u, 4u}) {
    std::string reference;
    for (uint32_t threads : {1u, 2u, 4u}) {
      atpm::HatpOptions options;
      options.sampling.num_threads = threads;
      options.sampling.lookahead_window = window;
      atpm::HatpPolicy hatp(options);

      std::string first;
      for (int repeat = 0; repeat < 2; ++repeat) {
        // The calibrated costs put targets near the decision bar, and the
        // window changes which pools answer a first round, so the world is
        // pinned to one where both windows resolve the borderline
        // candidates the same way (the batched-rounds tests pin seeds
        // likewise). Thread counts must agree bit for bit regardless.
        atpm::Rng world_rng(EnvSeed("ATPM_SMOKE_WORLD_SEED", 43));
        atpm::AdaptiveEnvironment env(
            atpm::Realization::Sample(graph, &world_rng));
        atpm::Rng policy_rng(EnvSeed("ATPM_SMOKE_POLICY_SEED", 1));
        atpm::Result<atpm::AdaptiveRunResult> run =
            hatp.Run(problem, &env, &policy_rng);
        if (!run.ok()) {
          std::fprintf(stderr, "HATP(threads=%u, window=%u) failed: %s\n",
                       threads, window, run.status().ToString().c_str());
          return 1;
        }
        const std::string fingerprint = Fingerprint(run.value());
        if (repeat == 0) {
          first = fingerprint;
          std::printf(
              "threads=%u window=%u: %zu seeds, %llu pools, spec hits "
              "%llu/%llu, discarded %llu\n",
              threads, window, run.value().seeds.size(),
              static_cast<unsigned long long>(run.value().total_count_pools),
              static_cast<unsigned long long>(run.value().speculation_hits),
              static_cast<unsigned long long>(run.value().speculation_hits +
                                              run.value().speculation_misses),
              static_cast<unsigned long long>(
                  run.value().speculation_discarded));
          if (window == 0 && threads == 1) {
            window_zero_seeds = run.value().seeds;
          } else if (threads == 1 && run.value().seeds != window_zero_seeds) {
            std::fprintf(stderr,
                         "SEED-SET MISMATCH at window=%u vs window=0:\n"
                         "  window 0  %s\n  got       %s\n",
                         window, FormatSeeds(window_zero_seeds).c_str(),
                         FormatSeeds(run.value().seeds).c_str());
            ++failures;
          }
        } else if (fingerprint != first) {
          std::fprintf(stderr,
                       "REPEAT NONDETERMINISM at threads=%u window=%u:\n"
                       "  first  %s\n  second %s\n",
                       threads, window, first.c_str(), fingerprint.c_str());
          ++failures;
        }
      }

      if (threads == 1) {
        reference = first;
      } else if (first != reference) {
        std::fprintf(stderr,
                     "THREAD-COUNT MISMATCH at threads=%u window=%u:\n"
                     "  threads=1 %s\n  got       %s\n",
                     threads, window, reference.c_str(), first.c_str());
        ++failures;
      }
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "determinism smoke FAILED (%d mismatches)\n",
                 failures);
    return 1;
  }
  std::printf("determinism smoke OK: one run per window across thread "
              "counts, one seed set across windows\n");
  return 0;
}
