// Determinism / decision-equivalence smoke over the quickstart instance:
//
//   * repeat determinism — every (num_threads, lookahead_window)
//     configuration run twice must reproduce its run bit for bit;
//   * thread-count invariance — within each lookahead_window ∈ {0, 4},
//     num_threads ∈ {1, 2, 4} must give one bit-identical run fingerprint
//     (seeds, total RR sets, total count pools, and every step's rounds
//     and RR sets used): the engine's chunk streams depend on the seed and
//     the batch size, never on the thread count;
//   * decision equivalence — on the same graph and targets with clear-cut
//     costs (cheap and overpriced targets alternating), window 4 must
//     select the seed set of window 0 while serving some first rounds from
//     speculative answers: every decision's margin dwarfs its certified
//     error, so a sound answer cannot flip it. The calibrated costs are
//     not used here: they put targets near the decision bar, where a
//     borderline candidate resolves by the luck of the stream.
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

  // One run of `hatp` on `instance` from the smoke's world and policy
  // seeds; a failed run exits 1.
  auto run_hatp = [&](atpm::HatpPolicy& hatp,
                      const atpm::ProfitProblem& instance) {
    atpm::Rng world_rng(EnvSeed("ATPM_SMOKE_WORLD_SEED", 43));
    atpm::AdaptiveEnvironment env(atpm::Realization::Sample(graph, &world_rng));
    atpm::Rng policy_rng(EnvSeed("ATPM_SMOKE_POLICY_SEED", 1));
    atpm::Result<atpm::AdaptiveRunResult> run =
        hatp.Run(instance, &env, &policy_rng);
    if (!run.ok()) {
      std::fprintf(stderr, "HATP run failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(run).value();
  };
  auto options = [](uint32_t threads, uint32_t window) {
    atpm::HatpOptions hatp_options;
    hatp_options.sampling.num_threads = threads;
    hatp_options.sampling.lookahead_window = window;
    return hatp_options;
  };

  int failures = 0;

  for (uint32_t window : {0u, 4u}) {
    std::string reference;
    for (uint32_t threads : {1u, 2u, 4u}) {
      atpm::HatpPolicy hatp(options(threads, window));
      std::string first;
      for (int repeat = 0; repeat < 2; ++repeat) {
        const atpm::AdaptiveRunResult run = run_hatp(hatp, problem);
        const std::string fingerprint = Fingerprint(run);
        if (repeat == 0) {
          first = fingerprint;
          std::printf(
              "threads=%u window=%u: %zu seeds, %llu pools, spec hits "
              "%llu/%llu, discarded %llu\n",
              threads, window, run.seeds.size(),
              static_cast<unsigned long long>(run.total_count_pools),
              static_cast<unsigned long long>(run.speculation_hits),
              static_cast<unsigned long long>(run.speculation_hits +
                                              run.speculation_misses),
              static_cast<unsigned long long>(run.speculation_discarded));
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

  // Clear-cut costs on the same targets: a 0.2 cost is far below any
  // target's marginal spread, and half the node count far above it.
  atpm::ProfitProblem clear_cut = problem;
  for (size_t i = 0; i < clear_cut.targets.size(); ++i) {
    clear_cut.costs[clear_cut.targets[i]] =
        i % 2 == 0 ? 0.2 : 0.5 * static_cast<double>(graph.num_nodes());
  }
  atpm::HatpPolicy hatp_zero(options(1, 0));
  atpm::HatpPolicy hatp_four(options(1, 4));
  const atpm::AdaptiveRunResult window_zero = run_hatp(hatp_zero, clear_cut);
  const atpm::AdaptiveRunResult window_four = run_hatp(hatp_four, clear_cut);
  std::printf("clear-cut costs: window 0 seeds %s, window 4 seeds %s, "
              "spec hits %llu\n",
              FormatSeeds(window_zero.seeds).c_str(),
              FormatSeeds(window_four.seeds).c_str(),
              static_cast<unsigned long long>(window_four.speculation_hits));
  if (window_four.seeds != window_zero.seeds) {
    std::fprintf(stderr, "SEED-SET MISMATCH on clear-cut costs at window=4 "
                         "vs window=0\n");
    ++failures;
  }
  if (window_four.speculation_hits == 0) {
    std::fprintf(stderr, "NO SPECULATIVE HIT on clear-cut costs at window=4: "
                         "the equivalence check served no round\n");
    ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr, "determinism smoke FAILED (%d mismatches)\n",
                 failures);
    return 1;
  }
  std::printf("determinism smoke OK: one run per window across thread "
              "counts, one seed set across windows on clear-cut costs\n");
  return 0;
}
