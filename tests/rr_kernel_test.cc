// Tests for the weight-class-aware geometric-jump RR-generation kernel:
// weight classification, the geometric-scan primitive (chi-square), exact
// per-edge equivalence on degenerate probabilities, ±3σ statistical
// agreement across weightings x models x backends, raw kPerEdge bit-compat
// against golden values recorded from the pre-kernel tree, the depleted-
// graph alive-root cache, the rng_draws accounting behind the
// draws-per-edge reduction, pinned exactly per path, weighting and kernel,
// the step record's one-segment paths against the frozen reference scan,
// and the exact LT picks of walks, counts and worlds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/rng.h"
#include "core/hatp.h"
#include "core/target_selection.h"
#include "diffusion/realization.h"
#include "diffusion/spread_oracle.h"
#include "graph/generators.h"
#include "graph/geometric_scan.h"
#include "graph/graph_builder.h"
#include "graph/weighting.h"
#include "rris/rr_set.h"
#include "rris/sampling_engine.h"
#include "engine_test_util.h"

namespace atpm {
namespace {

enum class Weighting { kWeightedCascade, kTrivalency, kUniformRandom };

Graph TestGraph(NodeId n, Weighting weighting,
                uint32_t edges_per_node = 3) {
  Rng rng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = n;
  options.edges_per_node = edges_per_node;
  Graph g = GenerateBarabasiAlbert(options, &rng).value();
  Rng wrng(99);
  switch (weighting) {
    case Weighting::kWeightedCascade:
      ApplyWeightedCascade(&g);
      break;
    case Weighting::kTrivalency:
      ApplyTrivalency(&g, &wrng);
      break;
    case Weighting::kUniformRandom:
      ApplyUniformRandomProbability(&g, 0.01, 0.5, &wrng);
      break;
  }
  return g;
}

// ---- Weight classification.

TEST(WeightClassTest, WeightedCascadeIsUniformEverywhere) {
  const Graph g = TestGraph(300, Weighting::kWeightedCascade);
  const WeightClassProfile profile = g.InWeightClassProfile();
  EXPECT_EQ(profile.few_distinct_nodes, 0u);
  EXPECT_EQ(profile.general_nodes, 0u);
  EXPECT_GT(profile.uniform_nodes, 0u);
  // Every node is a single uniform segment, but jumpable_edges counts only
  // what actually avoids per-edge draws: the gate keeps tiny
  // high-probability vectors (indeg 2, p = 0.5) on the linear scan.
  EXPECT_GT(profile.JumpableEdgeFraction(), 0.7);
  EXPECT_LE(profile.jumpable_edges, g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) == 0) {
      EXPECT_EQ(g.InWeightClass(v), NodeWeightClass::kEmpty);
      continue;
    }
    ASSERT_EQ(g.InWeightClass(v), NodeWeightClass::kUniform);
    const auto segs = g.InProbSegments(v);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].length, g.InDegree(v));
    EXPECT_FLOAT_EQ(segs[0].prob, 1.0f / g.InDegree(v));
    // WC mass is 1 per node: the LT pick must take the O(1) closed form.
    EXPECT_EQ(g.LtInPlan(v), LtPickPlan::kUniform);
  }
}

TEST(WeightClassTest, TrivalencyIsMostlyJumpable) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  const WeightClassProfile profile = g.InWeightClassProfile();
  // Three possible values: multi-value nodes group into segments. Only
  // low-degree nodes whose probs happen to be pairwise distinct (no runs
  // at all) demote to the general per-edge path.
  EXPECT_GT(profile.few_distinct_nodes, 0u);
  EXPECT_GT(profile.JumpableEdgeFraction(), 0.75);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InWeightClass(v) != NodeWeightClass::kFewDistinct) continue;
    // Segments partition the in-edges, descending by probability, and the
    // jump view is a permutation of the original in-list whose slots land
    // on the segment's probability.
    const auto segs = g.InProbSegments(v);
    const auto grouped = g.JumpInNeighbors(v);
    const auto slots = g.JumpInSlots(v);
    ASSERT_EQ(grouped.size(), g.InDegree(v));
    ASSERT_EQ(slots.size(), g.InDegree(v));
    uint32_t total = 0;
    uint32_t base = 0;
    float prev = 2.0f;
    for (const ProbSegment& seg : segs) {
      EXPECT_LT(seg.prob, prev);
      prev = seg.prob;
      for (uint32_t j = 0; j < seg.length; ++j) {
        EXPECT_EQ(g.InProbs(v)[slots[base + j]], seg.prob);
        EXPECT_EQ(g.InNeighbors(v)[slots[base + j]], grouped[base + j]);
      }
      base += seg.length;
      total += seg.length;
    }
    EXPECT_EQ(total, g.InDegree(v));
  }
}

TEST(WeightClassTest, UniformRandomWeightsFallBackToGeneral) {
  const Graph g = TestGraph(400, Weighting::kUniformRandom);
  const WeightClassProfile profile = g.InWeightClassProfile();
  // Distinct float per edge: every node with indeg >= 2 has no same-p runs
  // to jump over, so the whole graph takes the general per-edge fallback
  // (all-distinct demotion below the cap, census overflow above it) and
  // materializes no jump view.
  EXPECT_GT(profile.general_nodes, 0u);
  EXPECT_LT(profile.JumpableEdgeFraction(), 0.5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InWeightClass(v) != NodeWeightClass::kGeneral) continue;
    EXPECT_TRUE(g.JumpInNeighbors(v).empty());
    EXPECT_TRUE(g.InProbSegments(v).empty());
  }
}

TEST(WeightClassTest, LtPlansMatchProbabilityMass) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  uint32_t alias_nodes = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    double mass = 0.0;
    for (float p : g.InProbs(v)) mass += p;
    switch (g.LtInPlan(v)) {
      case LtPickPlan::kNone:
        EXPECT_EQ(g.InDegree(v), 0u);
        break;
      case LtPickPlan::kUniform:
        EXPECT_EQ(g.InWeightClass(v), NodeWeightClass::kUniform);
        EXPECT_LE(mass, 1.0 + 1e-6);
        break;
      case LtPickPlan::kAlias:
        ++alias_nodes;
        EXPECT_LE(mass, 1.0 + 1e-6);
        EXPECT_GE(g.InDegree(v), 8u);
        EXPECT_EQ(g.LtAliasSlots(v).size(), g.InDegree(v) + 1u);
        break;
      case LtPickPlan::kPrefix:
        // Mass-truncating nodes keep the scan for correctness; short
        // non-uniform lists keep it because it is cheaper than a table.
        EXPECT_TRUE(mass > 1.0 || g.InDegree(v) < 8u);
        break;
    }
  }
  EXPECT_GT(alias_nodes, 0u);
}

TEST(WeightClassTest, ProfileExposedThroughSpreadOracles) {
  const Graph g = TestGraph(200, Weighting::kWeightedCascade);
  SerialSamplingEngine engine(g);
  RisSpreadOracle oracle(&engine);
  const WeightClassProfile profile = oracle.graph().InWeightClassProfile();
  EXPECT_EQ(profile.total_edges, g.num_edges());
  EXPECT_GT(profile.JumpableEdgeFraction(), 0.7);
  EXPECT_EQ(engine.kernel(), SamplingKernel::kGeometricJump);
}

// ---- The geometric-scan primitive.

// A jump segment as RebuildWeightIndex would emit it: log factor plus
// the any-success probability of the (here single-segment) run suffix.
ProbSegment MakeJumpSegment(uint32_t length, float p) {
  const double log_q = std::log1p(-static_cast<double>(p));
  return ProbSegment{length, p, log_q, -std::expm1(length * log_q)};
}

TEST(GeometricScanTest, PerIndexHitRatesPassChiSquare) {
  const uint32_t length = 32;
  const float p = 0.1f;
  const ProbSegment seg = MakeJumpSegment(length, p);
  Rng rng(2026);
  const int trials = 100000;
  std::vector<uint64_t> hits(length, 0);
  uint64_t draws = 0;
  for (int t = 0; t < trials; ++t) {
    GeometricSegmentScan({&seg, 1}, &rng, &draws, [&](uint32_t j) {
      ++hits[j];
      return true;
    });
  }
  // Each index is an independent Bernoulli(p) per trial: standardized
  // squared deviations sum to ~chi-square(32). 99.9% quantile ~= 62.5.
  const double expected = trials * static_cast<double>(p);
  const double variance = expected * (1.0 - static_cast<double>(p));
  double chi2 = 0.0;
  for (uint64_t h : hits) {
    const double d = static_cast<double>(h) - expected;
    chi2 += d * d / variance;
  }
  EXPECT_LT(chi2, 62.5) << "chi2 = " << chi2;
  // Draw economy: ~1 draw per success + 1 terminal per scan, against 32
  // Bernoullis per scan for the per-edge loop — >= 5x here.
  EXPECT_LT(static_cast<double>(draws),
            trials * (length * static_cast<double>(p) * 1.2 + 1.2));
}

TEST(GeometricScanTest, CrossSegmentRunsShareOneLedgerWalk) {
  // Three heterogeneous jump segments in one run: per-index hit rates must
  // match each segment's probability, with ~one draw per success + one
  // terminal draw for the WHOLE run (not one per segment). Suffix
  // any-success probabilities chained as the index builder would.
  ProbSegment segs[3] = {MakeJumpSegment(8, 0.1f), MakeJumpSegment(8, 0.01f),
                         MakeJumpSegment(8, 0.001f)};
  double suffix_ln = 0.0;
  for (int i = 3; i-- > 0;) {
    suffix_ln += 8.0 * segs[i].log1p_neg;
    segs[i].run_any_prob = -std::expm1(suffix_ln);
  }
  Rng rng(77);
  const int trials = 200000;
  std::vector<uint64_t> hits(24, 0);
  uint64_t draws = 0;
  for (int t = 0; t < trials; ++t) {
    GeometricSegmentScan({segs, 3}, &rng, &draws, [&](uint32_t j) {
      ++hits[j];
      return true;
    });
  }
  for (uint32_t j = 0; j < 24; ++j) {
    const double p = static_cast<double>(segs[j / 8].prob);
    const double sigma = std::sqrt(p * (1.0 - p) / trials);
    EXPECT_NEAR(static_cast<double>(hits[j]) / trials, p, 4.0 * sigma + 1e-9)
        << "index " << j;
  }
  // Expected successes per trial = 8 * (0.1 + 0.01 + 0.001) = 0.888; one
  // terminal draw per trial on top. 24 Bernoullis for the per-edge loop.
  EXPECT_LT(static_cast<double>(draws) / trials, 2.1);
}

TEST(GeometricScanTest, DegenerateProbabilitiesAreExactAndDrawless) {
  Rng rng(1);
  uint64_t draws = 0;
  std::vector<uint32_t> visited;
  const ProbSegment ones{5, 1.0f, 0.0};
  GeometricSegmentScan({&ones, 1}, &rng, &draws, [&](uint32_t j) {
    visited.push_back(j);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  const ProbSegment zeros{5, 0.0f, 0.0};
  GeometricSegmentScan({&zeros, 1}, &rng, &draws, [&](uint32_t) {
    ADD_FAILURE() << "p = 0 must never fire";
    return true;
  });
  EXPECT_EQ(draws, 0u);
}

// ---- Exactness of the guarded scan against the historical one.

// GeometricSegmentScan as it stood before the table log, the guard band and
// the mid-segment no-success test: one std::log1p per ledger walk. Frozen
// here as the reference the fast paths must reproduce bit for bit.
template <typename Visit>
bool ReferenceSegmentScan(std::span<const ProbSegment> segments, Rng* rng,
                          uint64_t* draws, Visit&& visit) {
  const size_t num_segments = segments.size();
  uint32_t base = 0;
  size_t s = 0;
  while (s < num_segments) {
    const ProbSegment& seg = segments[s];
    if (seg.log1p_neg == 0.0) {
      if (seg.prob >= 1.0f) {
        for (uint32_t j = 0; j < seg.length; ++j) {
          if (!visit(base + j)) return false;
        }
      } else if (seg.prob > 0.0f) {
        for (uint32_t j = 0; j < seg.length; ++j) {
          ++*draws;
          if (rng->Bernoulli(seg.prob) && !visit(base + j)) return false;
        }
      }
      base += seg.length;
      ++s;
      continue;
    }
    size_t e = s;
    uint32_t run_length = 0;
    while (e < num_segments && segments[e].log1p_neg != 0.0) {
      run_length += segments[e].length;
      ++e;
    }
    size_t cs = s;
    uint32_t cj = 0;
    uint32_t seg_base = base;
    for (;;) {
      if (cs >= e) break;
      ++*draws;
      const double u = rng->UniformDouble();
      if (cj == 0 && segments[cs].run_any_prob > 0.0 &&
          u >= segments[cs].run_any_prob) {
        break;
      }
      const double target = std::log1p(-u);
      double cum = 0.0;
      bool found = false;
      while (cs < e) {
        const ProbSegment& cur = segments[cs];
        const uint32_t remaining = cur.length - cj;
        const double seg_mass =
            static_cast<double>(remaining) * cur.log1p_neg;
        if (cum + seg_mass <= target) {
          uint32_t k =
              static_cast<uint32_t>((target - cum) / cur.log1p_neg);
          if (k >= remaining) k = remaining - 1;
          if (!visit(seg_base + cj + k)) return false;
          cj += k + 1;
          if (cj >= cur.length) {
            seg_base += cur.length;
            ++cs;
            cj = 0;
          }
          found = true;
          break;
        }
        cum += seg_mass;
        seg_base += cur.length;
        ++cs;
        cj = 0;
      }
      if (!found) break;
    }
    base += run_length;
    s = e;
  }
  return true;
}

// Suffix any-success probabilities per jump run, back to front, exactly as
// the graph's weight-class index fills them (FillRunAnyProb).
void FillRunAnyProbLikeIndex(std::vector<ProbSegment>* segments) {
  double suffix_ln = 0.0;
  for (size_t i = segments->size(); i-- > 0;) {
    ProbSegment& seg = (*segments)[i];
    if (seg.log1p_neg == 0.0) {
      suffix_ln = 0.0;
      continue;
    }
    suffix_ln += static_cast<double>(seg.length) * seg.log1p_neg;
    seg.run_any_prob = -std::expm1(suffix_ln);
  }
}

// A random segment vector covering the scan's regimes: 1-5 segments of
// log-uniform length 1-5000, p in {0, 1, 1e-9, 1/d, 0.5, 0.999} or random
// (uniform or log-uniform), and about a fifth of the (0, 1) segments gated
// to the per-edge Bernoulli loop.
std::vector<ProbSegment> RandomSegments(Rng* rng) {
  const uint32_t num_segments = 1 + static_cast<uint32_t>(rng->UniformInt(5));
  std::vector<ProbSegment> segments;
  for (uint32_t i = 0; i < num_segments; ++i) {
    const uint32_t length = std::min<uint32_t>(
        5000, static_cast<uint32_t>(
                  std::exp(rng->UniformDouble() * std::log(5001.0))));
    const uint32_t d = 1 + static_cast<uint32_t>(rng->UniformInt(5000));
    float p = 0.0f;
    switch (rng->UniformInt(8)) {
      case 0: p = 0.0f; break;
      case 1: p = 1.0f; break;
      case 2: p = 1e-9f; break;
      case 3: p = 1.0f / static_cast<float>(d); break;
      case 4: p = 0.5f; break;
      case 5: p = 0.999f; break;
      case 6: p = static_cast<float>(rng->UniformDouble()); break;
      default:
        p = static_cast<float>(std::exp(-rng->UniformDouble() * 14.0));
    }
    const bool jump = p > 0.0f && p < 1.0f && rng->UniformInt(5) != 0;
    segments.push_back(ProbSegment{
        std::max<uint32_t>(1, length), p,
        jump ? std::log1p(-static_cast<double>(p)) : 0.0, 0.0});
  }
  FillRunAnyProbLikeIndex(&segments);
  return segments;
}

TEST(GeometricScanExactnessTest, MatchesFrozenReferenceOverRandomScans) {
  Rng config_rng(14);
  uint64_t scans = 0;
  uint64_t visits = 0;
  while (scans < 10'000'000) {
    const std::vector<ProbSegment> segments = RandomSegments(&config_rng);
    // Cost control: many scans of cheap configurations, few of dense ones
    // (expected visits, plus one draw per edge of a gated segment).
    double expected_cost = 1.0;
    for (const ProbSegment& seg : segments) {
      expected_cost += seg.length * static_cast<double>(seg.prob);
      if (seg.log1p_neg == 0.0 && seg.prob < 1.0f) expected_cost += seg.length;
    }
    const uint64_t repeats = std::max<uint64_t>(
        1, std::min<uint64_t>(256, static_cast<uint64_t>(
                                       2048.0 / expected_cost)));
    // Some configurations abort the scan at a random visit.
    const uint64_t abort_at = config_rng.UniformInt(4) == 0
                                  ? 1 + config_rng.UniformInt(8)
                                  : ~0ULL;
    const uint64_t seed = config_rng.Next();
    Rng ref_rng(seed);
    Rng new_rng(seed);
    for (uint64_t r = 0; r < repeats; ++r, ++scans) {
      uint64_t ref_draws = 0, new_draws = 0;
      uint64_t ref_hash = 0, new_hash = 0;
      uint64_t ref_count = 0, new_count = 0;
      const bool ref_done = ReferenceSegmentScan(
          segments, &ref_rng, &ref_draws, [&](uint32_t j) {
            ref_hash = ref_hash * 0x100000001b3ULL + j + 1;
            return ++ref_count < abort_at;
          });
      const bool new_done = GeometricSegmentScan(
          segments, &new_rng, &new_draws, [&](uint32_t j) {
            new_hash = new_hash * 0x100000001b3ULL + j + 1;
            return ++new_count < abort_at;
          });
      visits += new_count;
      ASSERT_EQ(ref_done, new_done) << "scan " << scans;
      ASSERT_EQ(ref_count, new_count) << "scan " << scans;
      ASSERT_EQ(ref_hash, new_hash) << "scan " << scans;
      ASSERT_EQ(ref_draws, new_draws) << "scan " << scans;
      ASSERT_EQ(ref_rng.Next(), new_rng.Next()) << "scan " << scans;
    }
  }
  EXPECT_GT(visits, scans);  // the workload is not all no-success scans
}

// The walk outcome at std::log1p(-m·2^-53), the reference target.
LedgerPosition ReferenceWalk(std::span<const ProbSegment> segments,
                             size_t run_end, LedgerPosition from,
                             uint64_t m) {
  return WalkLogSurvivalLedger(
      segments, run_end, from,
      std::log1p(-static_cast<double>(m) * 0x1p-53));
}

TEST(GeometricScanExactnessTest, IndexBoundariesResolveExactly) {
  // Adjacent grid draws m, m + 1 whose reference outcomes differ straddle
  // an index boundary: found by bisection on the 2^-53 grid, they are
  // exactly where the guard band can disagree and the log1p fallback runs.
  Rng rng(1910);
  uint64_t boundaries = 0;
  uint64_t fallbacks = 0;
  while (boundaries < 20000) {
    std::vector<ProbSegment> segments = RandomSegments(&rng);
    for (ProbSegment& seg : segments) {  // a single jump run
      if (seg.log1p_neg == 0.0) {
        seg.prob = 0.25f;
        seg.log1p_neg = std::log1p(-0.25);
      }
    }
    FillRunAnyProbLikeIndex(&segments);
    const size_t run_end = segments.size();
    LedgerPosition from{rng.UniformInt(run_end), 0, 0, true};
    from.index = static_cast<uint32_t>(
        rng.UniformInt(segments[from.segment].length));
    for (size_t i = 0; i < from.segment; ++i) {
      from.segment_base += segments[i].length;
    }
    uint64_t lo = rng.UniformInt(1ULL << 53);
    uint64_t hi = rng.UniformInt(1ULL << 53);
    if (lo > hi) std::swap(lo, hi);
    const LedgerPosition at_lo = ReferenceWalk(segments, run_end, from, lo);
    if (at_lo == ReferenceWalk(segments, run_end, from, hi)) continue;
    while (hi - lo > 1) {
      const uint64_t mid = lo + (hi - lo) / 2;
      (ReferenceWalk(segments, run_end, from, mid) == at_lo ? lo : hi) = mid;
    }
    ++boundaries;
    for (uint64_t m = lo >= 2 ? lo - 2 : 0; m <= hi + 2 && m < (1ULL << 53);
         ++m) {
      const double u = static_cast<double>(m) * 0x1p-53;
      const double approx = TableLog1pNeg(u);
      const double band = LogGuardBand(approx);
      if (WalkLogSurvivalLedger(segments, run_end, from, approx - band) !=
          WalkLogSurvivalLedger(segments, run_end, from,
                                std::min(approx + band, 0.0))) {
        ++fallbacks;
      }
      ASSERT_EQ(NextLedgerSuccess(segments, run_end, from, u),
                ReferenceWalk(segments, run_end, from, m))
          << "m = " << m;
    }
  }
  EXPECT_GT(fallbacks, boundaries);  // each boundary hit the fallback
}

TEST(GeometricScanExactnessTest, MidRunNoSuccessNeverHidesASuccess) {
  // Tightest case of the mid-segment test: the first grid draw at or past
  // run_any_prob, from a position inside a segment. Whenever the test
  // fires, the reference walk must find no success either. Runs mix
  // segments near the 2^-30 log floor with heavy ones: a heavy suffix puts
  // run_any_prob so close to 1 that its rounding outweighs a light edge's
  // mass, which is what the 1 - 2^-20 cap is for. The unguarded compare is
  // counted too, to show the data reaches that regime.
  Rng rng(2020);
  uint64_t fired = 0;
  uint64_t unguarded_misses = 0;
  for (int trial = 0; trial < 400000; ++trial) {
    std::vector<ProbSegment> segments;
    const uint32_t num_segments = 1 + static_cast<uint32_t>(rng.UniformInt(4));
    for (uint32_t i = 0; i < num_segments; ++i) {
      double p = 0.0;
      switch (rng.UniformInt(3)) {
        case 0: p = 0x1p-30 * (1.0 + rng.UniformDouble()); break;
        case 1: p = 0.3 + 0.6 * rng.UniformDouble(); break;
        default: p = std::exp(-1.0 - rng.UniformDouble() * 12.0);
      }
      const float pf = static_cast<float>(p);
      const uint32_t length = 1 + static_cast<uint32_t>(rng.UniformInt(60));
      segments.push_back(
          ProbSegment{length, pf, std::log1p(-static_cast<double>(pf)), 0.0});
    }
    FillRunAnyProbLikeIndex(&segments);
    const size_t cs = rng.UniformInt(num_segments);
    const ProbSegment& seg = segments[cs];
    if (seg.length < 2) continue;
    const LedgerPosition from{
        cs, 1 + static_cast<uint32_t>(rng.UniformInt(seg.length - 1)), 0,
        true};
    const uint64_t m =
        static_cast<uint64_t>(std::ceil(seg.run_any_prob * 0x1p53));
    if (m >= (1ULL << 53)) continue;
    const double u = static_cast<double>(m) * 0x1p-53;
    const bool found = ReferenceWalk(segments, num_segments, from, m).found;
    if (found && u >= seg.run_any_prob) ++unguarded_misses;
    if (!MidRunNoSuccess(seg, num_segments - cs, u)) continue;
    ++fired;
    ASSERT_FALSE(found) << "trial " << trial;
  }
  EXPECT_GT(fired, 50000u);
  EXPECT_GT(unguarded_misses, 1000u);
}

TEST(GeometricScanExactnessTest, TableLogErrorStaysWithinBandOver1e8Draws) {
  // Worst |TableLog1pNeg(u) - log1p(-u)| as a fraction of the guard band,
  // over uniform grid draws, log-uniform u and 1 - u down to 2^-53, and
  // every grid value with u <= 2^-40 or 1 - u <= 2^-40.
  double worst = 0.0;
  const auto check = [&](uint64_t m) {
    const double u = static_cast<double>(m) * 0x1p-53;
    const double approx = TableLog1pNeg(u);
    worst = std::max(worst, std::abs(approx - std::log1p(-u)) /
                                LogGuardBand(approx));
  };
  for (uint64_t m = 0; m <= (1ULL << 13); ++m) {
    check(m);                           // u <= 2^-40
    check((1ULL << 53) - 1 - m);        // 1 - u <= 2^-40
  }
  Rng rng(53);
  uint64_t checked = 2 * ((1ULL << 13) + 1);
  for (; checked < 100'000'000; checked += 3) {
    check(rng.Next() >> 11);  // uniform draw
    const uint64_t scale = 1ULL << rng.UniformInt(54);  // 2^0 .. 2^53
    check((rng.Next() >> 11) % scale);                       // small u
    check((1ULL << 53) - 1 - (rng.Next() >> 11) % scale);    // small 1 - u
  }
  EXPECT_LE(worst, 1.0 / 16.0) << "worst error / band = " << worst;
}

// ---- Exactness of the step record's one-segment paths.

// The segment the weight-class index emits for a node with `degree`
// in-edges of probability `p` (empty for in-degree 0).
ProbSegment IndexedSegment(uint32_t degree, float p) {
  GraphBuilder builder;
  builder.ReserveNodes(degree + 1);
  for (uint32_t i = 1; i <= degree; ++i) builder.AddEdge(i, 0, p);
  const Graph g = builder.Build().value();
  const auto segments = g.InProbSegments(0);
  return segments.empty() ? ProbSegment{} : segments[0];
}

// A kUniform node's reverse step as ExpandNode takes it off the record:
// kEmpty returns, kJump runs the one-segment walk, kScan the Bernoulli scan.
template <typename Visit>
bool OneSegmentStep(const ProbSegment& seg, Rng* rng, uint64_t* draws,
                    Visit&& visit) {
  if (seg.length == 0) return true;
  if (seg.log1p_neg != 0.0) return OneSegmentJumpScan(seg, rng, draws, visit);
  return ScanNonJumpSegment(seg, rng, draws, visit);
}

TEST(GeometricScanExactnessTest, OneSegmentStepMatchesFrozenReference) {
  // Weighted cascade at every in-degree 4..64 and log-spaced up to 4096
  // (all jump), the gated degrees 2 and 3, trivalency's values on uniform
  // nodes, p = 1, p = 0 and in-degree 0. Each segment is scanned many
  // times from one stream, some scans aborted at a random visit.
  std::vector<ProbSegment> cases;
  for (uint32_t d = 4; d <= 4096; d = d < 64 ? d + 1 : d + d / 8 + 1) {
    cases.push_back(IndexedSegment(d, 1.0f / static_cast<float>(d)));
    ASSERT_NE(cases.back().log1p_neg, 0.0) << "WC degree " << d;
  }
  cases.push_back(IndexedSegment(4096, 1.0f / 4096.0f));
  for (uint32_t d : {2u, 3u}) {
    cases.push_back(IndexedSegment(d, 1.0f / static_cast<float>(d)));
    ASSERT_EQ(cases.back().log1p_neg, 0.0) << "WC degree " << d;
  }
  for (float p : {0.1f, 0.01f, 0.001f}) {
    for (uint32_t d : {1u, 2u, 5u, 40u, 700u, 4096u}) {
      cases.push_back(IndexedSegment(d, p));
    }
  }
  for (uint32_t d : {1u, 3u, 17u}) {
    cases.push_back(IndexedSegment(d, 1.0f));
    cases.push_back(IndexedSegment(d, 0.0f));
  }
  cases.push_back(IndexedSegment(0, 0.5f));
  Rng config_rng(2910);
  uint64_t visits = 0;
  uint64_t scans = 0;
  for (const ProbSegment& seg : cases) {
    const std::span<const ProbSegment> reference_view(&seg,
                                                      seg.length > 0 ? 1 : 0);
    const uint64_t seed = config_rng.Next();
    Rng ref_rng(seed);
    Rng new_rng(seed);
    for (int r = 0; r < 20000; ++r, ++scans) {
      const uint64_t abort_at =
          r % 4 == 0 ? 1 + config_rng.UniformInt(4) : ~0ULL;
      uint64_t ref_draws = 0, new_draws = 0;
      uint64_t ref_hash = 0, new_hash = 0;
      uint64_t ref_count = 0, new_count = 0;
      const bool ref_done = ReferenceSegmentScan(
          reference_view, &ref_rng, &ref_draws, [&](uint32_t j) {
            ref_hash = ref_hash * 0x100000001b3ULL + j + 1;
            return ++ref_count < abort_at;
          });
      const bool new_done =
          OneSegmentStep(seg, &new_rng, &new_draws, [&](uint32_t j) {
            new_hash = new_hash * 0x100000001b3ULL + j + 1;
            return ++new_count < abort_at;
          });
      visits += new_count;
      ASSERT_EQ(ref_done, new_done) << "length " << seg.length;
      ASSERT_EQ(ref_count, new_count) << "length " << seg.length;
      ASSERT_EQ(ref_hash, new_hash) << "length " << seg.length;
      ASSERT_EQ(ref_draws, new_draws) << "length " << seg.length;
      ASSERT_EQ(ref_rng.Next(), new_rng.Next()) << "length " << seg.length;
    }
  }
  EXPECT_GT(visits, scans);
}

TEST(GeometricScanExactnessTest, OneSegmentBoundariesResolveExactly) {
  // Adjacent grid draws whose reference outcomes differ, from a random
  // position of a weighted-cascade or random-p jump segment. Every other
  // bracket ends at u = 1 - 2^-53, so the bisection lands on the last
  // success before "none": where the walk's FP clamp k >= remaining fires.
  Rng rng(1911);
  uint64_t boundaries = 0;
  uint64_t fallbacks = 0;
  uint64_t clamps = 0;
  while (boundaries < 20000) {
    const uint32_t d = 4 + static_cast<uint32_t>(rng.UniformInt(4093));
    const float p =
        rng.UniformInt(2) == 0
            ? 1.0f / static_cast<float>(d)
            : static_cast<float>(std::exp(-1.0 - rng.UniformDouble() * 12.0));
    const ProbSegment seg = MakeJumpSegment(d, p);
    const uint32_t from = static_cast<uint32_t>(rng.UniformInt(d));
    const LedgerPosition start{0, from, 0, true};
    const auto reference = [&](uint64_t m) {
      const LedgerPosition pos = ReferenceWalk({&seg, 1}, 1, start, m);
      return pos.found ? pos.index : seg.length;
    };
    uint64_t lo = rng.UniformInt(1ULL << 53);
    uint64_t hi = boundaries % 2 == 0 ? (1ULL << 53) - 1
                                      : rng.UniformInt(1ULL << 53);
    if (lo > hi) std::swap(lo, hi);
    const uint32_t at_hi = reference(hi);
    if (reference(lo) == at_hi) continue;
    while (hi - lo > 1) {  // the outcome is monotone in m
      const uint64_t mid = lo + (hi - lo) / 2;
      (reference(mid) == at_hi ? hi : lo) = mid;
    }
    ++boundaries;
    for (uint64_t m = lo >= 2 ? lo - 2 : 0; m <= hi + 2 && m < (1ULL << 53);
         ++m) {
      const double u = static_cast<double>(m) * 0x1p-53;
      const double approx = TableLog1pNeg(u);
      const double band = LogGuardBand(approx);
      if (WalkOneSegmentLedger(seg, from, approx - band) !=
          WalkOneSegmentLedger(seg, from, std::min(approx + band, 0.0))) {
        ++fallbacks;
      }
      const double target = std::log1p(-u);
      const uint32_t remaining = seg.length - from;
      if (static_cast<double>(remaining) * seg.log1p_neg <= target &&
          static_cast<uint32_t>(target / seg.log1p_neg) >= remaining) {
        ++clamps;
      }
      ASSERT_EQ(NextOneSegmentSuccess(seg, from, u), reference(m))
          << "m = " << m << " length " << seg.length << " from " << from;
    }
  }
  EXPECT_GT(fallbacks, boundaries);  // each boundary hit the fallback
  EXPECT_GT(clamps, 0u);             // and the clamp's regime was reached
}

TEST(GeometricScanExactnessTest, RecordWalksMatchFrozenReferenceWalks) {
  // Whole RR walks through the step records against a reverse BFS that
  // scans every node's segments with the frozen reference scan (and the
  // per-edge loop for general nodes): the same sets in the same order, the
  // same edges and the same draws, on graphs that mix every step kind.
  for (const Weighting weighting :
       {Weighting::kWeightedCascade, Weighting::kTrivalency,
        Weighting::kUniformRandom}) {
    const Graph g = TestGraph(400, weighting, 4);
    RRSetGenerator generator(g);
    Rng rng(51);
    Rng ref_rng(51);
    uint64_t ref_draws = 0;
    std::vector<NodeId> rr;
    for (int t = 0; t < 3000; ++t) {
      const uint64_t edges = generator.Generate(nullptr, g.num_nodes(), &rng,
                                                &rr);
      std::vector<NodeId> ref{static_cast<NodeId>(
          ref_rng.UniformInt(g.num_nodes()))};
      ++ref_draws;
      std::vector<bool> seen(g.num_nodes(), false);
      seen[ref[0]] = true;
      uint64_t ref_edges = 0;
      const auto admit = [&](NodeId u) {
        if (!seen[u]) {
          seen[u] = true;
          ref.push_back(u);
        }
        return true;
      };
      for (size_t head = 0; head < ref.size(); ++head) {
        const NodeId v = ref[head];
        ref_edges += g.InDegree(v);
        const auto neigh = g.InNeighbors(v);
        switch (g.InWeightClass(v)) {
          case NodeWeightClass::kUniform:
            ReferenceSegmentScan(g.InProbSegments(v), &ref_rng, &ref_draws,
                                 [&](uint32_t j) { return admit(neigh[j]); });
            break;
          case NodeWeightClass::kFewDistinct: {
            const auto grouped = g.JumpInNeighbors(v);
            ReferenceSegmentScan(g.InProbSegments(v), &ref_rng, &ref_draws,
                                 [&](uint32_t j) { return admit(grouped[j]); });
            break;
          }
          default:
            for (uint32_t j = 0; j < neigh.size(); ++j) {
              if (seen[neigh[j]]) continue;
              ++ref_draws;
              if (ref_rng.Bernoulli(g.InProbs(v)[j])) admit(neigh[j]);
            }
        }
      }
      ASSERT_EQ(rr, ref) << "set " << t;
      ASSERT_EQ(edges, ref_edges) << "set " << t;
    }
    EXPECT_EQ(generator.rng_draws(), ref_draws);
    EXPECT_EQ(rng.Next(), ref_rng.Next());
  }
}

// ---- Exact kernel equivalence on degenerate probabilities: for p in
// {0, 1} the only randomness is the root draw, which both kernels take
// first, so per-set outputs match bit for bit from identical seeds.

TEST(KernelEquivalenceTest, DegenerateEdgesProduceIdenticalSets) {
  for (const Graph& g :
       {MakePathGraph(6, 1.0), MakeCompleteGraph(6, 0.0)}) {
    for (uint64_t seed = 0; seed < 100; ++seed) {
      RRSetGenerator jump(g, DiffusionModel::kIndependentCascade,
                          SamplingKernel::kGeometricJump);
      RRSetGenerator per_edge(g, DiffusionModel::kIndependentCascade,
                              SamplingKernel::kPerEdge);
      Rng rng_a(seed);
      Rng rng_b(seed);
      std::vector<NodeId> a;
      std::vector<NodeId> b;
      jump.Generate(nullptr, g.num_nodes(), &rng_a, &a);
      per_edge.Generate(nullptr, g.num_nodes(), &rng_b, &b);
      EXPECT_EQ(a, b) << "seed " << seed;
    }
  }
}

// ---- Statistical agreement: the two kernels estimate the same coverage
// probability within ±3σ of the two-sample difference, for every weighting
// x diffusion model x backend combination.

class KernelAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KernelAgreementTest, CoverageEstimatesAgreeWithin3Sigma) {
  const Weighting weighting = static_cast<Weighting>(std::get<0>(GetParam()));
  const DiffusionModel model =
      std::get<1>(GetParam()) == 0 ? DiffusionModel::kIndependentCascade
                                   : DiffusionModel::kLinearThreshold;
  const bool parallel = std::get<2>(GetParam()) == 1;

  const Graph g = TestGraph(400, weighting);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  const uint64_t theta = 120000;

  SamplingOptions options;
  options.num_threads = parallel ? 4 : 1;

  options.kernel = SamplingKernel::kPerEdge;
  auto reference = CreateSamplingEngine(g, model, options);
  const uint64_t ref_hits = CountOne(*reference, 0, &base, nullptr,
                                     g.num_nodes(), theta, 1234);

  options.kernel = SamplingKernel::kGeometricJump;
  auto fast = CreateSamplingEngine(g, model, options);
  const uint64_t fast_hits = CountOne(*fast, 0, &base, nullptr, g.num_nodes(),
                                      theta, 5678);

  const double p_ref = static_cast<double>(ref_hits) / theta;
  const double p_fast = static_cast<double>(fast_hits) / theta;
  const double p_hat = 0.5 * (p_ref + p_fast);
  const double sigma = std::sqrt(2.0 * p_hat * (1.0 - p_hat) /
                                 static_cast<double>(theta));
  EXPECT_GT(p_hat, 0.0);
  EXPECT_NEAR(p_ref, p_fast, 3.0 * sigma + 1e-9)
      << "weighting " << std::get<0>(GetParam()) << " model "
      << std::get<1>(GetParam()) << " backend "
      << (parallel ? "parallel" : "serial");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelAgreementTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1),
                       ::testing::Values(0, 1)));

// Pool-based agreement: per-node membership frequencies of stored pools
// agree across kernels (the TryGeneratePool path, both models).

TEST(KernelAgreementTest, PoolMembershipAgreesAcrossKernels) {
  for (int m = 0; m < 2; ++m) {
    const DiffusionModel model = m == 0 ? DiffusionModel::kIndependentCascade
                                        : DiffusionModel::kLinearThreshold;
    const Graph g = TestGraph(300, Weighting::kWeightedCascade);
    const uint64_t count = 40000;

    SerialSamplingEngine per_edge(g, model, SamplingKernel::kPerEdge);
    Rng rng_a(10);
    const RRCollection& pool_a =
        FillPool(per_edge, nullptr, g.num_nodes(), count, &rng_a);

    SerialSamplingEngine jump(g, model, SamplingKernel::kGeometricJump);
    Rng rng_b(20);
    const RRCollection& pool_b =
        FillPool(jump, nullptr, g.num_nodes(), count, &rng_b);

    for (NodeId u = 0; u < 20; ++u) {
      const double f_a =
          static_cast<double>(pool_a.CoverageOfNode(u)) / count;
      const double f_b =
          static_cast<double>(pool_b.CoverageOfNode(u)) / count;
      const double p_hat = 0.5 * (f_a + f_b);
      const double sigma = std::sqrt(2.0 * p_hat * (1.0 - p_hat) /
                                     static_cast<double>(count));
      EXPECT_NEAR(f_a, f_b, 3.0 * sigma + 1e-9)
          << "model " << m << " node " << u;
    }
  }
}

// ---- kPerEdge bit-compat: golden values recorded from the pre-kernel
// tree (seed commit bb4922a) with the historical per-edge sampling. The
// raw kPerEdge generator must reproduce them exactly — RNG stream and all.
// The engine cuts batches into chunk streams, so engine runs have goldens
// of their own below.

Graph GoldenWcGraph() { return TestGraph(300, Weighting::kWeightedCascade); }

uint64_t PoolHash(const RRCollection& pool) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < pool.num_sets(); ++i) {
    const auto s = pool.set(i);
    h = (h ^ s.size()) * 1099511628211ull;
    for (NodeId v : s) h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

// The historical engine's count: a per-edge generator on the stream
// Rng(Rng(caller_seed).Next()).
uint64_t PreKernelCount(const Graph& g, DiffusionModel model,
                        uint64_t caller_seed, const BitVector& base) {
  RRSetGenerator generator(g, model, SamplingKernel::kPerEdge);
  Rng caller(caller_seed);
  Rng stream(caller.Next());
  return generator.CountCovering(nullptr, g.num_nodes(), 20000, 0, &base,
                                 &stream);
}

// The historical engine's pool: a per-edge generator on Rng(seed).
RRCollection PreKernelPool(const Graph& g, DiffusionModel model,
                           uint64_t seed, uint64_t count) {
  RRSetGenerator generator(g, model, SamplingKernel::kPerEdge);
  RRCollection pool(g.num_nodes());
  Rng rng(seed);
  pool.Generate(&generator, nullptr, g.num_nodes(), count, &rng);
  return pool;
}

BitVector GoldenBase(const Graph& g) {
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  return base;
}

TEST(PerEdgeGoldenTest, RawIcCountMatchesPreKernelTree) {
  const Graph g = GoldenWcGraph();
  EXPECT_EQ(PreKernelCount(g, DiffusionModel::kIndependentCascade, 5,
                           GoldenBase(g)),
            314u);
}

TEST(PerEdgeGoldenTest, RawIcPoolMatchesPreKernelTree) {
  const Graph g = GoldenWcGraph();
  const RRCollection pool =
      PreKernelPool(g, DiffusionModel::kIndependentCascade, 77, 2000);
  EXPECT_EQ(pool.total_nodes(), 11288u);
  EXPECT_EQ(PoolHash(pool), 8984351673573768080ull);
}

TEST(PerEdgeGoldenTest, RawLtCountAndPoolMatchPreKernelTree) {
  const Graph g = GoldenWcGraph();
  EXPECT_EQ(PreKernelCount(g, DiffusionModel::kLinearThreshold, 5,
                           GoldenBase(g)),
            526u);
  EXPECT_EQ(
      PoolHash(PreKernelPool(g, DiffusionModel::kLinearThreshold, 77, 1000)),
      1754442299263415209ull);
}

TEST(PerEdgeGoldenTest, RawIcTrivalencyCountMatchesPreKernelTree) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  EXPECT_EQ(PreKernelCount(g, DiffusionModel::kIndependentCascade, 5,
                           GoldenBase(g)),
            146u);
}

TEST(PerEdgeGoldenTest, EngineSeededCountGolden) {
  const Graph g = GoldenWcGraph();
  const BitVector base = GoldenBase(g);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                4096, SamplingKernel::kPerEdge);
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 60000, 42),
            974u);
}

TEST(PerEdgeGoldenTest, HatpDecisionSequenceGolden) {
  // kernel = kPerEdge end to end — decision-for-decision and
  // RR-set-for-RR-set — on the pipelining-test instance (BA n=300 epn=2,
  // top-10 targets, serial engine, world seed 42, policy seed 1).
  Rng grng(7);
  BarabasiAlbertOptions options;
  options.num_nodes = 300;
  options.edges_per_node = 2;
  Graph g = GenerateBarabasiAlbert(options, &grng).value();
  ApplyWeightedCascade(&g);
  TargetSelectionOptions sel;
  sel.kernel = SamplingKernel::kPerEdge;
  auto selection =
      BuildTopKTargetProblem(g, 10, CostScheme::kDegreeProportional, sel);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  const ProfitProblem& problem = selection.value().problem;

  HatpOptions hopt;
  hopt.sampling.kernel = SamplingKernel::kPerEdge;
  HatpPolicy policy(hopt);
  Rng world_rng(42);
  AdaptiveEnvironment env(Realization::Sample(
      g, &world_rng, DiffusionModel::kIndependentCascade,
      SamplingKernel::kPerEdge));
  Rng rng(1);
  auto run = policy.Run(problem, &env, &rng);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9, 55}));
  EXPECT_EQ(run.value().total_rr_sets, 254176u);
  EXPECT_NEAR(run.value().realized_profit, 17.560785, 1e-4);
}

// ---- Depleted-graph root sampling: the cached alive list must be exactly
// as correct (and as deterministic) as the retired per-draw linear scan.

TEST(AliveRootCacheTest, DepletedGraphRootsAreUniformAndDeterministic) {
  const Graph g = MakeCompleteGraph(512, 0.0);
  BitVector removed(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) removed.Set(v);
  const NodeId alive[3] = {5, 100, 200};
  for (NodeId v : alive) removed.Clear(v);

  RRSetGenerator generator(g);
  Rng rng(9);
  std::vector<NodeId> rr;
  std::vector<NodeId> roots;
  uint64_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    generator.Generate(&removed, 3, &rng, &rr);
    ASSERT_EQ(rr.size(), 1u);
    roots.push_back(rr[0]);
    for (int a = 0; a < 3; ++a) {
      if (rr[0] == alive[a]) ++counts[a];
    }
  }
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 3000u);
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 3000.0, 1.0 / 3.0, 0.05);
  }
  // Bit-determinism of the cached path: a fresh generator from the same
  // seed reproduces the exact root sequence.
  RRSetGenerator repeat(g);
  Rng rng2(9);
  for (int i = 0; i < 3000; ++i) {
    repeat.Generate(&removed, 3, &rng2, &rr);
    ASSERT_EQ(rr[0], roots[i]) << "draw " << i;
  }
}

TEST(AliveRootCacheTest, SurvivesInPlaceResidualShrinkage) {
  // The adaptive loop mutates `removed` in place between counting calls;
  // the cache must follow (key change via num_alive) and keep excluding
  // newly removed nodes.
  const Graph g = MakeCompleteGraph(256, 0.0);
  BitVector removed(g.num_nodes());
  for (NodeId v = 4; v < g.num_nodes(); ++v) removed.Set(v);
  RRSetGenerator generator(g);
  Rng rng(11);
  std::vector<NodeId> rr;
  for (int i = 0; i < 500; ++i) {
    generator.Generate(&removed, 4, &rng, &rr);
    EXPECT_LT(rr[0], 4u);
  }
  removed.Set(2);  // epoch moves: one more seeding
  for (int i = 0; i < 500; ++i) {
    generator.Generate(&removed, 3, &rng, &rr);
    EXPECT_LT(rr[0], 4u);
    EXPECT_NE(rr[0], 2u);
  }
}

// ---- Draw accounting: the headline draws-per-edge reduction, measured
// end to end through SamplingStats.

TEST(RngDrawStatsTest, GeometricJumpHalvesDrawsPerEdgeOnWeightedCascade) {
  const Graph g = TestGraph(400, Weighting::kWeightedCascade);
  const uint64_t theta = 20000;
  double draws_per_edge[2];
  for (int k = 0; k < 2; ++k) {
    SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                k == 0 ? SamplingKernel::kPerEdge
                                       : SamplingKernel::kGeometricJump);
    Rng rng(33);
    CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), theta, rng.Next());
    const SamplingStats& stats = engine.stats();
    EXPECT_GT(stats.rng_draws, 0u);
    EXPECT_GT(stats.edges_examined, 0u);
    draws_per_edge[k] = stats.DrawsPerEdge();
  }
  // Acceptance bar: >= 2x fewer draws per edge examined on WC weights.
  EXPECT_GT(draws_per_edge[0], 2.0 * draws_per_edge[1])
      << "per-edge " << draws_per_edge[0] << " vs jump " << draws_per_edge[1];
}

// Exact draw and edge counts of every kernel path, weighting and kernel
// at a fixed size and seed: the graphs of the micro benchmarks' BM_Kernel*
// series at 2^12 nodes. A kernel change that moves either count is a
// behaviour change and must re-pin here.
enum class KernelPath { kIcGenerate, kLtGenerate, kEngineCount, kWorldSample };

SamplingStats RunKernelPath(KernelPath path, Weighting weighting,
                            SamplingKernel kernel) {
  constexpr NodeId kNodes = 1 << 12;
  constexpr uint64_t kSets = 2000;
  SamplingStats stats;
  if (path == KernelPath::kWorldSample) {
    const Graph g = TestGraph(kNodes, weighting, 8);
    Rng rng(37);
    for (int world = 0; world < 4; ++world) {
      Realization::Sample(g, &rng, DiffusionModel::kIndependentCascade,
                          kernel, &stats);
    }
    return stats;
  }
  const Graph g = TestGraph(kNodes, weighting);
  if (path == KernelPath::kEngineCount) {
    SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                                kernel);
    BitVector base(g.num_nodes());
    for (NodeId v = 100; v < 200; ++v) base.Set(v);
    CountOne(engine, 0, &base, nullptr, g.num_nodes(), kSets, 23);
    return engine.stats();
  }
  const bool lt = path == KernelPath::kLtGenerate;
  RRSetGenerator generator(g,
                           lt ? DiffusionModel::kLinearThreshold
                              : DiffusionModel::kIndependentCascade,
                           kernel);
  Rng rng(lt ? 19 : 17);
  std::vector<NodeId> rr;
  for (uint64_t i = 0; i < kSets; ++i) {
    stats.edges_examined += generator.Generate(nullptr, g.num_nodes(), &rng,
                                               &rr);
  }
  stats.rng_draws = generator.rng_draws();
  return stats;
}

TEST(RngDrawStatsTest, DrawsAndEdgesArePinnedPerPathWeightingAndKernel) {
  struct Pin {
    KernelPath path;
    Weighting weighting;
    SamplingKernel kernel;
    uint64_t rng_draws;
    uint64_t edges_examined;
  };
  using enum KernelPath;
  using enum Weighting;
  constexpr SamplingKernel kJump = SamplingKernel::kGeometricJump;
  constexpr SamplingKernel kEdge = SamplingKernel::kPerEdge;
  const Pin pins[] = {
      {kIcGenerate, kWeightedCascade, kJump, 30939, 205436},
      {kIcGenerate, kWeightedCascade, kEdge, 207531, 219075},
      {kIcGenerate, kTrivalency, kJump, 6036, 23956},
      {kIcGenerate, kTrivalency, kEdge, 29833, 28914},
      {kIcGenerate, kUniformRandom, kJump, 10939040, 20223542},
      {kIcGenerate, kUniformRandom, kEdge, 10939040, 20223542},
      {kLtGenerate, kWeightedCascade, kJump, 15782, 215528},
      {kLtGenerate, kWeightedCascade, kEdge, 15782, 215528},
      {kLtGenerate, kTrivalency, kJump, 4619, 21711},
      {kLtGenerate, kTrivalency, kEdge, 4619, 23006},
      {kLtGenerate, kUniformRandom, kJump, 13041, 708598},
      {kLtGenerate, kUniformRandom, kEdge, 13041, 708598},
      {kEngineCount, kWeightedCascade, kJump, 16855, 102417},
      {kEngineCount, kWeightedCascade, kEdge, 98386, 107212},
      {kEngineCount, kTrivalency, kJump, 5556, 21598},
      {kEngineCount, kTrivalency, kEdge, 20078, 20274},
      {kEngineCount, kUniformRandom, kJump, 64813, 122238},
      {kEngineCount, kUniformRandom, kEdge, 64813, 122238},
      {kWorldSample, kWeightedCascade, kJump, 31291, 261856},
      {kWorldSample, kWeightedCascade, kEdge, 261856, 261856},
      {kWorldSample, kTrivalency, kJump, 26085, 261856},
      {kWorldSample, kTrivalency, kEdge, 261856, 261856},
      {kWorldSample, kUniformRandom, kJump, 261856, 261856},
      {kWorldSample, kUniformRandom, kEdge, 261856, 261856},
  };
  for (const Pin& pin : pins) {
    const SamplingStats stats =
        RunKernelPath(pin.path, pin.weighting, pin.kernel);
    SCOPED_TRACE(::testing::Message()
                 << "path " << static_cast<int>(pin.path) << ", weighting "
                 << static_cast<int>(pin.weighting) << ", "
                 << SamplingKernelName(pin.kernel));
    EXPECT_EQ(stats.rng_draws, pin.rng_draws);
    EXPECT_EQ(stats.edges_examined, pin.edges_examined);
  }
}

TEST(RngDrawStatsTest, ParallelBackendAggregatesWorkerDraws) {
  const Graph g = TestGraph(400, Weighting::kWeightedCascade);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4);
  const uint64_t theta = 20000;  // above min_parallel_batch
  CountOne(engine, 0, nullptr, nullptr, g.num_nodes(), theta, 7);
  EXPECT_GT(engine.stats().rng_draws, theta);  // >= 1 root draw per set
}

// ---- World sampling through the jump kernel: same distribution, and
// exact equality on degenerate probabilities.

TEST(RealizationKernelTest, DegenerateWorldsAreIdenticalAcrossKernels) {
  for (double p : {0.0, 1.0}) {
    const Graph g = MakeCompleteGraph(8, p);
    for (int m = 0; m < 2; ++m) {
      const DiffusionModel model = m == 0
                                       ? DiffusionModel::kIndependentCascade
                                       : DiffusionModel::kLinearThreshold;
      if (m == 1 && p == 1.0) continue;  // LT needs mass <= 1
      Rng rng_a(4);
      Rng rng_b(4);
      const Realization a =
          Realization::Sample(g, &rng_a, model, SamplingKernel::kPerEdge);
      const Realization b = Realization::Sample(g, &rng_b, model,
                                                SamplingKernel::kGeometricJump);
      EXPECT_EQ(a.NumLiveEdges(), b.NumLiveEdges());
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (uint32_t j = 0; j < g.OutDegree(u); ++j) {
          EXPECT_EQ(a.IsLive(u, j), b.IsLive(u, j));
        }
      }
    }
  }
}

TEST(RealizationKernelTest, LiveEdgeMassAgreesAcrossKernels) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  double expected_mass = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (float p : g.InProbs(v)) expected_mass += p;
  }
  const int worlds = 300;
  uint64_t live = 0;
  Rng rng(6);
  for (int w = 0; w < worlds; ++w) {
    live += Realization::Sample(g, &rng, DiffusionModel::kIndependentCascade,
                                SamplingKernel::kGeometricJump)
                .NumLiveEdges();
  }
  const double mean = static_cast<double>(live) / worlds;
  // Mean live edges = total probability mass; generous ±5σ of the
  // Poisson-binomial spread (bounded by sqrt(mass)).
  const double sigma = std::sqrt(expected_mass / worlds);
  EXPECT_NEAR(mean, expected_mass, 5.0 * sigma);
}

TEST(RealizationKernelTest, LtJumpWorldsKeepAtMostOneInEdge) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  Rng rng(12);
  const Realization world = Realization::Sample(
      g, &rng, DiffusionModel::kLinearThreshold,
      SamplingKernel::kGeometricJump);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    uint32_t live_in = 0;
    for (uint32_t j = 0; j < g.InDegree(v); ++j) {
      const uint64_t edge = g.InEdgeIndex(v, j);
      const NodeId u = g.InNeighbors(v)[j];
      uint32_t slot = 0;
      for (; slot < g.OutDegree(u); ++slot) {
        if (g.OutEdgeIndex(u, slot) == edge) break;
      }
      if (world.IsLive(u, slot)) ++live_in;
    }
    EXPECT_LE(live_in, 1u) << "node " << v;
  }
}

// ---- LT picks: the reverse walk and count (with a removed mask) and
// whole-world sampling reproduce their exact picks and draws per weighting
// and kernel. Covers every LtPickPlan: uniform (weighted cascade), alias
// and prefix (trivalency, uniform random with mass > 1).

uint64_t MixHash(uint64_t hash, uint64_t x) {
  return (hash ^ x) * 0x100000001b3ULL;
}

TEST(LtPickPinTest, WalksCountsAndWorldsArePinned) {
  struct Pin {
    Weighting weighting;
    SamplingKernel kernel;
    uint64_t walk_nodes, walk_hash, count_hits, walk_draws;
    uint64_t world_live, world_hash, world_draws;
  };
  using enum Weighting;
  constexpr SamplingKernel kJump = SamplingKernel::kGeometricJump;
  constexpr SamplingKernel kEdge = SamplingKernel::kPerEdge;
  const Pin pins[] = {
      {kWeightedCascade, kJump, 1746, 8999895024242204411ULL, 32, 9664,
       2048, 5242782322376685137ULL, 2048},
      {kWeightedCascade, kEdge, 1789, 6773709723461213491ULL, 28, 9613,
       2048, 5242782322376685137ULL, 2048},
      {kTrivalency, kJump, 647, 8978958301330731820ULL, 7, 5879,
       402, 11921343304122251597ULL, 2048},
      {kTrivalency, kEdge, 649, 13174192245799132107ULL, 7, 5917,
       414, 13322155809862583534ULL, 2048},
      {kUniformRandom, kJump, 2131, 16978700617343589304ULL, 201, 11104,
       1803, 8635768246029109164ULL, 2048},
      {kUniformRandom, kEdge, 2131, 16978700617343589304ULL, 201, 11104,
       1803, 8635768246029109164ULL, 2048},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message()
                 << "weighting " << static_cast<int>(pin.weighting) << ", "
                 << SamplingKernelName(pin.kernel));
    const Graph g = TestGraph(1 << 10, pin.weighting);
    BitVector removed(g.num_nodes());
    for (NodeId v = 4; v < g.num_nodes(); v += 5) removed.Set(v);
    const uint32_t alive = g.num_nodes() - g.num_nodes() / 5;
    RRSetGenerator generator(g, DiffusionModel::kLinearThreshold, pin.kernel);
    Rng rng(29);
    std::vector<NodeId> rr;
    uint64_t nodes = 0;
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 500; ++i) {
      generator.Generate(&removed, alive, &rng, &rr);
      nodes += rr.size();
      for (NodeId u : rr) hash = MixHash(hash, u);
    }
    BitVector base(g.num_nodes());
    for (NodeId v = 100; v < 200; ++v) base.Set(v);
    EXPECT_EQ(nodes, pin.walk_nodes);
    EXPECT_EQ(hash, pin.walk_hash);
    EXPECT_EQ(generator.CountCovering(&removed, alive, 2000, 0, &base, &rng),
              pin.count_hits);
    EXPECT_EQ(generator.rng_draws(), pin.walk_draws);

    Rng world_rng(31);
    SamplingStats stats;
    uint64_t live = 0;
    hash = 0xcbf29ce484222325ULL;
    for (int world = 0; world < 2; ++world) {
      const Realization w =
          Realization::Sample(g, &world_rng, DiffusionModel::kLinearThreshold,
                              pin.kernel, &stats);
      live += w.NumLiveEdges();
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (uint32_t j = 0; j < g.OutDegree(u); ++j) {
          if (w.IsLive(u, j)) hash = MixHash(hash, g.OutEdgeIndex(u, j));
        }
      }
    }
    EXPECT_EQ(live, pin.world_live);
    EXPECT_EQ(hash, pin.world_hash);
    EXPECT_EQ(stats.rng_draws, pin.world_draws);
  }
  // In-degree-0 and zero-mass nodes: the jump plans take no draw, the
  // per-edge sweep takes one at every node.
  for (const double p : {0.0, 0.5}) {
    const Graph path = MakePathGraph(5, p);
    for (const SamplingKernel kernel : {kJump, kEdge}) {
      Rng rng(3);
      SamplingStats stats;
      Realization::Sample(path, &rng, DiffusionModel::kLinearThreshold, kernel,
                          &stats);
      EXPECT_EQ(stats.rng_draws, kernel == kEdge ? 5u : (p > 0.0 ? 4u : 0u));
    }
  }
}

// ---- Engine plumbing of the kernel knob.

TEST(KernelKnobTest, NamesAndEngineReporting) {
  EXPECT_STREQ(SamplingKernelName(SamplingKernel::kGeometricJump),
               "geometric-jump");
  EXPECT_STREQ(SamplingKernelName(SamplingKernel::kPerEdge), "per-edge");
  const Graph g = TestGraph(100, Weighting::kWeightedCascade);
  SamplingOptions options;
  options.kernel = SamplingKernel::kPerEdge;
  EXPECT_EQ(CreateSamplingEngine(g, DiffusionModel::kIndependentCascade,
                                 options)
                ->kernel(),
            SamplingKernel::kPerEdge);
}

TEST(KernelKnobTest, HandleRebuildsWhenKernelChanges) {
  const Graph g = TestGraph(100, Weighting::kWeightedCascade);
  SamplingOptions options;
  SamplingEngineHandle handle;
  SamplingEngine* jump =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(jump->kernel(), SamplingKernel::kGeometricJump);
  options.kernel = SamplingKernel::kPerEdge;
  SamplingEngine* per_edge =
      handle.Get(g, DiffusionModel::kIndependentCascade, options);
  EXPECT_EQ(per_edge->kernel(), SamplingKernel::kPerEdge);
  EXPECT_NE(jump, per_edge);
}

}  // namespace
}  // namespace atpm
