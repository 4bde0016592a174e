// Tests for the weight-class-aware geometric-jump RR-generation kernel:
// weight classification, the geometric-scan primitive (chi-square), exact
// per-edge equivalence on degenerate probabilities, ±3σ statistical
// agreement across weightings x models x backends, kPerEdge bit-compat
// against golden values recorded from the pre-kernel tree, the depleted-
// graph alive-root cache, and the rng_draws accounting behind the
// draws-per-edge reduction.
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
    // jump view matches the original multiset of (neighbor, prob) pairs.
    const auto segs = g.InProbSegments(v);
    const auto arcs = g.JumpInArcs(v);
    const auto slots = g.JumpInSlots(v);
    ASSERT_EQ(arcs.size(), g.InDegree(v));
    ASSERT_EQ(slots.size(), g.InDegree(v));
    uint32_t total = 0;
    uint32_t base = 0;
    float prev = 2.0f;
    for (const ProbSegment& seg : segs) {
      EXPECT_LT(seg.prob, prev);
      prev = seg.prob;
      for (uint32_t j = 0; j < seg.length; ++j) {
        EXPECT_EQ(arcs[base + j].prob, seg.prob);
        EXPECT_EQ(g.InProbs(v)[slots[base + j]], seg.prob);
        EXPECT_EQ(g.InNeighbors(v)[slots[base + j]], arcs[base + j].src);
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
    EXPECT_TRUE(g.JumpInArcs(v).empty());
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
  const WeightClassProfile profile = oracle.InWeightClassProfile();
  EXPECT_EQ(profile.total_edges, g.num_edges());
  EXPECT_GT(profile.JumpableEdgeFraction(), 0.7);
  EXPECT_EQ(engine.kernel(), SamplingKernel::kGeometricJump);
}

// ---- The geometric-scan primitive.

// A jump segment as RebuildInWeightIndex would emit it: log factor plus
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
// kPerEdge knob must reproduce them exactly — RNG stream and all.

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

TEST(PerEdgeGoldenTest, SerialIcCountMatchesPreKernelTree) {
  const Graph g = GoldenWcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  Rng rng(5);
  SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                              SamplingKernel::kPerEdge);
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 20000,
                     rng.Next()),
            314u);
}

TEST(PerEdgeGoldenTest, SerialIcPoolMatchesPreKernelTree) {
  const Graph g = GoldenWcGraph();
  Rng rng(77);
  SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                              SamplingKernel::kPerEdge);
  const RRCollection& pool =
      FillPool(engine, nullptr, g.num_nodes(), 2000, &rng);
  EXPECT_EQ(pool.total_nodes(), 11288u);
  EXPECT_EQ(PoolHash(pool), 8984351673573768080ull);
}

TEST(PerEdgeGoldenTest, SerialLtCountAndPoolMatchPreKernelTree) {
  const Graph g = GoldenWcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  {
    Rng rng(5);
    SerialSamplingEngine engine(g, DiffusionModel::kLinearThreshold,
                                SamplingKernel::kPerEdge);
    EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 20000,
                       rng.Next()),
              526u);
  }
  {
    Rng rng(77);
    SerialSamplingEngine engine(g, DiffusionModel::kLinearThreshold,
                                SamplingKernel::kPerEdge);
    const RRCollection& pool =
        FillPool(engine, nullptr, g.num_nodes(), 1000, &rng);
    EXPECT_EQ(PoolHash(pool), 1754442299263415209ull);
  }
}

TEST(PerEdgeGoldenTest, SerialIcTrivalencyCountMatchesPreKernelTree) {
  const Graph g = TestGraph(300, Weighting::kTrivalency);
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  Rng rng(5);
  SerialSamplingEngine engine(g, DiffusionModel::kIndependentCascade,
                              SamplingKernel::kPerEdge);
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 20000,
                     rng.Next()),
            146u);
}

TEST(PerEdgeGoldenTest, ParallelSeededCountMatchesPreKernelTree) {
  const Graph g = GoldenWcGraph();
  BitVector base(g.num_nodes());
  for (NodeId v = 10; v < 30; ++v) base.Set(v);
  ParallelSamplingEngine engine(g, DiffusionModel::kIndependentCascade, 4,
                                4096, SamplingKernel::kPerEdge);
  EXPECT_EQ(CountOne(engine, 0, &base, nullptr, g.num_nodes(), 60000, 42),
            997u);
}

TEST(PerEdgeGoldenTest, HatpDecisionSequenceMatchesPreKernelTree) {
  // The acceptance bar: kernel = kPerEdge reproduces a pre-kernel HATP run
  // — decision-for-decision and RR-set-for-RR-set — on the pipelining-test
  // instance (BA n=300 epn=2, top-10 targets, serial engine, world seed
  // 42, policy seed 1).
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
  EXPECT_EQ(run.value().seeds, (std::vector<NodeId>{2, 7, 18, 17, 9}));
  EXPECT_EQ(run.value().total_rr_sets, 780520u);
  EXPECT_NEAR(run.value().realized_profit, 17.745389, 1e-4);
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
