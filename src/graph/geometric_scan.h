#ifndef ATPM_GRAPH_GEOMETRIC_SCAN_H_
#define ATPM_GRAPH_GEOMETRIC_SCAN_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "graph/graph.h"

namespace atpm {

/// A position in a run of jump segments: local index `index` of segment
/// `segment`, whose first edge has global index `segment_base`. As a walk
/// result, `found` tells whether a success lands before the run's end
/// (not-found results sit at the run end with index 0).
struct LedgerPosition {
  size_t segment = 0;
  uint32_t index = 0;
  uint32_t segment_base = 0;
  bool found = false;

  bool operator==(const LedgerPosition&) const = default;
};

/// The log-survival ledger walk: the first success at or after `from` in
/// the jump run [from.segment, run_end) for the survival threshold
/// `target` = log(1 - U) <= 0, i.e. the first position where the
/// cumulative log-survival mass of the remaining run crosses `target`.
/// Pure: the result depends only on the segments, `from` and `target`, and
/// it is monotone in `target` — a lower target never lands earlier (the
/// partial sums do not depend on `target`, and the rounded subtraction,
/// division and truncation are all monotone). GeometricSegmentScan relies
/// on that to resolve most draws from a cheap bracketing of the log.
///
/// Forced inline, like NextLedgerSuccess: as out-of-line calls returning
/// through memory, the two-ended walk costs about what the libm log saves.
[[gnu::always_inline]] inline LedgerPosition WalkLogSurvivalLedger(
    std::span<const ProbSegment> segments, size_t run_end,
    LedgerPosition from, double target) {
  size_t cs = from.segment;
  uint32_t cj = from.index;
  uint32_t seg_base = from.segment_base;
  double cum = 0.0;
  while (cs < run_end) {
    const ProbSegment& cur = segments[cs];
    const uint32_t remaining = cur.length - cj;
    const double seg_mass =
        static_cast<double>(remaining) * cur.log1p_neg;  // <= 0
    if (cum + seg_mass <= target) {
      uint32_t k = static_cast<uint32_t>((target - cum) / cur.log1p_neg);
      if (k >= remaining) k = remaining - 1;  // FP boundary clamp
      return LedgerPosition{cs, cj + k, seg_base, true};
    }
    cum += seg_mass;
    seg_base += cur.length;
    ++cs;
    cj = 0;
  }
  return LedgerPosition{run_end, 0, seg_base, false};
}

namespace scan_internal {

/// (1/c, log c) at the midpoints c = 1 + (i + 1/2)/128 of the 128 equal
/// bins of [1, 2), computed at compile time (log via its atanh series).
struct LogBin {
  double inv_c;
  double log_c;
};

constexpr double SeriesLog(double c) {
  const double z = (c - 1.0) / (c + 1.0);  // |z| <= 1/3 on [1, 2]
  const double z2 = z * z;
  double term = z;
  double sum = 0.0;
  for (int k = 0; k < 40; ++k) {
    sum += term / (2 * k + 1);
    term *= z2;
  }
  return 2.0 * sum;
}

inline constexpr std::array<LogBin, 128> kLogBins = [] {
  std::array<LogBin, 128> bins{};
  for (int i = 0; i < 128; ++i) {
    const double c = 1.0 + (i + 0.5) / 128.0;
    bins[i] = LogBin{1.0 / c, SeriesLog(c)};
  }
  return bins;
}();

}  // namespace scan_internal

/// Table approximation of log1p(-u) for a draw u of Rng::UniformDouble
/// (u = m·2^-53, so 1 - u is exact and normal). Splits 1 - u into
/// 2^e · f, takes the bin of f's top 7 mantissa bits, and evaluates
/// log1p(r), r = f/c - 1 with |r| <= 2^-8, by its quartic: the truncation
/// error is at most 2^-40/5 ≈ 1.8e-13, well inside LogGuardBand.
inline double TableLog1pNeg(double u) {
  const uint64_t bits = std::bit_cast<uint64_t>(1.0 - u);
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  const scan_internal::LogBin& bin =
      scan_internal::kLogBins[(bits >> 45) & 127];
  const double f = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                         0x3FF0000000000000ULL);
  const double r = f * bin.inv_c - 1.0;
  const double log1p_r = r - r * r * (0.5 - r * (1.0 / 3.0 - r * 0.25));
  return exponent * 0.6931471805599453 + (bin.log_c + log1p_r);
}

/// Half-width of the bracket around TableLog1pNeg(u) that is guaranteed to
/// hold std::log1p(-u): |t|·2^-30 + 2^-36, at least 80x the table log's
/// worst error (pinned by rr_kernel_test).
inline double LogGuardBand(double approx) {
  return std::abs(approx) * 0x1p-30 + 0x1p-36;
}

/// The ledger walk for the draw `u`, bit-identical to walking at
/// std::log1p(-u). The walk runs at both ends of the guard band around the
/// table log; by monotonicity, agreeing ends pin the exact outcome. Only a
/// band straddling an index boundary pays the libm log1p.
[[gnu::always_inline]] inline LedgerPosition NextLedgerSuccess(
    std::span<const ProbSegment> segments, size_t run_end, LedgerPosition from,
    double u) {
  const double approx = TableLog1pNeg(u);
  const double band = LogGuardBand(approx);
  const LedgerPosition late =
      WalkLogSurvivalLedger(segments, run_end, from, approx - band);
  // log1p(-u) <= 0, so the upper end never needs to exceed 0.
  const LedgerPosition early = WalkLogSurvivalLedger(
      segments, run_end, from, std::min(approx + band, 0.0));
  if (late == early) return late;
  return WalkLogSurvivalLedger(segments, run_end, from, std::log1p(-u));
}

/// True iff `u >= seg.run_any_prob` proves that no success remains after a
/// position strictly inside `seg` (local index > 0), in a run whose
/// remaining part spans `run_segments` segments. run_any_prob covers the
/// whole suffix from seg's start, which holds at least one more edge of
/// mass |log1p_neg| than the remaining part; the test is exact when that
/// margin beats the rounding of run_any_prob (as FillRunAnyProb computes
/// it, <= 2^-33 in log space while 1 - run_any_prob >= 2^-20) and of the
/// two ledger sums (about 2^-33 each over at most 2^16 segments).
inline bool MidRunNoSuccess(const ProbSegment& seg, size_t run_segments,
                            double u) {
  return seg.run_any_prob > 0.0 && u >= seg.run_any_prob &&
         seg.run_any_prob <= 1.0 - 0x1p-20 && seg.log1p_neg <= -0x1p-30 &&
         run_segments <= (size_t{1} << 16);
}

/// Samples independent Bernoulli(prob) trials over a node's jump-ordered
/// segment view: visit(i) is called for every successful global index i
/// (the position in the concatenation of all segments), in order.
///
/// Maximal runs of jump-enabled segments (log1p_neg != 0) are sampled with
/// a cross-segment geometric walk: each uniform draw U is turned into the
/// position of the run's next success by walking the per-segment
/// log-survival ledger until the cumulative mass crosses log1p(-U) — one
/// draw per success for the WHOLE run, and the common no-success case
/// resolved by the same single draw (the ledger never crosses the
/// threshold, so no edge is touched). This is exact inverse-CDF sampling
/// of the next-success index across heterogeneous probabilities, which is
/// what lets a trivalency node's three probability classes share one draw
/// instead of paying one geometric terminal each.
///
/// The log is rarely paid in full: a draw at or past run_any_prob ends the
/// run with one compare (at a segment boundary, and mid-segment whenever
/// MidRunNoSuccess proves it), and every other draw walks the ledger at
/// both ends of a guard band around a table log (NextLedgerSuccess),
/// falling back to std::log1p only when the ends disagree. The outcome is
/// bit-identical to walking at std::log1p(-U) for every draw.
///
/// Degenerate segments are drawless (p <= 0 never fires, p >= 1 fires
/// every index — exactly matching a per-trial Bernoulli loop, which is
/// what makes the jump kernels *exactly* equivalent to per-edge sampling
/// on {0, 1} edges), and gate-rejected segments (log1p_neg == 0, where the
/// log would cost more than it saves) fall back to one Bernoulli per edge.
///
/// `*draws` accumulates the uniform draws consumed (the SamplingStats
/// rng_draws measure). Returns false iff a visit callback aborted the
/// scan.
template <typename Visit>
bool GeometricSegmentScan(std::span<const ProbSegment> segments, Rng* rng,
                          uint64_t* draws, Visit&& visit) {
  const size_t num_segments = segments.size();
  uint32_t base = 0;  // global index where segments[s] starts
  size_t s = 0;
  while (s < num_segments) {
    const ProbSegment& seg = segments[s];
    if (seg.log1p_neg == 0.0) {
      if (seg.prob >= 1.0f) {  // everything fires, no draws
        for (uint32_t j = 0; j < seg.length; ++j) {
          if (!visit(base + j)) return false;
        }
      } else if (seg.prob > 0.0f) {  // gated: linear Bernoulli scan
        for (uint32_t j = 0; j < seg.length; ++j) {
          ++*draws;
          if (rng->Bernoulli(seg.prob) && !visit(base + j)) return false;
        }
      }  // p <= 0: nothing ever fires, no draws
      base += seg.length;
      ++s;
      continue;
    }

    // Maximal run of jump segments [s, e).
    size_t e = s;
    uint32_t run_length = 0;
    while (e < num_segments && segments[e].log1p_neg != 0.0) {
      run_length += segments[e].length;
      ++e;
    }
    LedgerPosition pos{s, 0, base, true};
    while (pos.segment < e) {  // else a success consumed the run's last edge
      ++*draws;
      const double u = rng->UniformDouble();
      const ProbSegment& cur = segments[pos.segment];
      // At a segment boundary the remaining suffix is exactly what the
      // precomputed run_any_prob covers: U >= P(any success) resolves the
      // common nothing-fires case with one compare and no log, coupled to
      // the same U the ledger walk would consume. Inside a segment the
      // suffix is lighter, and MidRunNoSuccess decides when the same
      // compare is still exact.
      if (pos.index == 0 ? cur.run_any_prob > 0.0 && u >= cur.run_any_prob
                         : MidRunNoSuccess(cur, e - pos.segment, u)) {
        break;
      }
      pos = NextLedgerSuccess(segments, e, pos, u);
      if (!pos.found) break;  // no further success in the run
      if (!visit(pos.segment_base + pos.index)) return false;
      if (++pos.index >= segments[pos.segment].length) {
        pos.segment_base += segments[pos.segment].length;
        ++pos.segment;
        pos.index = 0;
      }
    }
    base += run_length;
    s = e;
  }
  return true;
}

}  // namespace atpm

#endif  // ATPM_GRAPH_GEOMETRIC_SCAN_H_
