#ifndef ATPM_CORE_CONCENTRATION_H_
#define ATPM_CORE_CONCENTRATION_H_

#include <cstdint>

namespace atpm {

/// Concentration machinery behind ADDATP and HATP. All quantities are in
/// *normalized* units: an RR-coverage estimator averages indicators
/// X_j in [0, 1], so a fractional error ζ corresponds to an absolute spread
/// error of n_i * ζ on a residual graph with n_i alive nodes.

/// Two-sided Hoeffding tail (Lemma 4): Pr[|X̄ - μ| >= ζ] <= 2 exp(-2 θ ζ²).
double HoeffdingTwoSidedTail(uint64_t theta, double zeta);

/// Samples needed so the two-sided Hoeffding tail is <= delta:
/// θ = ln(2/δ) / (2 ζ²). ADDATP (Alg 3, Line 8) uses θ = ln(8/δ)/(2ζ²),
/// which buys a union bound over the four one-sided events of one round;
/// that exact form is AddAtpSampleSize.
uint64_t HoeffdingSampleSize(double zeta, double delta);

/// θ = ceil( ln(8/δ) / (2 ζ²) ) — ADDATP's per-round pool size.
uint64_t AddAtpSampleSize(double zeta, double delta);

/// Upper tail of the Relative+Additive bound (Lemma 7, Eq. 10):
/// Pr[X̄ >= (1+ε)μ + ζ] <= exp( -2 θ ε ζ / (1+ε/3)² ).
double RelAddUpperTail(uint64_t theta, double eps, double zeta);

/// Lower tail of the Relative+Additive bound (Lemma 7, Eq. 11):
/// Pr[X̄ <= (1-ε)μ - ζ] <= exp( -2 θ ε ζ ).
double RelAddLowerTail(uint64_t theta, double eps, double zeta);

/// θ = ceil( (1+ε/3)² / (2 ε ζ) * ln(4/δ) ) — HATP's per-round pool size
/// (Alg 4, Line 8): both tails are <= δ/4 at this θ.
uint64_t HatpSampleSize(double eps, double zeta, double delta);

/// Bernoulli Kullback–Leibler divergence KL(p‖q) = p ln(p/q) +
/// (1−p) ln((1−p)/(1−q)), with 0 ln 0 = 0; +inf when q ∈ {0, 1} ≠ p.
double BernoulliKl(double p, double q);

/// Chernoff–KL upper confidence bound on a Bernoulli mean from the average
/// `mean` of `theta` iid samples: max{μ ≥ mean : θ KL(mean‖μ) <= log_term}.
/// For every fixed μ and θ, Pr[KlUpperBound(X̄) < μ] <= exp(−log_term)
/// (Chernoff: Pr[X̄ <= x] <= exp(−θ KL(x‖μ)) for x <= μ). The bisection
/// rounds outward, so the returned bound is never tighter than the exact
/// one. KlUpperBound(1, ·, ·) = 1: the interval has no width above 1.
double KlUpperBound(double mean, uint64_t theta, double log_term);

/// The matching lower bound min{μ <= mean : θ KL(mean‖μ) <= log_term};
/// Pr[KlLowerBound(X̄) > μ] <= exp(−log_term). KlLowerBound(0, ·, ·) = 0.
double KlLowerBound(double mean, uint64_t theta, double log_term);

/// The (ε, ζ) pair Lemma 7 certifies at θ samples and failure δ when ε is
/// held fixed: the ζ at which HatpSampleSize(ε, ζ, δ) would be θ, capped
/// at 1 (an additive error of every node).
double HatpCertifiedZeta(double eps, uint64_t theta, double delta);

/// The check grid of one HATP / HNTP decision that keeps its counts
/// (batched rounds), fixed before any of the decision's samples are drawn.
///
/// Point 0 draws θ_0 = HatpSampleSize(ε_0, ζ_0, δ'), each later point below
/// the last steps by a quarter, θ_{j+1} = θ_j + ⌈θ_j / 4⌉, and the last
/// point J draws θ_J = HatpSampleSize(ε, ζ_floor, δ'), J being the smallest
/// j at which these steps from θ_0 reach θ_J; so θ_j grows strictly. A
/// decision that could stop at θ* draws at most about 5/4 θ* (a doubling
/// grid would draw up to 2 θ*), and pays log_{5/4} rather than log_2
/// points in the union bound below, which raises θ_J only by the log of
/// the point count. The points share the decision's budget 2 δ_0
/// (Σ_i δ_0 / 2^i of Alg. 4) equally: δ' = 2 δ_0 / (J + 1) (δ_0 when
/// J = 0, so that δ' < 1 whenever Alg. 4's own δ_0 is). J and δ' depend
/// on each other; J is their fixed point (should ceilings ever make it step back, the grid
/// keeps the smaller δ' of the larger J, so (J + 1) δ' <= 2 δ_0 holds).
///
/// Soundness. Round j estimates the front and rear coverage fractions from
/// the first θ_j sets of the decision's stream X_1, X_2, ...: the kept sets
/// plus one top-up pool per round. Each top-up draws from its own seed,
/// taken from the policy's Rng whatever the samples said, so every X_t is
/// independent of X_1..X_{t−1} wherever a pool boundary falls — the stream
/// is iid, and the grid's θ_j depend only on (ε_0, ζ_0, ε, n_i, δ_0), never
/// on the samples. At point j each fraction gets the two-sided interval
/// [KlLowerBound, KlUpperBound] at log_term = ln(4/δ'); by the one-sided
/// Chernoff–KL bound each of the four tails (front and rear, upper and
/// lower) misses its mean with probability <= δ'/4 at that FIXED θ_j. The
/// union over the four tails and the J + 1 points bounds the probability
/// that ANY point's interval misses by (J + 1) δ' <= 2 δ_0 — so it holds at
/// whichever point the data make the decision stop, the same per-decision
/// budget as Alg. 4's fresh pools.
///
/// The floor. KL dominates Lemma 7's exponents: for x = (1+ε)μ + ζ <= 1,
/// KL(x‖μ) >= 2εζ / (1+ε/3)², and for x = (1−ε)μ − ζ >= 0,
/// KL(x‖μ) >= 2εζ (the lower one is (εμ − ζ)² >= 0 after
/// KL(x‖μ) >= (μ − x)² / (2μ); both are checked on a grid in
/// concentration_test). So at any θ >= HatpSampleSize(ε, ζ, δ') the KL
/// interval of every X̄ lies inside Lemma 7's band
/// [(X̄ − ζ)/(1+ε), (X̄ + ζ)/(1−ε)]: θ KL reaches ln(4/δ') at the band's
/// edges. θ_J is that θ for (ε, ζ_floor), so C'2 may fire at the last point
/// without a check; earlier points fire it once both intervals lie inside
/// that band at (ε, ζ_floor). Either way the intervals certify the floors'
/// (ε relative, one node additive) guarantee.
///
/// A round served from a speculative answer is not part of the stream —
/// the counts start at the first sampled round — and is tested at its
/// grid θ_j, which its (>= θ_j) pool covers conservatively. ADDATP's
/// schedule (ζ/√2 and δ/2 every round) does not depend on the data, so its
/// kept counts need no grid.
struct KeptCountGrid {
  /// θ_0.
  uint64_t first_theta = 0;
  /// θ_J.
  uint64_t last_theta = 0;
  /// J, the index of the last point.
  uint32_t last = 0;
  /// δ', each point's share of the decision's failure budget.
  double delta = 0.0;

  /// The step between points below the last: θ + ⌈θ / 4⌉.
  static uint64_t Next(uint64_t theta) { return theta + (theta + 3) / 4; }

  /// RR sets point j draws (j <= last).
  uint64_t Theta(uint32_t j) const {
    if (j >= last) return last_theta;
    uint64_t theta = first_theta;
    for (uint32_t i = 0; i < j; ++i) theta = Next(theta);
    return theta;
  }
};

/// The grid of a decision with initial errors (ε_0, ζ_0), floors
/// (ε, ζ_floor) and per-round budget δ_0 (Alg. 4's δ_0 = 1/(k n)).
KeptCountGrid HatpKeptCountGrid(double eps0, double zeta0, double eps,
                                double zeta_floor, double delta0);

}  // namespace atpm

#endif  // ATPM_CORE_CONCENTRATION_H_
