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

/// HATP's θ for round i (0-based) of a decision that keeps its counts:
/// HatpSampleSize(ε, ζ, δ / (2i + 1)).
///
/// Why the split. With kept counts, round i estimates from the first θ_i
/// RR sets of the decision's stream X_1, X_2, ...: the kept sets plus one
/// top-up pool per round. Each top-up draws from its own seed, taken from
/// the policy's Rng whatever the samples said, so every X_t is independent
/// of X_1..X_{t−1} wherever a pool boundary falls — the stream is iid. But
/// Tighten picks round i's (ε_i, ζ_i) from earlier estimates, so θ_i is a
/// function of the very samples it reuses, and Lemma 7 does not apply to
/// "the first θ_i sets" directly. It does apply to every FIXED prefix.
/// Each Tighten takes two √2-steps: ε/2, ζ/2, or both /√2. After i rounds
/// ε_i = max(ε_0 2^{−a/2}, ε) and ζ_i = max(ζ_0 2^{−b/2}, 1/n_i) with
/// a + b = 2i (the clamps only merge points), so round i's parameters are
/// one of at most 2i + 1 points fixed before any sampling; δ_i = δ_0 / 2^i
/// and n_i do not depend on the samples. Sizing each point's prefix with
/// δ_i / (2i + 1) bounds each of its four one-sided tails (front and rear,
/// upper and lower) by δ_i / (4(2i + 1)). The union over the points and
/// tails bounds round i's failure by δ_i, whichever point the data picks,
/// and the union over rounds gives the same Σ δ_i <= 2 δ_0 per decision as
/// fresh pools. ADDATP's schedule (ζ/√2 and δ/2 every round) reaches one
/// point per round, so its θ needs no split. A round served from a
/// speculative answer is not part of the stream: the counts start at the
/// first sampled round.
uint64_t HatpKeptSampleSize(double eps, double zeta, double delta,
                            uint32_t round);

}  // namespace atpm

#endif  // ATPM_CORE_CONCENTRATION_H_
