#include "core/concentration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace atpm {

double HoeffdingTwoSidedTail(uint64_t theta, double zeta) {
  return 2.0 * std::exp(-2.0 * static_cast<double>(theta) * zeta * zeta);
}

uint64_t HoeffdingSampleSize(double zeta, double delta) {
  ATPM_CHECK(zeta > 0.0 && zeta < 1.0);
  ATPM_CHECK(delta > 0.0 && delta < 1.0);
  return static_cast<uint64_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * zeta * zeta)));
}

uint64_t AddAtpSampleSize(double zeta, double delta) {
  ATPM_CHECK(zeta > 0.0 && zeta < 1.0);
  ATPM_CHECK(delta > 0.0 && delta < 1.0);
  return static_cast<uint64_t>(
      std::ceil(std::log(8.0 / delta) / (2.0 * zeta * zeta)));
}

double RelAddUpperTail(uint64_t theta, double eps, double zeta) {
  const double denom = (1.0 + eps / 3.0) * (1.0 + eps / 3.0);
  return std::exp(-2.0 * static_cast<double>(theta) * eps * zeta / denom);
}

double RelAddLowerTail(uint64_t theta, double eps, double zeta) {
  return std::exp(-2.0 * static_cast<double>(theta) * eps * zeta);
}

uint64_t HatpSampleSize(double eps, double zeta, double delta) {
  ATPM_CHECK(eps > 0.0 && eps < 1.0);
  ATPM_CHECK(zeta > 0.0 && zeta < 1.0);
  ATPM_CHECK(delta > 0.0 && delta < 1.0);
  const double numer = (1.0 + eps / 3.0) * (1.0 + eps / 3.0);
  return static_cast<uint64_t>(
      std::ceil(numer / (2.0 * eps * zeta) * std::log(4.0 / delta)));
}

double BernoulliKl(double p, double q) {
  auto term = [](double a, double b) {
    if (a <= 0.0) return 0.0;
    if (b <= 0.0) return std::numeric_limits<double>::infinity();
    return a * std::log(a / b);
  };
  return term(p, q) + term(1.0 - p, 1.0 - q);
}

namespace {

// Bisects for the edge of {μ : θ KL(mean‖μ) <= log_term} between `inside`
// (where the condition holds) and `outside` (where it fails), and returns
// the last point tested outside — the bound rounded away from the mean.
double KlBoundary(double mean, double inside, double outside, uint64_t theta,
                  double log_term) {
  const double limit = log_term / static_cast<double>(theta);
  for (int i = 0; i < 128; ++i) {
    const double mid = 0.5 * (inside + outside);
    if (mid == inside || mid == outside) break;
    (BernoulliKl(mean, mid) <= limit ? inside : outside) = mid;
  }
  return outside;
}

}  // namespace

double KlUpperBound(double mean, uint64_t theta, double log_term) {
  ATPM_CHECK(theta > 0 && log_term > 0.0);
  mean = std::clamp(mean, 0.0, 1.0);
  if (mean >= 1.0) return 1.0;
  return KlBoundary(mean, mean, 1.0, theta, log_term);
}

double KlLowerBound(double mean, uint64_t theta, double log_term) {
  ATPM_CHECK(theta > 0 && log_term > 0.0);
  mean = std::clamp(mean, 0.0, 1.0);
  if (mean <= 0.0) return 0.0;
  return KlBoundary(mean, mean, 0.0, theta, log_term);
}

double HatpCertifiedZeta(double eps, uint64_t theta, double delta) {
  ATPM_CHECK(eps > 0.0 && theta > 0 && delta > 0.0 && delta < 1.0);
  const double numer = (1.0 + eps / 3.0) * (1.0 + eps / 3.0);
  return std::min(1.0, numer / (2.0 * eps * static_cast<double>(theta)) *
                           std::log(4.0 / delta));
}

KeptCountGrid HatpKeptCountGrid(double eps0, double zeta0, double eps,
                                double zeta_floor, double delta0) {
  // Raising J shrinks δ', which raises θ_J / θ_0 only through ceilings, so
  // the last point index settles within a few steps; stopping at the first
  // J whose own grid needs no more points keeps (last + 1) δ' <= 2 δ_0. A
  // lone point keeps Alg. 4's first-round δ_0, which stays below 1.
  KeptCountGrid grid;
  for (uint32_t points = 1;;) {
    grid.delta = std::min(2.0 * delta0 / static_cast<double>(points), delta0);
    grid.first_theta = HatpSampleSize(eps0, zeta0, grid.delta);
    grid.last_theta = HatpSampleSize(eps, zeta_floor, grid.delta);
    grid.last = 0;
    for (uint64_t theta = grid.first_theta; theta < grid.last_theta;
         theta = KeptCountGrid::Next(theta)) {
      ++grid.last;
    }
    if (grid.last + 1 <= points) return grid;
    points = grid.last + 1;
  }
}

}  // namespace atpm
