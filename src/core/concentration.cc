#include "core/concentration.h"

#include <cmath>

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

uint64_t HatpKeptSampleSize(double eps, double zeta, double delta,
                            uint32_t round) {
  const double points = 2.0 * static_cast<double>(round) + 1.0;
  return HatpSampleSize(eps, zeta, delta / points);
}

}  // namespace atpm
