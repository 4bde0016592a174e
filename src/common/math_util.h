#ifndef ATPM_COMMON_MATH_UTIL_H_
#define ATPM_COMMON_MATH_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace atpm {

/// Natural log of the binomial coefficient C(n, k), computed via lgamma.
/// Returns 0 for k <= 0 or k >= n. Used by IMM's sample-size bounds.
double LogBinomial(uint64_t n, uint64_t k);

/// ceil(a / b) for positive integers.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Clamps `x` into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Mean of a sample given its sum and count; 0 for empty samples.
double SafeMean(double sum, uint64_t count);

/// Sample standard deviation from raw moments (sum, sum of squares, count);
/// 0 for fewer than two observations. Numerically guarded against tiny
/// negative variances from cancellation.
double SampleStddev(double sum, double sum_sq, uint64_t count);

/// Parses all of `token` as one T (std::from_chars). Whitespace, an empty
/// token, trailing characters and an out-of-range value fail, and so does
/// a sign on an unsigned T. A floating-point T also accepts "nan" and
/// "inf", so callers that need a finite value check for it.
template <typename T>
bool ParseWholeNumber(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace atpm

#endif  // ATPM_COMMON_MATH_UTIL_H_
