// Order statistics over repeated measurements.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2e {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Median, quartiles and range of a sample. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (its default "exclusive" method), so a
/// spread computed here equals the one an external checker computes from
/// the same values.
struct Summary {
  double median = kNaN;
  double q1 = kNaN;
  double q3 = kNaN;
  double min = kNaN;
  double max = kNaN;
  std::size_t n = 0;

  /// Interquartile distance as a share of the median.
  double spread() const { return (q3 - q1) / median; }
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&](std::int64_t i) {
    const auto m = static_cast<std::int64_t>(n) + 1;
    const std::int64_t j =
        std::clamp<std::int64_t>(i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const auto k = static_cast<std::size_t>(j);
    return (v[k - 1] * (4 - delta) + v[k] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

inline double median(std::vector<double> v) {
  return summarize(std::move(v)).median;
}

}  // namespace e2e
