#ifndef FLOOD_COMMON_MATH_UTIL_H_
#define FLOOD_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/macros.h"

namespace flood {

/// Arithmetic mean of `v`; 0 for an empty vector.
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// The q-quantile (q in [0,1]) of a *sorted* vector, via nearest-rank.
template <typename T>
T SortedQuantile(const std::vector<T>& sorted, double q) {
  FLOOD_DCHECK(!sorted.empty());
  FLOOD_DCHECK(q >= 0.0 && q <= 1.0);
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// The q-quantile of an unsorted vector (copies and sorts; use for small
/// vectors such as per-query statistics).
template <typename T>
T Quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, q);
}

/// Clamps x into [lo, hi].
template <typename T>
T Clamp(T x, T lo, T hi) {
  return std::max(lo, std::min(hi, x));
}

/// Number of significant bits in x (0 -> 0).
inline int BitWidth(uint64_t x) {
  int w = 0;
  while (x != 0) {
    ++w;
    x >>= 1;
  }
  return w;
}

/// Integer ceil(a / b) for positive b.
inline int64_t CeilDiv(int64_t a, int64_t b) {
  FLOOD_DCHECK(b > 0);
  return (a + b - 1) / b;
}

/// a + b wrapping like uint64 (no signed-overflow UB), as SUM accumulates.
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace flood

#endif  // FLOOD_COMMON_MATH_UTIL_H_
