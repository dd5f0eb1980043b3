#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (copied and sorted): the smallest
/// sample with at least q*n samples at or below it. 0 for an empty set.
double percentile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Samples strictly ranked beyond the nearest-rank q-percentile of n
/// samples: n - ceil(q*n).
int64_t samples_beyond(int64_t n, double q);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one slow sample cannot be the whole tail.
constexpr int64_t kMinTailSamples = 10;

/// True when the q-percentile of n samples has kMinTailSamples beyond it
/// (for p90 that is n >= 100).
inline bool tail_supported(int64_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

/// Smallest sample count whose q-percentile satisfies tail_supported.
int64_t min_samples_for_tail(double q);

}  // namespace perfbench
