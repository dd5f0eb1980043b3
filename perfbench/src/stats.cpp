#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank ceil(q*n), with q*n rounded first so that 0.9 * 100
/// is 90 and not 90.00000000000001.
int64_t nearest_rank(int64_t n, double q) {
  const double qn = std::round(q * static_cast<double>(n) * 1e9) / 1e9;
  return std::max<int64_t>(1, std::min<int64_t>(n, static_cast<int64_t>(std::ceil(qn))));
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const int64_t rank = nearest_rank(static_cast<int64_t>(values.size()), q);
  return values[static_cast<std::size_t>(rank - 1)];
}

int64_t samples_beyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - nearest_rank(n, q);
}

int64_t min_samples_for_tail(double q) {
  int64_t n = 1;
  while (!tail_supported(n, q)) ++n;
  return n;
}

}  // namespace perfbench
