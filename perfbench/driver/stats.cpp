#include "stats.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace mayflower::perfbench {

std::size_t samples_beyond(std::size_t n, unsigned permille) {
  MAYFLOWER_ASSERT(permille <= 1000);
  const std::size_t at_or_below = (n * permille + 999) / 1000;
  return n - at_or_below;
}

std::optional<unsigned> highest_supported_permille(std::size_t n) {
  for (const unsigned p : {990u, 950u, 900u, 500u}) {
    if (samples_beyond(n, p) >= kMinTail) return p;
  }
  return std::nullopt;
}

double percentile(std::vector<double> values, double q) {
  MAYFLOWER_ASSERT(!values.empty());
  std::sort(values.begin(), values.end());
  return mayflower::percentile_sorted(values, q);
}

}  // namespace mayflower::perfbench
