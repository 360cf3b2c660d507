// Summary rules for the benchmark's timings.
//
// A timing is reported as its median and the highest rung of the ladder
// p99, p95, p90, p50 that has at least kMinTail samples beyond it: with n
// samples, percentile p leaves n - ceil(n * p / 100) samples above its rank.
// Every workload is sized so that p99 qualifies (n >= 1000); a run where it
// does not fails rather than report a thinner tail under the p99 name.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace mayflower::perfbench {

inline constexpr std::size_t kMinTail = 10;

// Samples strictly beyond percentile `permille` / 10 (990 = p99).
std::size_t samples_beyond(std::size_t n, unsigned permille);

// The highest ladder rung (as permille) with at least kMinTail samples
// beyond it; nullopt when even the median lacks them.
std::optional<unsigned> highest_supported_permille(std::size_t n);

// Linear-interpolated percentile, q in [0, 1]; `values` must be non-empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace mayflower::perfbench
