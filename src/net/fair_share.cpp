#include "net/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mayflower::net {
namespace {

constexpr double kEps = kMaxMinEps;

}  // namespace

std::vector<double> solve_max_min(const std::vector<FlowDemand>& flows,
                                  const std::vector<double>& link_capacity) {
  std::vector<FlowLinks> borrowed;
  borrowed.reserve(flows.size());
  for (const FlowDemand& f : flows) borrowed.push_back({f.links, f.demand});
  std::vector<double> rate;
  MaxMinSolver().solve(borrowed, link_capacity, rate);
  return rate;
}

void MaxMinSolver::solve(std::span<const FlowLinks> flows,
                         const std::vector<double>& link_capacity,
                         std::vector<double>& rate) {
  const std::size_t n = flows.size();
  rate.assign(n, 0.0);
  active_.assign(n, 0);

  // Only links some flow traverses are ever read, so only those are reset:
  // a solve costs O(its flows' links), not O(every link in the topology).
  remaining_.resize(link_capacity.size());
  active_count_.resize(link_capacity.size());
  for (const FlowLinks& f : flows) {
    for (const LinkId l : f.links) {
      MAYFLOWER_ASSERT(l < link_capacity.size());
      remaining_[l] = link_capacity[l];
      active_count_[l] = 0;
    }
  }

  std::size_t n_active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowLinks& f = flows[i];
    if (f.links.empty()) {
      MAYFLOWER_ASSERT_MSG(std::isfinite(f.demand),
                           "zero-hop flows must have a finite demand");
      rate[i] = f.demand;
      continue;
    }
    if (f.demand <= 0.0) continue;
    active_[i] = 1;
    ++n_active;
    for (const LinkId l : f.links) ++active_count_[l];
  }

  // Progressive filling: raise all active flows' rates in lockstep; freeze a
  // flow when its demand is met or any of its links saturates.
  while (n_active > 0) {
    // Largest uniform increment allowed by links and demands.
    double inc = kInfiniteDemand;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      if (std::isfinite(flows[i].demand)) {
        inc = std::min(inc, flows[i].demand - rate[i]);
      }
      for (const LinkId l : flows[i].links) {
        inc = std::min(inc,
                       remaining_[l] / static_cast<double>(active_count_[l]));
      }
    }
    MAYFLOWER_ASSERT_MSG(std::isfinite(inc),
                         "active flow with no binding constraint");
    inc = std::max(inc, 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      rate[i] += inc;
      for (const LinkId l : flows[i].links) {
        remaining_[l] -= inc;
      }
    }

    // Freeze: demand met, or traverses a saturated link.
    for (std::size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      bool freeze = std::isfinite(flows[i].demand) &&
                    rate[i] >= flows[i].demand - kEps;
      if (!freeze) {
        for (const LinkId l : flows[i].links) {
          if (remaining_[l] <= kEps * link_capacity[l] + 1e-12) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        active_[i] = 0;
        --n_active;
        for (const LinkId l : flows[i].links) {
          --active_count_[l];
        }
      }
    }
  }
}

void waterfill_link(double capacity, std::span<const double> demands,
                    std::span<double> share, std::span<std::size_t> order) {
  MAYFLOWER_ASSERT(capacity >= 0.0);
  MAYFLOWER_ASSERT(share.size() == demands.size() &&
                   order.size() == demands.size());
  const std::size_t n = demands.size();
  if (n == 0) return;

  // Process demands ascending; each unsatisfied flow gets an equal split of
  // what remains, capped by its demand.
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a] < demands[b];
  });

  double remaining = capacity;
  std::size_t left = n;
  for (const std::size_t i : order) {
    const double equal = remaining / static_cast<double>(left);
    const double give = std::min(demands[i], equal);
    share[i] = std::max(give, 0.0);
    remaining -= share[i];
    --left;
  }
}

std::vector<double> waterfill_link(double capacity,
                                   const std::vector<double>& demands) {
  std::vector<double> share(demands.size(), 0.0);
  std::vector<std::size_t> order(demands.size());
  waterfill_link(capacity, demands, share, order);
  return share;
}

}  // namespace mayflower::net
