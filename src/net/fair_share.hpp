// Max-min fair bandwidth allocation.
//
// Two entry points:
//  * solve_max_min — global progressive filling over an arbitrary set of
//    flows and links; the fluid simulator's ground truth (what TCP would
//    converge to in steady state). MaxMinSolver is the same solve with
//    working arrays the caller keeps across solves.
//  * waterfill_link — single-link max-min with per-flow demands; the
//    primitive the Flowserver's bandwidth model uses per §4.2 ("for each
//    link ... we equally divide the bandwidth across each flow up to the
//    flow's demand while remaining within the link's capacity").
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "net/topology.hpp"

namespace mayflower::net {

inline constexpr double kInfiniteDemand = std::numeric_limits<double>::infinity();

// Rate of a zero-hop transfer (client and replica on the same host), a
// local read through the page cache. The data plane grants it and the
// Flowserver's bandwidth model assumes it, so both default to this value.
inline constexpr double kZeroHopBps = 12e9;

// Relative tolerance the solver uses to decide a link is saturated or a
// demand is met. Exposed so incremental re-solvers (FlowSim's dirty-set
// recompute) apply the exact same criterion when checking whether an
// existing allocation still holds a valid bottleneck certificate.
inline constexpr double kMaxMinEps = 1e-9;

// True when `used` leaves no meaningful headroom on a link of `capacity`
// (matches the freeze criterion inside solve_max_min).
inline bool link_saturated(double used, double capacity) {
  return capacity - used <= kMaxMinEps * capacity + 1e-12;
}

struct FlowDemand {
  std::vector<LinkId> links;          // links traversed (may be empty)
  double demand = kInfiniteDemand;    // bytes/s cap; infinity = elastic
};

// One flow as the solver reads it: the links it traverses, borrowed from
// the caller rather than copied, and its demand.
struct FlowLinks {
  std::span<const LinkId> links;
  double demand = kInfiniteDemand;
};

// Returns per-flow rates (bytes/s), same order as `flows`. `capacity(l)` must
// be valid for every referenced link. Flows with empty link sets receive
// exactly their demand (or +inf demand is an error — the caller must bound
// zero-hop flows).
std::vector<double> solve_max_min(
    const std::vector<FlowDemand>& flows,
    const std::vector<double>& link_capacity);

// solve_max_min over borrowed link lists, with its working arrays kept in
// the solver: a caller that re-solves on every flow change allocates
// nothing once the arrays have grown. Same arithmetic in the same order, so
// the rates are bit-identical to solve_max_min's.
class MaxMinSolver {
 public:
  // Writes per-flow rates into `rate` (resized to flows.size()).
  void solve(std::span<const FlowLinks> flows,
             const std::vector<double>& link_capacity,
             std::vector<double>& rate);

 private:
  std::vector<char> active_;
  std::vector<double> remaining_;
  std::vector<std::size_t> active_count_;
};

// Max-min shares on one link of capacity `capacity` among flows with the
// given demands. Writes per-flow shares into `share`, same order; `order`
// is sort scratch. Both buffers belong to the caller and must have
// demands.size() entries, so a caller that keeps them water-fills without
// allocating.
void waterfill_link(double capacity, std::span<const double> demands,
                    std::span<double> share, std::span<std::size_t> order);

// Convenience form: returns the shares in a fresh vector.
std::vector<double> waterfill_link(double capacity,
                                   const std::vector<double>& demands);

}  // namespace mayflower::net
