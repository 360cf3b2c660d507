// Multi-replica parallel reads (§4.3).
//
// A read job is split into two subflows only when the combined estimated
// share beats the single best flow:
//   1. pick (replica, path) p1 greedily; tentatively add it to the view,
//   2. pick p2 from the *remaining* replicas (distinct replica avoids the
//      same server-side bottleneck),
//   3. p2's selection may have bumped subflow 1 to b1'; accept the split iff
//      b1' + b2 > b1, sizing S_i = d * b_i / (b1' + b2) so both subflows
//      finish together; otherwise keep the single read.
//
// Planning only reads: both selection rounds run against one NetworkView,
// round 2 seeing subflow 1 through the view's tentative scope, which is
// rolled back before the plan returns. The Flowserver then commits the plan
// to the table and the view (Flowserver::decide_batch), so a rejected
// subflow 2 never reaches the table or the flow tracer.
#pragma once

#include <vector>

#include "flowserver/selector.hpp"

namespace mayflower::flowserver {

struct SubflowPlan {
  Candidate candidate;
  double bytes = 0.0;        // portion of the request read via this subflow
  double planned_bps = 0.0;   // share the split sizing assumed
};

// Plans one read request. Returns 1 entry (single read) or 2 (split read).
class MultiReadPlanner {
 public:
  explicit MultiReadPlanner(const ReplicaPathSelector& selector)
      : selector_(&selector) {}

  // Plans against `view` and leaves it exactly as found: subflow 1 is tried
  // inside a view tentative scope that is rolled back before returning.
  // Touches no table and no live state, so workers may plan concurrently,
  // each on its own copy of the batch view. `cookies` must provide at least
  // 2 ids: the first names subflow 1 inside the scope, so subflow 2's
  // candidate reports its bump. `stats` (optional) accumulates candidates
  // across both selection rounds.
  std::vector<SubflowPlan> plan_readonly(
      net::NetworkView& view, net::NodeId client,
      const std::vector<net::NodeId>& replicas, double request_bytes,
      const std::vector<sdn::Cookie>& cookies,
      SelectStats* stats = nullptr) const;

 private:
  const ReplicaPathSelector* selector_;
};

}  // namespace mayflower::flowserver
