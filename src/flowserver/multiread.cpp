#include "flowserver/multiread.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace mayflower::flowserver {

std::vector<SubflowPlan> MultiReadPlanner::plan_readonly(
    net::NetworkView& view, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    const std::vector<sdn::Cookie>& cookies, SelectStats* stats) const {
  MAYFLOWER_ASSERT(cookies.size() >= 2);

  auto best1 = selector_->select(view, client, replicas, request_bytes, stats);
  if (!best1.has_value()) return {};  // every replica currently unreachable

  const double b1 = best1->est_bw_bps;

  // A zero-hop path cannot be beaten by adding a network subflow.
  std::optional<Candidate> best2;
  if (!best1->path.links.empty()) {
    std::vector<net::NodeId> others;
    for (const net::NodeId r : replicas) {
      if (r != best1->replica) others.push_back(r);
    }
    if (!others.empty()) {
      // Subflow 1 lands in the view's tentative scope ("add a temporary
      // flow in path p1 and temporarily update the bandwidth shares",
      // §4.3): round 2 must see its bump, and nothing else must see
      // anything. best2 itself never needs applying: the accept/reject
      // test and the split sizing are pure arithmetic over (b1', b2).
      view.begin_tentative();
      apply_candidate(view, *best1, cookies[0], request_bytes);
      best2 = selector_->select(view, client, others, request_bytes, stats);
      view.rollback_tentative();
    }
  }

  std::vector<SubflowPlan> plans;
  if (best2.has_value() && !best2->path.links.empty()) {
    // Subflow 1's adjusted share if subflow 2 landed. bumped holds at most
    // ONE entry per flow: the path's flow union is deduplicated, and the
    // reduced share already mins over every link the two paths share — a
    // second match would mean the invariant broke, so assert it rather than
    // silently taking the last one.
    double b1_adjusted = b1;
    bool matched = false;
    for (const auto& [cookie, bw] : best2->bumped) {
      if (cookie != cookies[0]) continue;
      MAYFLOWER_ASSERT_MSG(!matched, "subflow 1 bumped twice by one candidate");
      matched = true;
      b1_adjusted = bw;
    }
    const double b2 = best2->est_bw_bps;
    const double combined = b1_adjusted + b2;
    if (combined > b1) {
      const double s1 = request_bytes * b1_adjusted / combined;
      const double s2 = request_bytes - s1;
      plans.resize(2);
      plans[0].candidate = std::move(*best1);
      plans[0].bytes = s1;
      plans[0].planned_bps = b1_adjusted;
      plans[1].candidate = std::move(*best2);
      plans[1].bytes = s2;
      plans[1].planned_bps = b2;
    }
  }

  if (plans.empty()) {
    plans.resize(1);
    plans[0].candidate = std::move(*best1);
    plans[0].bytes = request_bytes;
    plans[0].planned_bps = b1;
  }
  return plans;
}

}  // namespace mayflower::flowserver
