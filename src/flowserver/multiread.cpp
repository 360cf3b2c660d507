#include "flowserver/multiread.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mayflower::flowserver {

std::vector<SubflowPlan> MultiReadPlanner::plan_and_commit(
    net::NetworkView& view, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    const std::vector<sdn::Cookie>& cookies, sim::SimTime now,
    SelectStats* stats) {
  MAYFLOWER_ASSERT(cookies.size() >= 2);

  auto best1 = selector_->select(view, client, replicas, request_bytes,
                                 stats);
  if (!best1.has_value()) return {};  // every replica currently unreachable

  // Commit subflow 1 with the full request size; in the single-read outcome
  // this is exactly the final state ("add a temporary flow in path p1 and
  // temporarily update the bandwidth shares", §4.3).
  selector_->commit(view, *best1, cookies[0], request_bytes, now);
  const double b1 = best1->est_bw_bps;

  // A zero-hop path cannot be beaten by adding a network subflow.
  if (!best1->path.links.empty()) {
    std::vector<net::NodeId> others;
    for (const net::NodeId r : replicas) {
      if (r != best1->replica) others.push_back(r);
    }
    if (!others.empty()) {
      const auto best2 =
          selector_->select(view, client, others, request_bytes, stats);
      if (best2.has_value() && !best2->path.links.empty()) {
        // Tentatively commit subflow 2 (it may bump subflow 1 on shared
        // links). The undo logs — table and view in lockstep — record only
        // the entries this commit touches, so an unprofitable split rolls
        // back in O(touched).
        selector_->begin_tentative(view);
        selector_->commit(view, *best2, cookies[1], request_bytes, now);
        // Subflow 1's adjusted share after subflow 2 lands. bumped holds at
        // most ONE entry per flow: the path's flow union is deduplicated,
        // and the reduced share already mins over every link the two paths
        // share — a second match would mean the invariant broke and the
        // shares diverged, so assert it rather than silently taking the
        // last one.
        double b1_adjusted = b1;
        bool matched = false;
        for (const auto& [cookie, bw] : best2->bumped) {
          if (cookie != cookies[0]) continue;
          MAYFLOWER_ASSERT_MSG(!matched,
                               "subflow 1 bumped twice by one candidate");
          matched = true;
          b1_adjusted = bw;
        }
        const double b2 = best2->est_bw_bps;
        const double combined = b1_adjusted + b2;
        if (combined > b1) {
          selector_->commit_tentative(view);
          const double s1 = request_bytes * b1_adjusted / combined;
          const double s2 = request_bytes - s1;
          selector_->setbw(view, cookies[0], b1_adjusted, now);
          selector_->resize(view, cookies[0], s1, now);
          selector_->resize(view, cookies[1], s2, now);

          std::vector<SubflowPlan> plans(2);
          plans[0].candidate = std::move(*best1);
          plans[0].bytes = s1;
          plans[0].planned_bps = b1_adjusted;
          plans[1].candidate = std::move(*best2);
          plans[1].bytes = s2;
          plans[1].planned_bps = b2;
          return plans;
        }
        // Rejected: undo subflow 2's registration and every share it bumped;
        // table and view are back to the single-read outcome.
        selector_->rollback_tentative(view);
      }
    }
  }

  std::vector<SubflowPlan> plans(1);
  plans[0].candidate = std::move(*best1);
  plans[0].bytes = request_bytes;
  plans[0].planned_bps = b1;
  return plans;
}

std::vector<SubflowPlan> MultiReadPlanner::plan_readonly(
    net::NetworkView& scratch, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    const std::vector<sdn::Cookie>& cookies, SelectStats* stats) const {
  MAYFLOWER_ASSERT(cookies.size() >= 2);

  auto best1 =
      selector_->select(scratch, client, replicas, request_bytes, stats);
  if (!best1.has_value()) return {};

  std::vector<SubflowPlan> plans;
  const double b1 = best1->est_bw_bps;

  // Same decision procedure as plan_and_commit, but every mutation lands in
  // the scratch view's tentative scope and is rolled back before returning:
  // round 2 must see subflow 1's bump, and nothing else must see anything.
  scratch.begin_tentative();
  apply_candidate(scratch, *best1, cookies[0], request_bytes);

  if (!best1->path.links.empty()) {
    std::vector<net::NodeId> others;
    for (const net::NodeId r : replicas) {
      if (r != best1->replica) others.push_back(r);
    }
    if (!others.empty()) {
      const auto best2 =
          selector_->select(scratch, client, others, request_bytes, stats);
      if (best2.has_value() && !best2->path.links.empty()) {
        // Subflow 1's adjusted share if subflow 2 landed. best2 itself never
        // needs applying: the accept/reject test and the split sizing are
        // pure arithmetic over (b1_adjusted, b2).
        double b1_adjusted = b1;
        bool matched = false;
        for (const auto& [cookie, bw] : best2->bumped) {
          if (cookie != cookies[0]) continue;
          MAYFLOWER_ASSERT_MSG(!matched,
                               "subflow 1 bumped twice by one candidate");
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
    }
  }
  scratch.rollback_tentative();

  if (plans.empty()) {
    plans.resize(1);
    plans[0].candidate = std::move(*best1);
    plans[0].bytes = request_bytes;
    plans[0].planned_bps = b1;
  }
  return plans;
}

}  // namespace mayflower::flowserver
