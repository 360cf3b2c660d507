#include "flowserver/writechain.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace mayflower::flowserver {

std::vector<net::NodeId> tied_best_targets(
    const std::vector<net::NodeId>& candidates,
    const std::vector<units::Bps>& scores) {
  MAYFLOWER_ASSERT(!candidates.empty());
  std::vector<net::NodeId> ties;
  double best_score = -1.0;
  for (const net::NodeId candidate : candidates) {
    MAYFLOWER_ASSERT(candidate < scores.size());
    const double score = scores[candidate].value();
    const double tol = 1e-9 * (1.0 + best_score);
    if (ties.empty() || score > best_score + tol) {
      best_score = score;
      ties.assign(1, candidate);
    } else if (score >= best_score - tol) {
      ties.push_back(candidate);
    }
  }
  return ties;
}

std::vector<units::Bps> model_write_scores(const BandwidthModel& model,
                                           const net::PathCache& paths,
                                           net::NodeId writer,
                                           const net::NetworkView& view) {
  // A path's share is the min of its links' infinite-demand shares, so the
  // sweep runs over the memo's per-link shares; the memo gathers and
  // water-fills only the live links the sweep reaches.
  LinkShareMemo memo(model, view);
  std::vector<units::Bps> scores = widest_shortest_paths(
      paths.topology(), view, writer, units::Bps{net::kInfiniteDemand},
      [&memo](net::LinkId l) { return memo.new_flow_share(l); });
  scores[writer] = units::Bps{model.zero_hop_bps()};
  return scores;
}

std::vector<net::NodeId> rank_write_targets_by_model(
    const BandwidthModel& model, const net::PathCache& paths,
    net::NodeId writer, const std::vector<net::NodeId>& candidates,
    const net::NetworkView& view) {
  return tied_best_targets(candidates,
                           model_write_scores(model, paths, writer, view));
}

std::vector<ChainHopPlan> WriteChainPlanner::plan_readonly(
    net::NetworkView& view, const std::vector<net::NodeId>& nodes,
    units::Bytes bytes, const std::vector<sdn::Cookie>& cookies,
    SelectStats* stats) const {
  MAYFLOWER_ASSERT(nodes.size() >= 2);
  MAYFLOWER_ASSERT(cookies.size() >= nodes.size() - 1);

  // Every hop but the last lands in the view's tentative scope, rolled back
  // before returning: hop i+1 must see hop i's bump, and nothing else must
  // see anything.
  std::vector<ChainHopPlan> plans;
  view.begin_tentative();
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const net::NodeId from = nodes[i];
    const net::NodeId to = nodes[i + 1];
    MAYFLOWER_ASSERT_MSG(from != to, "chain hops must join distinct hosts");
    // selector paths run replica -> client, so the hop's source plays the
    // replica and its destination the client.
    const std::vector<net::NodeId> source{from};
    auto best = selector_->select(view, to, source, bytes.value(), stats);
    // Unreachable hop: truncate. Downstream hops could only be fed through
    // this one, so routing them anyway would plan flows no data ever rides.
    if (!best.has_value()) break;
    if (i + 2 < nodes.size()) {
      apply_candidate(view, *best, cookies[plans.size()], bytes.value());
    }
    ChainHopPlan hop;
    hop.candidate = std::move(*best);
    plans.push_back(std::move(hop));
  }
  view.rollback_tentative();
  if (plans.empty()) return plans;

  // Joint chain sizing: a cut-through pipeline moves at its slowest hop, so
  // every hop's believed share drops to the bottleneck — the state a poll
  // would eventually report anyway, asserted up front like split sizing.
  double bottleneck = plans[0].candidate.est_bw_bps;
  for (const ChainHopPlan& hop : plans) {
    bottleneck = std::min(bottleneck, hop.candidate.est_bw_bps);
  }
  for (ChainHopPlan& hop : plans) hop.planned_bps = bottleneck;
  return plans;
}

void WriteChainPlanner::commit_plans(net::NetworkView& view,
                                     const std::vector<ChainHopPlan>& plans,
                                     units::Bytes bytes,
                                     const std::vector<sdn::Cookie>& cookies,
                                     sim::SimTime now) {
  MAYFLOWER_ASSERT(cookies.size() >= plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    selector_->commit(view, plans[i].candidate, cookies[i], bytes.value(),
                      now);
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    selector_->setbw(view, cookies[i], plans[i].planned_bps, now);
  }
}

}  // namespace mayflower::flowserver
