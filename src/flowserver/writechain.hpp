// Write-path decisions: replication-chain planning and write-target ranking.
//
// A replicated append moves the same bytes over a CHAIN of hops
// (writer -> primary -> replica -> replica). The planner routes every hop
// against one NetworkView snapshot — hop i+1's selection sees hop i's
// tentative bump, exactly like the second round of a §4.3 split read — and
// then sizes the chain as one jointly-scheduled unit: every hop's believed
// share is SETBW'd down to the chain bottleneck, the rate at which a
// cut-through pipeline actually moves (each relay forwards bytes as they
// stream in, so the chain finishes together at min over hops of b_i, the
// write-side mirror of the split-read "finish together" sizing).
//
// The ranking half is the placement primitive extracted from the historical
// Flowserver::best_write_target: score every candidate host as a home for a
// new replica, keep the tied-best band, let the caller break ties with its
// own seeded Rng. policy::MeasuredWritePlacement reuses its tie band and its
// sweep, so both rankings score and break ties the same way.
#pragma once

#include <algorithm>
#include <vector>

#include "common/units.hpp"
#include "flowserver/selector.hpp"

namespace mayflower::flowserver {

// Scores every node as the end of a write from `writer` in one sweep:
// best[c] is the max, over the writer's shortest paths to c in `topo` (hop
// count, liveness ignored, exactly the paths PathCache enumerates) whose
// links are all up in `view`, of the min of value(l) over the path's links,
// seeded with `start` at the writer; 0 where no live shortest path reaches.
// A BFS from the writer relaxes each shortest-path link once, in hop order,
// best[v] = max(best[v], min(best[u], value(l))): O(nodes + links) instead
// of O(candidates x paths x links). min and max are exact in any order, so
// for value(l) >= 0 every score equals the per-path loop's bit for bit.
template <typename LinkValue>
std::vector<units::Bps> widest_shortest_paths(const net::Topology& topo,
                                              const net::NetworkView& view,
                                              net::NodeId writer,
                                              units::Bps start,
                                              LinkValue&& value) {
  MAYFLOWER_ASSERT(writer < topo.node_count());
  std::vector<int> dist(topo.node_count(), -1);
  std::vector<units::Bps> best(topo.node_count(), units::Bps{0.0});
  // BFS order: every node at hop d is settled before any at d + 1, so a
  // node's score is final before its out-links are relaxed.
  std::vector<net::NodeId> order;
  order.reserve(topo.node_count());
  dist[writer] = 0;
  best[writer] = start;
  order.push_back(writer);
  for (std::size_t next = 0; next < order.size(); ++next) {
    const net::NodeId u = order[next];
    for (const net::LinkId l : topo.out_links(u)) {
      const net::NodeId v = topo.link(l).to;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      } else if (dist[v] != dist[u] + 1) {
        continue;  // not on a shortest path
      }
      if (!view.link_up(l)) continue;  // a dead link carries no path
      best[v] = units::Bps{
          std::max(best[v].value(), std::min(best[u].value(), value(l)))};
    }
  }
  return best;
}

// The tied-best band of `candidates` under `scores`, one score per
// topology node (index = node id, as widest_shortest_paths returns them):
// every candidate whose score is within a relative 1e-9 tolerance of the
// best, original order preserved. Ties are common (an idle fabric offers
// every candidate the same share) and MUST break randomly downstream:
// deterministic ties would stack every file's replicas onto the same few
// hosts. Scores are strong-typed bandwidths so a caller cannot hand the
// ranking a byte count (or any other unit) by accident.
std::vector<net::NodeId> tied_best_targets(
    const std::vector<net::NodeId>& candidates,
    const std::vector<units::Bps>& scores);

// Model-based write-target scores of every node: the max-min share a new
// write flow from `writer` would get over its best live path (the zero-hop
// rate at the writer itself, 0 where unreachable), in one
// widest_shortest_paths sweep over `paths`' topology.
std::vector<units::Bps> model_write_scores(const BandwidthModel& model,
                                           const net::PathCache& paths,
                                           net::NodeId writer,
                                           const net::NetworkView& view);

// The tied-best band of `candidates` under model_write_scores.
std::vector<net::NodeId> rank_write_targets_by_model(
    const BandwidthModel& model, const net::PathCache& paths,
    net::NodeId writer, const std::vector<net::NodeId>& candidates,
    const net::NetworkView& view);

// One planned hop of a replication chain.
struct ChainHopPlan {
  Candidate candidate;      // hop path: nodes[i] -> nodes[i+1]
  double planned_bps = 0.0;  // chain-bottleneck share the sizing assumed
};

// Plans the hop flows of one replication chain: a read-only planning pass
// the Flowserver's batch runs per write slot, then a serial commit replay.
class WriteChainPlanner {
 public:
  explicit WriteChainPlanner(ReplicaPathSelector& selector)
      : selector_(&selector) {}

  // Routes hops nodes[0]->nodes[1]->... in order against `view`, hop i
  // tentatively added so hop i+1 sees it, inside a view tentative scope
  // rolled back before returning; then sizes every hop to the chain
  // bottleneck. `cookies` must provide nodes.size()-1 ids; the first
  // plans.size() name the routed hops. An unreachable hop TRUNCATES the
  // chain: the routed prefix is returned and the fs layer degrades the
  // remaining hops to the settled-relay contract (short replicas are
  // repaired by re-replication, client acks never strand).
  std::vector<ChainHopPlan> plan_readonly(
      net::NetworkView& view, const std::vector<net::NodeId>& nodes,
      units::Bytes bytes, const std::vector<sdn::Cookie>& cookies,
      SelectStats* stats = nullptr) const;

  // Commits plans produced by plan_readonly against the authoritative
  // table and the batch view: every hop registered at its estimated share
  // (stale-share clamp included), then the bottleneck SETBW pass.
  void commit_plans(net::NetworkView& view,
                    const std::vector<ChainHopPlan>& plans, units::Bytes bytes,
                    const std::vector<sdn::Cookie>& cookies, sim::SimTime now);

 private:
  ReplicaPathSelector* selector_;
};

}  // namespace mayflower::flowserver
