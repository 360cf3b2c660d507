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
// own seeded Rng. policy::MeasuredWritePlacement reuses its tie band so
// both rankings break ties the same way.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "flowserver/selector.hpp"

namespace mayflower::flowserver {

// The tied-best band of `candidates` under `scores` (parallel arrays):
// every candidate whose score is within a relative 1e-9 tolerance of the
// best, original order preserved. Ties are common (an idle fabric offers
// every candidate the same share) and MUST break randomly downstream:
// deterministic ties would stack every file's replicas onto the same few
// hosts. Scores are strong-typed bandwidths so a caller cannot hand the
// ranking a byte count (or any other unit) by accident.
std::vector<net::NodeId> tied_best_targets(
    const std::vector<net::NodeId>& candidates,
    const std::vector<units::Bps>& scores);

// Model-based write-target ranking: each candidate scores the max-min share
// a new write flow from `writer` would get over its best live path
// (writer-local candidates score the zero-hop rate, unreachable ones 0).
// Returns the tied-best band.
std::vector<net::NodeId> rank_write_targets_by_model(
    const BandwidthModel& model, net::PathCache& paths, net::NodeId writer,
    const std::vector<net::NodeId>& candidates, const net::NetworkView& view);

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
