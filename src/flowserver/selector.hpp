// Replica–path selection (Pseudocode 1, Eq. 1-2 of §4.2).
//
// Evaluates every shortest path from every candidate replica to the client
// and picks the one minimizing
//
//   cost(p) = d_j / b_j  +  sum over existing flows f on p's links of
//             ( r_f / b'_f  -  r_f / b_f )
//
// i.e. the new request's expected completion time plus the total increase in
// completion time it inflicts on in-flight requests. Every fact a selection
// reads — link capacities, path liveness, believed shares — comes from one
// NetworkView snapshot, so all selections in a decision batch see identical
// state. Committing a selection applies SETBW to every flow whose share
// changed (freezing them) and registers the new flow, writing through to
// BOTH the authoritative FlowStateTable and the batch's view, so the next
// batch starts from it without a rebuild.
#pragma once

#include <optional>
#include <vector>

#include "flowserver/bandwidth_model.hpp"
#include "flowserver/flow_state.hpp"
#include "net/paths.hpp"

namespace mayflower::flowserver {

struct CostBreakdown {
  double total = 0.0;
  double own_time = 0.0;      // d_j / b_j
  double impact = 0.0;        // sum of existing-flow slowdowns
};

struct Candidate {
  net::NodeId replica = net::kInvalidNode;
  net::Path path;
  double est_bw_bps = 0.0;
  CostBreakdown cost;
  // Reduced shares for flows on this path whose bw would change.
  std::vector<std::pair<sdn::Cookie, double>> bumped;
};

// Pure cost evaluation of a single path (FLOWCOST in Pseudocode 2) against
// one snapshot.
Candidate evaluate_path(const BandwidthModel& model,
                        const net::NetworkView& view, net::NodeId replica,
                        const net::Path& path, double request_bytes);

// View-only commit for read-only planning inside a view's tentative scope:
// applies the candidate's bumped shares and registers the new flow in
// `view` without touching any table. No stale-share clamp — the view IS the
// snapshot being planned against, so there is no fresher state to clamp
// against.
void apply_candidate(net::NetworkView& view, const Candidate& chosen,
                     sdn::Cookie cookie, double request_bytes);

// Builds a decision view from a table alone: configured capacities, every
// link up, no rates. The Flowserver layers fabric liveness and monitor rates
// on top; fixture-based tests and the walkthrough use it as-is.
net::NetworkView make_decision_view(const net::Topology& topo,
                                    const FlowStateTable& table,
                                    std::uint64_t epoch = 0,
                                    sim::SimTime built_at = sim::SimTime{});

// How a select() arrived at its answer; feeds the decision-audit trace.
struct SelectStats {
  // Live replica×path candidates considered, bounded ones included.
  std::uint64_t candidates_evaluated = 0;
  // Of those, candidates whose own time d_j/b_j already reached the best
  // total, so their impact term was never computed.
  std::uint64_t candidates_bounded = 0;
};

class ReplicaPathSelector {
 public:
  ReplicaPathSelector(const net::Topology& topo, net::PathCache& paths,
                      FlowStateTable& table)
      : topo_(&topo), paths_(&paths), table_(&table) {}

  // Evaluates all shortest paths from every replica to the client against
  // `view`; returns the minimum-cost candidate, or nullopt if no replica is
  // reachable (the view's liveness bits gate every path). Does not mutate
  // any state. `stats` (optional) reports how many candidates were
  // considered and how many of them the own-time bound skipped.
  std::optional<Candidate> select(const net::NetworkView& view,
                                  net::NodeId client,
                                  const std::vector<net::NodeId>& replicas,
                                  double request_bytes,
                                  SelectStats* stats = nullptr) const;

  // Applies a selection: SETBW on bumped flows, registers the new flow under
  // `cookie` with its estimated share (both frozen per Pseudocode 2). Writes
  // through to the table AND `view`. The stale-share clamp reads the TABLE's
  // current value — the authoritative state at commit time — so a selection
  // made against an older snapshot can never raise a flow above what a
  // fresher poll already lowered it to (min(current, planned)).
  void commit(net::NetworkView& view, const Candidate& chosen,
              sdn::Cookie cookie, double request_bytes, sim::SimTime now);

  // Write-through mutations for split sizing and chain sizing.
  void setbw(net::NetworkView& view, sdn::Cookie cookie, double bw_bps,
              sim::SimTime now);
  void resize(net::NetworkView& view, sdn::Cookie cookie,
              double new_size_bytes, sim::SimTime now);

  // Ablation knob: when false the cost drops Eq. 2's second term (impact on
  // existing flows) and greedily maximizes the new flow's own bandwidth.
  void set_impact_aware(bool aware) { impact_aware_ = aware; }
  bool impact_aware() const { return impact_aware_; }

  const BandwidthModel& model() const { return model_; }
  BandwidthModel& model() { return model_; }
  FlowStateTable& table() { return *table_; }
  net::PathCache& paths() { return *paths_; }
  const net::Topology& topology() const { return *topo_; }

 private:
  const net::Topology* topo_;
  net::PathCache* paths_;
  FlowStateTable* table_;
  BandwidthModel model_;
  bool impact_aware_ = true;
};

}  // namespace mayflower::flowserver
