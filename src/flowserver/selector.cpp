#include "flowserver/selector.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace mayflower::flowserver {

namespace {

// Eq. 2's first term: fills c's estimate b_j (MAXMINSHARE of `path`) and
// own time d_j / b_j.
void cost_own_time(LinkShareMemo& memo, const net::Path& path,
                   double request_bytes, Candidate& c) {
  MAYFLOWER_ASSERT(request_bytes > 0.0);
  c.est_bw_bps = memo.new_flow_share(path);
  MAYFLOWER_ASSERT_MSG(c.est_bw_bps > 0.0, "estimated share must be positive");
  c.cost.own_time = request_bytes / c.est_bw_bps;
}

// The rest of FLOWCOST (Pseudocode 2) once cost_own_time() has filled c:
// the impact sum, the bumped list (reusing its capacity) and the total.
// Replica and path are the caller's.
void cost_impact(LinkShareMemo& memo, const net::Path& path, Candidate& c) {
  c.cost.impact = 0.0;
  c.bumped.clear();

  // The union of flows sharing the path's links, in cookie order, so the
  // impact sum and the bumped list keep one deterministic order.
  for (const auto& [f, reduced] : memo.reduced_shares(path, c.est_bw_bps)) {
    const double cur = f->bw_bps;
    if (reduced < cur) {
      const double r = f->remaining_bytes;
      // select()'s bound needs every impact term >= 0 (or NaN).
      MAYFLOWER_ASSERT_MSG(r >= 0.0, "negative remaining bytes");
      c.cost.impact += r / reduced - r / cur;
      c.bumped.emplace_back(f->key, reduced);
    }
  }
  c.cost.total = c.cost.own_time + c.cost.impact;
}

}  // namespace

Candidate evaluate_path(const BandwidthModel& model,
                        const net::NetworkView& view, net::NodeId replica,
                        const net::Path& path, double request_bytes) {
  LinkShareMemo memo(model, view);
  Candidate c;
  c.replica = replica;
  c.path = path;
  cost_own_time(memo, path, request_bytes, c);
  cost_impact(memo, path, c);
  return c;
}

void apply_candidate(net::NetworkView& view, const Candidate& chosen,
                     sdn::Cookie cookie, double request_bytes) {
  for (const auto& [bumped_cookie, new_bps] : chosen.bumped) {
    if (view.find(bumped_cookie) != nullptr) {
      view.set_flow_bps(bumped_cookie, new_bps);
    }
  }
  view.add_flow(cookie, chosen.path, request_bytes, chosen.est_bw_bps);
}

net::NetworkView make_decision_view(const net::Topology& topo,
                                    const FlowStateTable& table,
                                    std::uint64_t epoch,
                                    sim::SimTime built_at) {
  net::NetworkView view;
  view.reset_links(topo);
  table.snapshot_into(view);
  view.stamp(epoch, built_at);
  return view;
}

std::optional<Candidate> ReplicaPathSelector::select(
    const net::NetworkView& view, net::NodeId client,
    const std::vector<net::NodeId>& replicas, double request_bytes,
    SelectStats* stats) const {
  // One memo per call: candidates share links (every path ends at the
  // client), so each link is gathered and water-filled for the new flow
  // once. Concurrent selections each own theirs.
  LinkShareMemo memo(model_, view);
  std::optional<Candidate> best;
  Candidate c;
  for (const net::NodeId replica : replicas) {
    // Data flows replica -> client; paths are enumerated in that direction.
    for (const net::Path& p : paths_->get(replica, client)) {
      if (!view.path_alive(p)) continue;
      if (stats != nullptr) ++stats->candidates_evaluated;
      cost_own_time(memo, p, request_bytes, c);
      // Bound: own time <= total. Each impact term r/b' - r/b has r >= 0
      // and b' < b, so monotone IEEE division makes it >= 0 or +inf (NaN
      // only from 0/0), and under round-to-nearest adding it never lowers
      // the own time; without impact awareness total == own time. A
      // candidate whose own time reaches the best total cannot be strictly
      // cheaper, and only a strictly cheaper one replaces the best, so
      // skipping its impact merge moves no decision. A NaN best fails every
      // comparison and skips nothing. Candidates stay in enumeration order
      // (DESIGN.md §5 says why they are not sorted by this bound).
      if (best.has_value() && c.cost.own_time >= best->cost.total) {
        if (stats != nullptr) ++stats->candidates_bounded;
        continue;
      }
      cost_impact(memo, p, c);
      if (!impact_aware_) c.cost.total = c.cost.own_time;
      if (!best.has_value() || c.cost.total < best->cost.total) {
        // Only a new best pays for copying its path.
        if (!best.has_value()) best.emplace();
        best->replica = replica;
        best->path = p;
        best->est_bw_bps = c.est_bw_bps;
        best->cost = c.cost;
        std::swap(best->bumped, c.bumped);
      }
    }
  }
  return best;
}

void ReplicaPathSelector::commit(net::NetworkView& view,
                                 const Candidate& chosen, sdn::Cookie cookie,
                                 double request_bytes, sim::SimTime now) {
  for (const auto& [bumped_cookie, new_bps] : chosen.bumped) {
    const TrackedFlow* f = table_->find(bumped_cookie);
    if (f == nullptr) continue;  // finished between select() and commit()
    // The reduced share was computed from the snapshot the selection read. A
    // stats poll (or another commit) interleaved since the snapshot was
    // taken may have *lowered* the flow's share below our estimate; SETBW
    // must never raise a flow above what the fabric currently gives it, so
    // clamp against the authoritative table, not the (possibly stale) view.
    const double clamped = std::min(f->bw_bps, new_bps);
    table_->setbw(bumped_cookie, clamped, now);
    if (view.find(bumped_cookie) != nullptr) {
      view.set_flow_bps(bumped_cookie, clamped);
    }
  }
  table_->add(cookie, chosen.path, request_bytes, chosen.est_bw_bps, now);
  view.add_flow(cookie, chosen.path, request_bytes, chosen.est_bw_bps);
}

void ReplicaPathSelector::setbw(net::NetworkView& view, sdn::Cookie cookie,
                                 double bw_bps, sim::SimTime now) {
  table_->setbw(cookie, bw_bps, now);
  view.set_flow_bps(cookie, bw_bps);
}

void ReplicaPathSelector::resize(net::NetworkView& view, sdn::Cookie cookie,
                                 double new_size_bytes, sim::SimTime now) {
  table_->resize(cookie, new_size_bytes, now);
  view.resize_flow(cookie, new_size_bytes);
}

}  // namespace mayflower::flowserver
