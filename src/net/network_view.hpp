// NetworkView: an immutable, epoch-stamped snapshot of everything a
// control-plane decision is allowed to read — link capacities and liveness,
// per-link transmit rates (edge-uplink utilization), the controller's
// believed per-flow shares, and optionally per-transfer data-plane telemetry.
//
// A view is built once per decision batch (from the FlowStateTable, the
// fabric's liveness map and a LinkRateMonitor) and every consumer — the
// replica/path selector, the multi-read planner, write placement and all
// replica policies — reads the SAME state at the SAME time. A batch's
// commits write through the view (add_flow / set_flow_bps / resize_flow)
// once every request has been evaluated, so the next batch starts from
// them without a rebuild; mutations from outside the decision pipeline
// (stats polls, drops, faults) instead stale the view, and the next batch
// first refreshes what they touched: the link sections, or the flows the
// table logged as changed (upsert_flow / drop_flow, one per logged cookie).
//
// The flow section mirrors FlowStateTable semantics. Believed flows live in
// slots (a vector with a free list, plus a key -> slot map nothing
// iterates), and each link lists the (key, slot) of the flows crossing it in
// ascending key, so append_flows_on_link costs O(flows actually crossing the
// link) with no lookup, a copy of the view stays valid as it is, and the
// order flows were synced in never shows in an answer. A tentative scope
// lets a planner add flows and change shares on the view it plans on and
// then put the view back.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mayflower::net {

class NetworkView {
 public:
  // One believed flow, copied from the controller's state table. The key is
  // the fabric cookie (the net layer does not name sdn types).
  struct Flow {
    std::uint64_t key = 0;
    Path path;
    double size_bytes = 0.0;
    double remaining_bytes = 0.0;
    double bw_bps = 0.0;
  };

  // Data-plane telemetry for one active transfer (what an edge switch's
  // per-flow counters legitimately expose); consumed by Hedera-style
  // schedulers that measure rather than believe.
  struct FlowStats {
    double bytes_sent = 0.0;
    Path path;
  };

  // --- build-time population --------------------------------------------

  void stamp(std::uint64_t epoch, sim::SimTime built_at) {
    epoch_ = epoch;
    built_at_ = built_at;
  }

  // Sizes the link sections from the topology: every link up, at its
  // CONFIGURED capacity. Decisions model the fabric the operator built, not
  // the degraded one (degradations are corrected by the stats resync), so
  // capacity here must stay the configured value. Clears flows and stats.
  void reset_links(const Topology& topo);

  // Re-initializes ONLY the link sections (capacity, liveness, tx rates,
  // data-plane stats) from the topology, leaving the believed-flow section
  // untouched. The incremental refresh uses this when the fabric epoch or
  // monitor moved: liveness/rates are O(links) to overlay, and the flows
  // refresh separately, from the table's change log.
  void refresh_link_state(const Topology& topo);

  void mark_link_down(LinkId link);
  void set_tx_rate(LinkId link, double bps);
  void set_flow_stats(std::uint64_t key, FlowStats stats);

  // --- log sync ---------------------------------------------------------
  //
  // Brings one believed flow in line with the authoritative table: a key
  // the view holds on the same path keeps its slot and link entries and
  // only has its sizes and share overwritten; a new key, or one whose path
  // differs (dropped and re-added since the last sync), is inserted afresh.
  // The table's change-log sync calls it once per logged cookie it still
  // tracks (and drop_flow for the rest), and a full build once per tracked
  // flow into an empty view. Not legal inside a tentative scope.
  void upsert_flow(std::uint64_t key, const Path& path, double size_bytes,
                   double remaining_bytes, double bw_bps);

  // True iff this view and `other` hold the same keys with the same paths,
  // sizes and shares, and every link lists them in the same (strictly
  // ascending) key order. The log sync's cross-check against a fresh copy.
  bool flows_equal(const NetworkView& other) const;

  // --- network facts ----------------------------------------------------

  std::uint64_t epoch() const { return epoch_; }
  sim::SimTime built_at() const { return built_at_; }
  std::size_t link_count() const { return capacity_bps_.size(); }

  bool link_up(LinkId link) const {
    MAYFLOWER_ASSERT(link < up_.size());
    return up_[link] != 0;
  }
  double capacity_bps(LinkId link) const;
  // Measured transmit rate (bytes/s) of `link`; 0 unless a rate monitor
  // populated it at build time.
  double tx_rate_bps(LinkId link) const;
  // True iff every link of `path` is up (zero-hop paths are always alive).
  bool path_alive(const Path& path) const {
    for (const LinkId l : path.links) {
      if (!link_up(l)) return false;
    }
    return true;
  }

  // --- believed flows ---------------------------------------------------
  //
  // Pointers from find() and append_flows_on_link() point into slot
  // storage: each stays valid only until the next mutation of the flow
  // section (add, drop, rollback, upsert), so callers read through them at
  // once and keep the key.

  const Flow* find(std::uint64_t key) const;
  std::size_t flow_count() const { return slot_of_.size(); }

  // Appends the flows crossing `link` to `out`, in key order
  // (deterministic). O(flows on link); allocates nothing once `out` has
  // grown, so a caller gathering many links can keep one buffer.
  void append_flows_on_link(LinkId link, std::vector<const Flow*>& out) const {
    if (link >= on_link_.size()) return;
    for (const OnLink& e : on_link_[link]) out.push_back(&slots_[e.slot]);
  }

  // --- data-plane telemetry ---------------------------------------------

  const FlowStats* flow_stats(std::uint64_t key) const;
  const std::map<std::uint64_t, FlowStats>& all_flow_stats() const {
    return stats_;
  }

  // --- write-through mutations (batch commits) --------------------------
  //
  // A decision batch that commits against the authoritative table applies
  // the same mutation here. add_flow and set_flow_bps are logged by an open
  // tentative scope; resize_flow and drop_flow are not legal inside one.

  void add_flow(std::uint64_t key, const Path& path, double size_bytes,
                double bw_bps);
  void set_flow_bps(std::uint64_t key, double bw_bps);
  void resize_flow(std::uint64_t key, double new_size_bytes);
  void drop_flow(std::uint64_t key);

  // --- tentative scope (read-only planning) -----------------------------
  //
  // A planner that must see its own first pick (the second round of a
  // split read, the next hop of a write chain) applies it inside a scope:
  // each add_flow logs the key it added and each set_flow_bps the share it
  // overwrote, and rollback replays the log newest-first, leaving the view
  // answering exactly as begin found it. Scopes do not nest.

  void begin_tentative();
  void rollback_tentative();
  bool tentative_active() const { return tentative_; }

 private:
  // One entry of a link's flow list.
  struct OnLink {
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };
  // One logged mutation: `added` is true for an add_flow, else `prior_bps`
  // holds the share a set_flow_bps overwrote.
  struct Undo {
    std::uint64_t key = 0;
    bool added = false;
    double prior_bps = 0.0;
  };
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // Places a flow with `key` (absent) and `path` in a slot and on its links;
  // the caller fills the remaining fields.
  Flow& insert(std::uint64_t key, const Path& path);
  // Removes the flow in `slot` from its links and the key map, and frees
  // the slot. O(path links x flows per link).
  void erase(std::uint32_t slot);
  // The slot holding `key`, or kNoSlot.
  std::uint32_t slot_of(std::uint64_t key) const;

  std::uint64_t epoch_ = 0;
  sim::SimTime built_at_;

  std::vector<double> capacity_bps_;
  std::vector<char> up_;
  std::vector<double> tx_rate_bps_;

  // One believed flow per slot. A free slot keeps its last path's buffers
  // for the next flow it holds.
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;  // never iterated
  // Per link: the flows crossing it, ascending key. Grown on demand, so a
  // view never given a topology still indexes the links its flows name.
  std::vector<std::vector<OnLink>> on_link_;
  std::map<std::uint64_t, FlowStats> stats_;

  bool tentative_ = false;
  std::vector<Undo> undo_;
};

}  // namespace mayflower::net
