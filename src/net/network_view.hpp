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
// first refreshes what they touched: the link sections, or the flow shards
// (synced in place, begin_sync .. end_sync).
//
// The flow section mirrors FlowStateTable semantics. Believed flows live in
// slots (a vector with a free list, plus a key -> slot map nothing
// iterates), and each link lists the (key, slot) of the flows crossing it in
// ascending key, so append_flows_on_link costs O(flows actually crossing the
// link) with no lookup, and a copy of the view stays valid as it is. A
// tentative scope lets a planner add flows and change shares on the view it
// plans on and then put the view back.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "net/paths.hpp"
#include "net/shard_map.hpp"
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
  // monitor moved but the flow shards did not: liveness/rates are O(links)
  // to overlay, the flow sync is the cost a clean shard avoids.
  void refresh_link_state(const Topology& topo);

  // Partitions the believed-flow section by `map` (per-shard slot lists and
  // version stamps). Must be installed while the view holds no flows; the
  // default map has one shard holding every flow.
  void set_shard_map(ShardMap map);
  const ShardMap& shard_map() const { return shard_map_; }
  std::uint32_t shard_count() const { return shard_map_.shard_count(); }
  // Believed flows in shard `s`.
  std::size_t shard_flow_count(std::uint32_t s) const {
    MAYFLOWER_ASSERT(s < shard_slots_.size());
    return shard_slots_[s].size();
  }

  // Per-shard freshness stamp: the table shard version this view's shard
  // section was synced from. Written by the view's owner at refresh time.
  std::uint64_t shard_stamp(std::uint32_t s) const {
    MAYFLOWER_ASSERT(s < shard_stamp_.size());
    return shard_stamp_[s];
  }
  void stamp_shard(std::uint32_t s, std::uint64_t version) {
    MAYFLOWER_ASSERT(s < shard_stamp_.size());
    shard_stamp_[s] = version;
  }

  void mark_link_down(LinkId link);
  void set_tx_rate(LinkId link, double bps);
  void set_flow_stats(std::uint64_t key, FlowStats stats);

  // --- in-place shard sync ----------------------------------------------
  //
  // Brings shard `s`'s believed flows in line with an authoritative copy:
  // begin_sync(s), then sync_flow() once for every flow the source holds in
  // shard s (each must route to s), then end_sync(), which drops every flow
  // of shard s that no sync_flow() named. A key the view already holds on
  // the same path keeps its slot and link entries and only has its sizes
  // and share overwritten; a new key, or one whose path differs (dropped and
  // re-added between two syncs), is inserted afresh. Per-link lists stay in
  // ascending key, so the result answers every query exactly as a view
  // loaded from scratch would. Syncs do not nest and are not legal inside a
  // tentative scope.
  void begin_sync(std::uint32_t s);
  void sync_flow(std::uint64_t key, const Path& path, double size_bytes,
                 double remaining_bytes, double bw_bps);
  void end_sync();

  // True iff shard `s` of this view and of `other` hold the same keys with
  // the same paths, sizes and shares, and every link those flows cross
  // lists this view's flows in strictly ascending key with shard s's in the
  // order `other` lists them. The sync's cross-check against a fresh copy.
  bool shard_equals(const NetworkView& other, std::uint32_t s) const;

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
  // section (add, drop, rollback, sync), so callers read through them at
  // once and keep the key.

  const Flow* find(std::uint64_t key) const;
  std::size_t flow_count() const { return slot_of_.size(); }

  // Appends the flows crossing `link` to `out`, in key order
  // (deterministic). O(flows on link); allocates nothing once `out` has
  // grown, so a caller gathering many links can keep one buffer.
  void append_flows_on_link(LinkId link, std::vector<const Flow*>& out) const {
    if (link >= on_link_.size()) return;
    for (const OnLink& e : on_link_[link]) out.push_back(&slots_[e.slot].flow);
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
  // One believed flow's storage. A free slot keeps its last path's buffers
  // for the next flow it holds.
  struct Slot {
    Flow flow;
    std::uint32_t shard = 0;
    std::uint32_t shard_pos = 0;  // index in shard_slots_[shard]
    std::uint64_t synced = 0;     // the last sync pass that named it
  };
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
  static constexpr std::uint32_t kNoSync = UINT32_MAX;

  // Places a flow with `key` (absent) and `path` in a slot, on its links and
  // in its shard's list; the caller fills the remaining fields.
  Slot& insert(std::uint64_t key, const Path& path);
  // Removes the flow in `slot` from its links, its shard and the key map,
  // and frees the slot. O(path links x flows per link), O(1) per shard.
  void erase(std::uint32_t slot);
  // The slot holding `key`, or kNoSlot.
  std::uint32_t slot_of(std::uint64_t key) const;

  std::uint64_t epoch_ = 0;
  sim::SimTime built_at_;

  std::vector<double> capacity_bps_;
  std::vector<char> up_;
  std::vector<double> tx_rate_bps_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;  // never iterated
  // Per link: the flows crossing it, ascending key. Grown on demand, so a
  // view never given a topology still indexes the links its flows name.
  std::vector<std::vector<OnLink>> on_link_;
  std::map<std::uint64_t, FlowStats> stats_;

  // Per-shard slot lists (unordered; each slot records its position, so a
  // drop leaves its list in O(1)) and freshness stamps; both sized to
  // shard_count(), so the default one-shard view has one entry each. The
  // slots and link lists above stay GLOBAL — a view answers
  // append_flows_on_link identically under every map; the map changes only
  // which sections a refresh touches.
  ShardMap shard_map_;
  std::vector<std::vector<std::uint32_t>> shard_slots_ =
      std::vector<std::vector<std::uint32_t>>(1);
  std::vector<std::uint64_t> shard_stamp_ = std::vector<std::uint64_t>(1, 0);

  std::uint32_t syncing_ = kNoSync;  // the shard an open sync covers
  std::uint64_t sync_pass_ = 0;

  bool tentative_ = false;
  std::vector<Undo> undo_;
};

}  // namespace mayflower::net
