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
// (stats polls, drops, faults) instead invalidate the view, forcing a
// rebuild before the next batch.
//
// The flow section mirrors FlowStateTable semantics: a per-link reverse
// index (LinkIndex) keeps append_flows_on_link at O(flows actually crossing
// the link) in key order. A tentative scope lets a planner add flows and
// change shares on the view it plans on and then put the view back.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/link_index.hpp"
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
  // to overlay, the flow copy is the cost a shard reload avoids.
  void refresh_link_state(const Topology& topo);

  // Partitions the believed-flow section by `map` (per-shard key lists and
  // version stamps). Must be installed while the view holds no flows; the
  // default map has one shard holding every flow.
  void set_shard_map(ShardMap map);
  const ShardMap& shard_map() const { return shard_map_; }
  std::uint32_t shard_count() const { return shard_map_.shard_count(); }

  // Removes every believed flow belonging to shard `s` (the first half of a
  // per-shard reload; snapshotting the table's shard back in is the second).
  // Not legal inside a tentative scope.
  void unload_shard(std::uint32_t s);

  // Per-shard freshness stamp: the table shard version this view's shard
  // section was built from. Written by the view's owner at refresh time.
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
  // Inserts one believed flow verbatim (snapshot population; no undo).
  void load_flow(Flow f);

  // --- network facts ----------------------------------------------------

  std::uint64_t epoch() const { return epoch_; }
  sim::SimTime built_at() const { return built_at_; }
  std::size_t link_count() const { return capacity_bps_.size(); }

  bool link_up(LinkId link) const;
  double capacity_bps(LinkId link) const;
  // Measured transmit rate (bytes/s) of `link`; 0 unless a rate monitor
  // populated it at build time.
  double tx_rate_bps(LinkId link) const;
  // True iff every link of `path` is up (zero-hop paths are always alive).
  bool path_alive(const Path& path) const;

  // --- believed flows ---------------------------------------------------

  const Flow* find(std::uint64_t key) const;
  std::size_t flow_count() const { return flows_.size(); }

  // Appends the flows crossing `link` to `out`, in key order
  // (deterministic). O(flows on link); allocates nothing once `out` has
  // grown, so a caller gathering many links can keep one buffer.
  void append_flows_on_link(LinkId link, std::vector<const Flow*>& out) const;

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

  void add_flow(std::uint64_t key, Path path, double size_bytes,
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
  // exactly as begin found it. Scopes do not nest.

  void begin_tentative();
  void rollback_tentative();
  bool tentative_active() const { return tentative_; }

 private:
  // One logged mutation: `added` is true for an add_flow, else `prior_bps`
  // holds the share a set_flow_bps overwrote.
  struct Undo {
    std::uint64_t key = 0;
    bool added = false;
    double prior_bps = 0.0;
  };

  // Shard-key bookkeeping around flow insertion/removal.
  void track_key_added(std::uint64_t key, const Path& path);
  void track_key_removed(std::uint64_t key, const Path& path);

  std::uint64_t epoch_ = 0;
  sim::SimTime built_at_;

  std::vector<double> capacity_bps_;
  std::vector<char> up_;
  std::vector<double> tx_rate_bps_;

  std::map<std::uint64_t, Flow> flows_;
  LinkIndex index_;  // link -> keys of believed flows crossing it
  std::map<std::uint64_t, FlowStats> stats_;

  // Per-shard key lists so unload_shard() is O(flows in the shard), plus
  // per-shard freshness stamps; both sized to shard_count(), so the default
  // one-shard view has one entry each. The flows map and link index above
  // stay GLOBAL — a view answers append_flows_on_link identically under
  // every map; the map changes only which sections a refresh touches.
  ShardMap shard_map_;
  std::vector<std::vector<std::uint64_t>> shard_keys_ =
      std::vector<std::vector<std::uint64_t>>(1);
  std::vector<std::uint64_t> shard_stamp_ = std::vector<std::uint64_t>(1, 0);

  bool tentative_ = false;
  std::vector<Undo> undo_;
};

}  // namespace mayflower::net
