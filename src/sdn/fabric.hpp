// SdnFabric: the simulated data plane plus its OpenFlow-like control surface.
//
// Owns the fluid FlowSim and one Switch per switch node. Transfers are keyed
// by a fabric-unique Cookie. The contract mirrors a real SDN deployment:
//
//   1. the controller installs the path's flow-table entries,
//   2. the endpoint starts the transfer (start_flow), which verifies hop by
//      hop that the installed entries actually forward along the given path
//      (a transfer over a dead path fails before that check),
//   3. edge switches answer periodic stats polls with per-flow and per-port
//      cumulative byte counters,
//   4. on completion/cancel the entries are torn down.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "net/flow_sim.hpp"
#include "net/network_view.hpp"
#include "net/topology.hpp"
#include "obs/observability.hpp"
#include "sdn/switch.hpp"

namespace mayflower::sdn {

// One row of an OpenFlow flow-stats reply from an edge switch.
struct FlowStatsRecord {
  Cookie cookie = 0;
  double bytes = 0.0;        // cumulative bytes forwarded for this flow
  bool active = true;        // false once the flow finished (final counter)
  double rate_bps = 0.0;     // current max-min allocation (0 once finished)
};

struct PortStatsRecord {
  net::LinkId link = net::kInvalidLink;
  double bytes = 0.0;        // cumulative bytes out this port
  double capacity_bps = 0.0;
};

class SdnFabric {
 public:
  SdnFabric(sim::EventQueue& events, const net::Topology& topo);

  // --- control plane ---------------------------------------------------
  //
  // The flow-table surface (install/remove/verify, cookie allocation) is
  // mutex-guarded: decision workers pre-draw cookies and the commit replay
  // installs paths, and both must be safe against a concurrent stress
  // driver. The data plane (start/cancel/reroute, polls, faults) remains
  // control-thread-only — it runs inside the event loop by design.

  Cookie new_cookie() EXCLUDES(table_mu_) {
    common::MutexLock lock(table_mu_);
    return next_cookie_++;
  }

  // Installs `path` for `cookie` in every switch along it.
  void install_path(Cookie cookie, const net::Path& path)
      EXCLUDES(table_mu_);

  // Bulk variant for a decision batch: installs every (cookie, path) pair,
  // flushing trace/metrics once (one counter add of `batch.size()` rather
  // than one RPC-equivalent per path).
  struct PathInstall {
    Cookie cookie = 0;
    const net::Path* path = nullptr;
  };
  void install_paths(const std::vector<PathInstall>& batch)
      EXCLUDES(table_mu_);

  // Removes `cookie`'s entries from every switch its installs wrote.
  void remove_path(Cookie cookie) EXCLUDES(table_mu_);

  // Whether every switch along `path` forwards `cookie` onto the path's
  // next link. False, never an assert, for any path it cannot follow:
  // endpoints check client-carried plans with it.
  bool path_installed(Cookie cookie, const net::Path& path) const
      EXCLUDES(table_mu_);

  // --- data plane -------------------------------------------------------

  using CompletionFn = std::function<void(Cookie, sim::SimTime start_time)>;
  // Failure notification: the transfer died mid-flight (link/switch failure)
  // or was started over a path that is already dead. The record carries the
  // progress made (remaining_bytes == size_bytes when nothing moved).
  using FailureFn = std::function<void(Cookie, const net::FlowRecord&)>;

  // Starts a transfer of `bytes` along `path`. The path must already be
  // installed (hop-by-hop verified) unless it is zero-hop. Flow-table entries
  // are removed automatically at completion; `on_complete` (optional) fires
  // from the event loop. If the path crosses a down link — now or later —
  // the transfer fails instead: entries are torn down, failure listeners are
  // notified and `on_fail` (optional) fires from the event loop. Liveness is
  // checked first, so a path whose entries a switch crash wiped fails too.
  void start_flow(Cookie cookie, const net::Path& path, double bytes,
                  CompletionFn on_complete = nullptr,
                  FailureFn on_fail = nullptr);

  // Cancels an in-flight transfer and tears down its path.
  bool cancel_flow(Cookie cookie);

  // Moves an in-flight transfer onto `new_path` (same endpoints): installs
  // the new flow-table entries, reroutes the simulator flow, removes stale
  // entries. Returns false if the cookie is not active.
  bool reroute_flow(Cookie cookie, const net::Path& new_path);

  bool flow_active(Cookie cookie) const;

  // The simulator record behind an active cookie (nullptr once finished):
  // the controller legitimately knows the path it installed and the byte
  // counter it can poll; rate/remaining are also exposed for convenience.
  // Like FlowSim::find(), the pointer is valid only until the next flow
  // start, cancel, reroute, link fault or completion.
  const net::FlowRecord* flow_record(Cookie cookie);

  // --- telemetry (what a controller can legitimately see) ---------------

  // Flow stats from one edge switch: flows whose *source host* hangs off
  // `edge_switch` (the paper polls the dataserver-side edge, §4). Served
  // from a per-edge cookie index in O(flows at that edge), cookie order.
  std::vector<FlowStatsRecord> poll_edge_flow_stats(net::NodeId edge_switch);

  // Port counters of one switch (all its outgoing links).
  std::vector<PortStatsRecord> poll_port_stats(net::NodeId switch_node);

  // Cumulative bytes out of one directed link.
  double port_bytes(net::LinkId link);

  // --- faults (what the FaultInjector drives) ---------------------------

  // Takes one directed link down / back up. Flows crossing a failed link
  // are killed: their table entries disappear, failure listeners fire, and
  // the per-flow on_fail callback (if any) runs. Returns false when the
  // link was already in the requested state.
  bool fail_link(net::LinkId link);
  bool restore_link(net::LinkId link);

  // Scales one directed link to `factor` of its configured capacity
  // (degraded port); rates recompute, nothing is killed.
  void set_link_capacity_factor(net::LinkId link, double factor) {
    flow_sim_.set_link_capacity_factor(link, factor);
    ++state_epoch_;
  }

  // Crashes a switch: every adjacent link (that is still up) goes down —
  // killing the flows through it — and its flow table is wiped, as is any
  // pending final-counter state for polls of it. restore_switch() brings
  // back exactly the links the crash took down.
  void fail_switch(net::NodeId node);
  void restore_switch(net::NodeId node);
  bool switch_up(net::NodeId node) const {
    return down_switches_.find(node) == down_switches_.end();
  }

  bool link_up(net::LinkId link) const { return flow_sim_.link_up(link); }
  bool path_alive(const net::Path& path) const {
    return flow_sim_.path_alive(path);
  }

  // --- snapshotting (NetworkView construction) ---------------------------

  // Bumped whenever fabric-visible network state changes out from under a
  // decision view: link/switch failures and restores, capacity degradation.
  // View builders compare this against the epoch they built at.
  std::uint64_t state_epoch() const { return state_epoch_; }

  // Publishes link liveness into `view` (which must already be sized by
  // reset_links — capacities stay the CONFIGURED values the decision model
  // uses; only liveness is overlaid here).
  void snapshot_liveness_into(net::NetworkView& view) const;

  // Publishes per-transfer data-plane telemetry (cumulative bytes sent +
  // installed path, by cookie, in cookie order) into `view`. Syncs the
  // simulator first so counters are current.
  void snapshot_flow_stats_into(net::NetworkView& view);

  // Registers an observer for every flow failure (by cookie); used by the
  // Flowserver to expire its estimates for killed transfers.
  void add_flow_failure_listener(std::function<void(Cookie)> listener) {
    failure_listeners_.push_back(std::move(listener));
  }

  // Attaches the observability hub: control-plane counters (installs,
  // wipes, link/switch faults, polls) land in its registry, and the data
  // plane reports per-flow start/complete/kill/reroute to its tracer.
  // Forwards the registry to the FlowSim for solve counters. Null detaches.
  void set_obs(obs::Observability* hub);

  const net::Topology& topology() const { return *topo_; }
  net::FlowSim& flow_sim() { return flow_sim_; }
  sim::EventQueue& events() { return *events_; }

  // Control-thread-only: returns a reference into the guarded switch map
  // (valid for the fabric's lifetime; unordered_map nodes are stable).
  const Switch& switch_at(net::NodeId node) const EXCLUDES(table_mu_);

 private:
  struct ActiveFlow {
    net::FlowId flow_id = net::kInvalidFlow;
    net::NodeId src_edge = net::kInvalidNode;  // edge switch of source host
    FailureFn on_fail;
  };

  Switch& mutable_switch(net::NodeId node) REQUIRES(table_mu_);
  // Writes `path`'s entries for `cookie` and remembers the switches written.
  void install_entries(Cookie cookie, const net::Path& path)
      REQUIRES(table_mu_);
  // Cleanup + notification for a flow the simulator killed (link failure).
  void on_flow_killed(const net::FlowRecord& record);
  void notify_flow_failed(Cookie cookie, const net::FlowRecord& record,
                          FailureFn on_fail);

  // Drops `cookie` from its source edge's poll index (no-op for zero-hop).
  void unindex_edge_flow(net::NodeId src_edge, Cookie cookie);

  sim::EventQueue* events_;
  const net::Topology* topo_;
  net::FlowSim flow_sim_;
  // Guards the flow tables and the cookie counter (see the control-plane
  // note above). Never held across FlowSim calls: fail_link kills flows,
  // whose cleanup re-enters remove_path().
  mutable common::Mutex table_mu_;
  std::unordered_map<net::NodeId, Switch> switches_ GUARDED_BY(table_mu_);
  // cookie -> the switches its installs wrote, so remove_path() visits
  // those instead of every switch in the fabric.
  std::unordered_map<Cookie, std::vector<net::NodeId>> installed_at_
      GUARDED_BY(table_mu_);
  std::unordered_map<Cookie, ActiveFlow> active_;
  // Poll index: source edge switch -> active cookies polled there (ordered,
  // so stats replies are deterministic and O(flows at the edge)).
  std::map<net::NodeId, std::map<Cookie, net::FlowId>> edge_flows_;
  // Final byte counts of flows that completed since the last poll of their
  // source edge switch (switch counters outlive flow completion briefly).
  std::unordered_map<net::NodeId, std::vector<FlowStatsRecord>> completed_;
  // Crashed switches, each with the adjacent links the crash took down
  // (restore_switch brings back exactly those, not individually-failed ones).
  std::map<net::NodeId, std::vector<net::LinkId>> down_switches_;
  std::vector<std::function<void(Cookie)>> failure_listeners_;
  Cookie next_cookie_ GUARDED_BY(table_mu_) = 1;
  std::uint64_t state_epoch_ = 0;

  // Observability (all handles are no-ops until set_obs()).
  obs::FlowTracer* trace_ = nullptr;
  obs::Counter installs_;
  obs::Counter removes_;
  obs::Counter flows_started_;
  obs::Counter flows_completed_;
  obs::Counter flows_failed_;
  obs::Counter reroutes_;
  obs::Counter link_downs_;
  obs::Counter link_restores_;
  obs::Counter switch_wipes_;
  obs::Counter edge_polls_;
};

}  // namespace mayflower::sdn
