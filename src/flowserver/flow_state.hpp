// The Flowserver's view of every Mayflower-related flow in the network.
//
// Implements the bandwidth bookkeeping of Pseudocode 2 (§4.2):
//  * SETBW — after a selection commits, bumped flows get their *estimated*
//    share written and enter the update-freeze state for a period
//    proportional to their expected completion time (T = now + remaining/bw);
//  * UPDATEBW — a stats-poll measurement overwrites the estimate only if the
//    flow is not frozen or its freeze has expired.
//
// The table is PARTITIONED BY EDGE SWITCH (net::ShardMap): every flow lives
// in the shard of its source host's edge switch — the same key the fabric's
// per-edge poll index uses — under that shard's own mutex, flow map and
// version counter. A poll of edge E or a drop of an E-sourced flow
// moves only shard E's version, so a snapshot consumer reloads one shard
// instead of the whole table. The default layout is a single shard (one
// global table) with identical semantics and no routing overhead.
//
// The table answers no per-link queries: decisions read a NetworkView
// synced from it (sync_shard_into), whose per-link lists serve them. Nor
// does it plan: the multi-read planner (§4.3) tries its split on a view, so
// the table only ever receives committed decisions. It is intentionally
// non-copyable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "net/network_view.hpp"
#include "net/paths.hpp"
#include "net/shard_map.hpp"
#include "obs/observability.hpp"
#include "sdn/switch.hpp"
#include "sim/time.hpp"

namespace mayflower::flowserver {

struct TrackedFlow {
  sdn::Cookie cookie = 0;
  net::Path path;
  double size_bytes = 0.0;
  double remaining_bytes = 0.0;
  double bw_bps = 0.0;  // current share: estimate or last accepted measurement
  bool frozen = false;
  sim::SimTime freeze_until;

  // Poll bookkeeping for measuring bandwidth as delta(bytes)/delta(t).
  double last_poll_bytes = 0.0;
  sim::SimTime last_poll_time;
};

class FlowStateTable {
 public:
  FlowStateTable();
  FlowStateTable(const FlowStateTable&) = delete;
  FlowStateTable& operator=(const FlowStateTable&) = delete;

  // Installs the edge-switch partition. Must run at wiring time, before any
  // flow is tracked; the default single-shard layout needs no call.
  void set_shard_map(net::ShardMap map);
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const net::ShardMap& shard_map() const { return shard_map_; }

  // Registers a newly scheduled flow with its estimated share; the new flow
  // starts frozen (its estimate must survive until the next poll cycle).
  // When `freeze_enabled` is false (ablation) flows are never frozen.
  void add(sdn::Cookie cookie, net::Path path, double size_bytes,
           double est_bw_bps, sim::SimTime now);

  // Flow finished or was cancelled (the "drop request" the paper tracks).
  void drop(sdn::Cookie cookie);

  // SETBW: overwrite the share estimate and freeze (Pseudocode 2, 19-23).
  void setbw(sdn::Cookie cookie, double bw_bps, sim::SimTime now);

  // Adjusts a just-registered flow's size (multi-read split sizing, §4.3).
  // Refreshes the freeze horizon to match the new expected completion.
  void resize(sdn::Cookie cookie, double new_size_bytes, sim::SimTime now);

  // UPDATEBW: apply one stats-poll sample (Pseudocode 2, 12-18). The
  // remaining size is always refreshed from the counter, clamped at zero
  // when the sample overshoots the tracked size; the bandwidth only when
  // not frozen (or the freeze expired).
  void update_from_stats(sdn::Cookie cookie, double cumulative_bytes,
                         sim::SimTime now);

  void set_freeze_enabled(bool enabled) { freeze_enabled_ = enabled; }
  bool freeze_enabled() const { return freeze_enabled_; }

  // Attaches the flow tracer (plan registrations, resizes, SETBW, freeze
  // suppressions) and the freeze-suppression counter. Null detaches.
  void set_obs(obs::Observability* hub);

  // Entries whose share is a frozen estimate at `now` (freeze not expired).
  std::size_t frozen_count(sim::SimTime now) const;

  // Cumulative poll updates the freeze state suppressed (UPDATEBW rejected).
  std::uint64_t freeze_suppressed_total() const;

  const TrackedFlow* find(sdn::Cookie cookie) const;
  bool contains(sdn::Cookie cookie) const { return find(cookie) != nullptr; }
  std::size_t size() const;

  // Monotonic mutation counter: the sum of every shard's version, bumped by
  // every state-changing operation (add/drop/setbw/resize/
  // update_from_stats). A NetworkView built from this table is
  // stale once version() moves past the value recorded at build time —
  // unless the mutations were the decision batch's own write-through
  // commits, which the Flowserver accounts for.
  std::uint64_t version() const;

  // Per-shard mutation counter: moves only when a flow IN that shard is
  // mutated, so a snapshot consumer reloads exactly the shards that changed.
  std::uint64_t shard_version(std::uint32_t s) const;

  // Installs the table's shard map into `view`, which must hold no flows,
  // and syncs every shard in: the belief section of a fresh decision
  // snapshot.
  void snapshot_into(net::NetworkView& view) const;

  // Brings shard `s` of `view` (partitioned by the same map) in line with
  // the table's shard `s`, in place: a flow the view already holds on the
  // same path has only its sizes and share overwritten, a flow the table
  // no longer tracks leaves, and a new one is inserted. Also the first
  // build of an empty view. In !NDEBUG builds the result is checked against
  // a fresh copy of the shard.
  void sync_shard_into(net::NetworkView& view, std::uint32_t s) const;

 private:
  // One partition of the table. All hot state sits behind the shard's own
  // mutex so workers touching disjoint shards never contend.
  struct Shard {
    mutable common::Mutex mu;
    std::map<sdn::Cookie, TrackedFlow> flows GUARDED_BY(mu);
    std::uint64_t version GUARDED_BY(mu) = 0;
    std::uint64_t freeze_suppressed GUARDED_BY(mu) = 0;
  };

  // Syncs shard `s` of `view` from `sh` (shard `s`), whose mutex the caller
  // holds.
  static void sync_from(const Shard& sh, std::uint32_t s,
                        net::NetworkView& view) REQUIRES(sh.mu);

  // The shard a cookie routes to; shard 0 always when unsharded. Returns
  // nullptr for cookies the table does not track (sharded lookups only —
  // the single-shard layout resolves unknown cookies inside the shard).
  Shard* shard_for(sdn::Cookie cookie) const;

  // Concurrency: the table is written only by the control thread (commits,
  // polls, drops); decision workers read the immutable NetworkView snapshot,
  // never the table. The per-shard mutexes make that contract checkable —
  // every shard member is GUARDED_BY its mutex, so an unlocked access from
  // a future worker path is a compile error under -Wthread-safety (and the
  // TSan lane would catch the same dynamically). Lock order: route_mu_
  // before any shard mutex; shard mutexes are never nested with each other
  // (cross-shard reads lock one shard at a time); any obs mutex is a leaf.
  net::ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cookie -> shard routing (sharded layouts only; a single shard routes
  // everything to shard 0 without touching this map).
  mutable common::Mutex route_mu_;
  std::map<sdn::Cookie, std::uint32_t> route_ GUARDED_BY(route_mu_);

  bool freeze_enabled_ = true;  // set once at wiring time
  obs::FlowTracer* trace_ = nullptr;  // set once at wiring time
  obs::Counter freeze_suppressed_;
};

}  // namespace mayflower::flowserver
