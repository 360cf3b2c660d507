// The Flowserver's view of every Mayflower-related flow in the network.
//
// Implements the bandwidth bookkeeping of Pseudocode 2 (§4.2):
//  * SETBW — after a selection commits, bumped flows get their *estimated*
//    share written and enter the update-freeze state for a period
//    proportional to their expected completion time (T = now + remaining/bw);
//  * UPDATEBW — a stats-poll measurement overwrites the estimate only if the
//    flow is not frozen or its freeze has expired.
//
// Every state-changing operation (add/drop/setbw/resize/update_from_stats)
// appends its cookie to a CHANGE LOG, at most once per tracked flow between
// two syncs, so the decision view refreshes exactly the flows a poll, drop or
// SETBW touched (sync_changes_into) instead of re-copying the table.
//
// The table answers no per-link queries: decisions read a NetworkView
// synced from it, whose per-link lists serve them. Nor does it plan: the
// multi-read planner (§4.3) tries its split on a view, so the table only
// ever receives committed decisions. It is intentionally non-copyable.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network_view.hpp"
#include "net/paths.hpp"
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

  // The change-log flag: the flow is in the table's log iff this equals the
  // log's current generation (so clearing the log touches no flow).
  std::uint64_t logged_gen = 0;
};

class FlowStateTable {
 public:
  FlowStateTable() = default;
  FlowStateTable(const FlowStateTable&) = delete;
  FlowStateTable& operator=(const FlowStateTable&) = delete;

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
  std::uint64_t freeze_suppressed_total() const {
    return freeze_suppressed_total_;
  }

  const TrackedFlow* find(sdn::Cookie cookie) const;
  bool contains(sdn::Cookie cookie) const { return find(cookie) != nullptr; }
  std::size_t size() const { return flows_.size(); }

  // --- the change log ---------------------------------------------------

  // Cookies changed since the log was last cleared, each once, in the order
  // of their first change since then. A cookie dropped and re-added in
  // between may appear twice; syncing it twice is harmless.
  const std::vector<sdn::Cookie>& changes() const { return log_; }

  // Clears the log: the caller's view already reflects every logged change
  // (a full rebuild, or a decision batch's own write-through commits).
  void clear_changes();

  // Installs every tracked flow into `view`, which must hold none: the
  // belief section of a fresh decision snapshot. Leaves the log alone.
  void snapshot_into(net::NetworkView& view) const;

  // Brings `view`, which held exactly the table's flows when the log was
  // last cleared, in line with the table by applying the log alone: each
  // logged cookie the table still tracks is upserted, the rest dropped.
  // Then clears the log. In !NDEBUG builds the result is checked against a
  // fresh copy of the whole table.
  void sync_changes_into(net::NetworkView& view);

 private:
  // Appends `f` to the change log unless it is already there.
  void log_change(TrackedFlow& f) {
    if (f.logged_gen == log_gen_) return;
    f.logged_gen = log_gen_;
    log_.push_back(f.cookie);
  }

  std::map<sdn::Cookie, TrackedFlow> flows_;
  std::vector<sdn::Cookie> log_;
  std::uint64_t log_gen_ = 1;  // 0 marks a flow never logged
  std::uint64_t freeze_suppressed_total_ = 0;

  bool freeze_enabled_ = true;  // set once at wiring time
  obs::FlowTracer* trace_ = nullptr;  // set once at wiring time
  obs::Counter freeze_suppressed_;
};

}  // namespace mayflower::flowserver
