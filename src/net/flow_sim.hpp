// Fluid (flow-level) network simulator.
//
// Active flows continuously transfer bytes at the max-min fair rates a
// steady-state TCP mesh would converge to; rates are recomputed whenever the
// flow set changes. Between changes, transfers progress linearly, so the
// simulator only needs events at flow starts, cancellations and the earliest
// predicted completion.
//
// Storage is slot-indexed. Flow records and completion callbacks live in
// slot vectors whose freed slots are reused; live_ lists the (id, slot) of
// every active flow in ascending id, and each link keeps the slots of the
// flows crossing it, also in ascending id. Every loop reads records
// straight out of a slot; no lookup goes through a tree or a hash.
//
// Rate maintenance is incremental: a change re-solves only the dirty
// region — the flows sharing links with the changed flow, expanded until
// every flow again holds a max-min bottleneck certificate. Untouched
// connected components keep their rates. If the dirty set outgrows a
// quarter of all flows (a heavily saturated mesh can couple most of the
// network), the recompute hands off to the full progressive-filling solve,
// which also remains available as a runtime mode (Config::incremental =
// false) and as an equivalence cross-check (#ifndef NDEBUG, and
// rates_match_full_solve() for tests in any build type).
//
// Every floating-point sum keeps one order, so rates, completion times and
// link byte counters are reproducible to the bit:
//   * the solver reads the dirty flows in id order;
//   * residual capacities and a round's per-link (load, max rate) sum a
//     link's flows in id order;
//   * advance_to_now() adds to the link byte counters in flow-id order;
//   * completions fire, and a failed link's flows die, in id order.
//
// This is the substitution for the paper's Mininet/Open vSwitch testbed: the
// quantities the evaluation measures (completion times under contention, link
// byte counters) are produced by the same sharing dynamics, deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/fair_share.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace mayflower::net {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

struct FlowRecord {
  FlowId id = kInvalidFlow;
  Path path;                      // empty links => zero-hop (host-local) flow
  double size_bytes = 0.0;
  double remaining_bytes = 0.0;
  double rate_bps = 0.0;          // bytes/s, current allocation
  double demand_bps = kInfiniteDemand;
  std::uint64_t tag = 0;          // opaque caller cookie (job id, RPC id, ...)
  sim::SimTime start_time;

  NodeId src() const { return path.nodes.front(); }
  NodeId dst() const { return path.nodes.back(); }
  double bytes_sent() const { return size_bytes - remaining_bytes; }
};

class FlowSim {
 public:
  struct Config {
    // Rate granted to zero-hop flows (client and server on the same host);
    // stands in for a local read through the page cache.
    double zero_hop_bps = kZeroHopBps;
    // When false, every change re-runs the global progressive-filling solve
    // (the pre-index behavior; kept as ground truth for benchmarks/tests).
    bool incremental = true;
  };

  using CompletionFn = std::function<void(const FlowRecord&)>;
  // Invoked (after rates are consistent again) for every flow killed by a
  // link failure. The record carries the progress made up to the failure.
  using KillFn = std::function<void(const FlowRecord&)>;

  FlowSim(sim::EventQueue& events, const Topology& topo, Config config);
  FlowSim(sim::EventQueue& events, const Topology& topo)
      : FlowSim(events, topo, Config{}) {}

  FlowSim(const FlowSim&) = delete;
  FlowSim& operator=(const FlowSim&) = delete;

  // Starts a flow along `path` (nodes must be non-empty; links may be empty
  // for a host-local transfer). `on_complete` runs from the event loop at the
  // completion instant. Returns the flow id.
  FlowId start_flow(Path path, double size_bytes, CompletionFn on_complete,
                    std::uint64_t tag = 0, double demand = kInfiniteDemand);

  // Cancels an in-flight flow (no completion callback). Returns false if the
  // flow already completed or never existed.
  bool cancel(FlowId id);

  // Moves an in-flight flow onto a new path with the same endpoints (what a
  // dynamic flow scheduler like Hedera does when it reroutes an elephant).
  // Progress is preserved; rates recompute immediately. Returns false if the
  // flow no longer exists.
  bool reroute(FlowId id, Path new_path);

  // Advances all byte counters to the current simulation time. Call before
  // reading counters outside of a flow event (e.g. from the stats poller).
  void sync();

  // --- link faults (fault-injection surface) ----------------------------
  //
  // Invariant maintained here: no active flow ever crosses a down link.
  // fail_link() enforces it by killing the flows on the link (progress is
  // kept in the record handed to the kill handler; no completion fires);
  // callers must not start flows over down links (see path_alive()).

  // Takes `link` down: effective capacity drops to zero and every flow
  // crossing it is killed (kill handler runs per flow, after the remaining
  // rates are consistent again). Returns false if the link was already down.
  bool fail_link(LinkId link);

  // Brings a failed link back at its configured capacity (times any set
  // degradation factor). Returns false if the link was not down.
  bool restore_link(LinkId link);

  // Scales a link's capacity by `factor` in (0, 1] of its configured value
  // (a slow/degraded NIC or port). Rates recompute immediately; flows are
  // never killed by degradation. factor = 1 restores full speed.
  void set_link_capacity_factor(LinkId link, double factor);

  bool link_up(LinkId link) const {
    MAYFLOWER_ASSERT(link < link_up_.size());
    return link_up_[link] != 0;
  }

  // True when every link of `path` is up (zero-hop paths are always alive).
  bool path_alive(const Path& path) const;

  // Effective capacity (bytes/s) of `link`: configured capacity times the
  // degradation factor, or 0 while the link is down. Asserts on unknown ids.
  double link_capacity(LinkId link) const {
    MAYFLOWER_ASSERT_MSG(link < link_capacity_.size(), "unknown link");
    return link_capacity_[link];
  }

  void set_kill_handler(KillFn handler) { kill_handler_ = std::move(handler); }

  // The record of an active flow, or nullptr. O(log active flows).
  //
  // find() and flows_on_link() point into slot storage: a pointer stays
  // valid only until the next start, cancel, reroute, link fault or
  // completion. Read through it at once; keep the FlowId, not the pointer.
  const FlowRecord* find(FlowId id) const;
  std::size_t active_flow_count() const { return live_.size(); }

  // Active flows whose path crosses `link`, in id order. O(flows on link).
  std::vector<const FlowRecord*> flows_on_link(LinkId link) const;

  // Cumulative bytes carried by `link` since construction (advance with
  // sync()). Mirrors an OpenFlow port byte counter.
  double link_tx_bytes(LinkId link) const;

  // Instantaneous utilization in [0, 1]: sum of allocated rates / capacity.
  // O(flows on link), summed in id order.
  double link_utilization(LinkId link) const;

  // Switches between incremental and full recompute at runtime (benchmarks
  // compare the two on identical state). The next change re-solves under the
  // new mode.
  void set_incremental(bool incremental) { config_.incremental = incremental; }

  // True when every stored rate matches a from-scratch progressive-filling
  // solve within `rel_eps` relative tolerance. Always compiled (tests run it
  // explicitly in release builds); also asserted after every incremental
  // recompute in !NDEBUG builds.
  bool rates_match_full_solve(double rel_eps = 1e-6) const;

  // Publishes solve counters (net.flowsim.{incremental,full,handoff}_solves)
  // into `registry`; null detaches. Call before traffic starts.
  void set_metrics(obs::MetricsRegistry* registry);

  const Topology& topology() const { return *topo_; }
  sim::EventQueue& events() { return *events_; }

 private:
  // Index of a flow's record in records_. A freed slot is reused by a later
  // start, so a slot names a flow only while that flow is active.
  using Slot = std::uint32_t;
  struct LiveFlow {
    FlowId id = kInvalidFlow;
    Slot slot = 0;
  };

  // Stores `f` and its callback in a free slot (growing the slot vectors
  // when none is free) and returns the slot.
  Slot claim_slot(FlowRecord f, CompletionFn on_complete);
  // Resets the slot's record and callback, so a reuse starts clean, and
  // puts the slot on the free list.
  void release_slot(Slot s);
  // The live_ entry of `id`, or nullptr. Binary search: ids ascend.
  const LiveFlow* find_live(FlowId id) const;
  void erase_live(FlowId id);
  // Adds the slot to / removes it from the list of every link on its
  // record's path, keeping each list in id order. Both read the record's id
  // and links, so unlink a slot before moving its record out.
  void link_slot(Slot s);
  void unlink_slot(Slot s);

  void advance_to_now();
  // Re-solves rates after a change whose affected links are `seed_links`
  // (union of old and new paths of every changed flow).
  void recompute_after_change(const std::vector<LinkId>& seed_links);
  void recompute_full();
  void recompute_incremental(const std::vector<LinkId>& seed_links);
  // Every active flow as the solver reads it, in id order (zero-hop flows
  // at their bounded demand).
  void collect_all(std::vector<FlowLinks>& out) const;
  // This round's (load, max rate) over the flows crossing `link`, summed in
  // id order on the first query of the round and cached until the next.
  std::pair<double, double> round_link_stats(LinkId link);
  void schedule_next_completion();
  void on_completion_event();

  sim::EventQueue* events_;
  const Topology* topo_;
  Config config_;

  FlowId next_id_ = 1;
  // Slot storage: records_[s] and completion_fns_[s] belong to the flow in
  // slot s; free_slots_ holds the slots no active flow uses.
  std::vector<FlowRecord> records_;
  std::vector<CompletionFn> completion_fns_;
  std::vector<Slot> free_slots_;
  // Every active flow, ascending id: the global iteration order. Ids are
  // allocated monotonically, so a start appends.
  std::vector<LiveFlow> live_;
  // link -> slots of the flows crossing it, ascending id.
  std::vector<std::vector<Slot>> link_slots_;
  // Effective capacities (what the solver sees): base * factor while up,
  // 0 while down. Base capacities come from the topology at construction.
  std::vector<double> link_capacity_;
  std::vector<double> base_capacity_;
  std::vector<double> capacity_factor_;
  std::vector<char> link_up_;
  KillFn kill_handler_;
  std::vector<double> link_bytes_;
  sim::SimTime last_advance_;
  sim::EventId completion_event_;

  // Working state of the re-solves, kept across changes so a dirty-set
  // round allocates nothing once the buffers have grown. solve_flows_
  // borrows the dirty records' link lists: each round refills it before
  // use, and nothing reads it after the solve that filled it.
  MaxMinSolver solver_;
  std::vector<FlowLinks> solve_flows_;
  std::vector<double> solve_rates_;
  std::vector<LiveFlow> dirty_;         // ascending id, unique
  std::vector<LiveFlow> expand_;
  std::vector<LiveFlow> merged_;
  std::vector<LinkId> region_;          // links some dirty flow crosses
  std::vector<double> scratch_capacity_;
  // Per-slot flag: set exactly while the slot's flow is in dirty_, and
  // clear again whenever no recompute is running.
  std::vector<char> slot_dirty_;
  // Every dirty-set round bumps round_. A stamp equal to round_ marks a
  // link as already in this round's region (region_stamp_), a slot as
  // already touched (touch_stamp_), or a link's (load, max rate) aggregate
  // as current (round_stamp_), so one bump invalidates all of them.
  std::vector<std::uint64_t> region_stamp_;
  std::vector<std::uint64_t> touch_stamp_;
  std::vector<double> round_load_;
  std::vector<double> round_max_rate_;
  std::vector<std::uint64_t> round_stamp_;
  std::uint64_t round_ = 0;

  // Observability: how often the incremental path sufficed vs. re-ran the
  // global solve (directly or via the dirty-set handoff).
  obs::Counter incremental_solves_;
  obs::Counter full_solves_;
  obs::Counter handoff_solves_;
};

}  // namespace mayflower::net
