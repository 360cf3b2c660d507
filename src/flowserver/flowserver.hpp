// The Flowserver service (§3.3.3): the filesystem-facing RPC surface of the
// SDN controller application.
//
// Responsibilities, as in the paper:
//  * keep per-flow bandwidth/remaining estimates (FlowStateTable), refreshed
//    by periodic flow-stats polls of the edge switches;
//  * answer replica-selection requests by running the replica–path selection
//    algorithm (plus the multi-read split when profitable) and installing the
//    chosen paths into the switches;
//  * track flow add/drop requests in between polls so estimates stay usable
//    without polling at very short intervals.
//
// Decisions run through a snapshot pipeline: requests enqueue, a decision
// batch drains them against ONE epoch-stamped NetworkView (rebuilt only when
// a poll, drop or fault moved the underlying state), every request is
// evaluated against that batch-start view, commits then replay in batch
// order writing through to table and view, and all chosen paths are
// installed via the fabric's bulk API with a single metrics flush. The
// synchronous entry points are batches of one.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/worker_pool.hpp"
#include "flowserver/assignment.hpp"
#include "flowserver/multiread.hpp"
#include "flowserver/selector.hpp"
#include "flowserver/telemetry.hpp"
#include "flowserver/writechain.hpp"
#include "sdn/fabric.hpp"
#include "sdn/link_rate_monitor.hpp"
#include "sdn/stats_poller.hpp"

namespace mayflower::flowserver {

// How long a partial admission batch waits after its first request before it
// drains anyway.
inline constexpr sim::SimTime kBatchWindow = sim::SimTime::from_millis(5.0);

struct FlowserverConfig {
  sim::SimTime poll_interval = sim::SimTime::from_seconds(1.0);
  bool multiread_enabled = true;
  bool freeze_enabled = true;   // ablation: disable the update-freeze state
  bool impact_aware = true;     // ablation: drop Eq. 2's existing-flow term
  std::uint64_t seed = 0x5eedULL;  // tie-breaking randomness (placement)
  // Admission batching: a drain fires as soon as `batch_size` requests are
  // queued, or kBatchWindow after the first one, whichever comes first.
  // batch_size 1 keeps every entry point synchronous (batch-of-one).
  std::size_t batch_size = 1;
  // Decision workers (>= 1): every request in a batch is evaluated against
  // the batch-start view (1 = inline on the control thread, N = a worker
  // pool of N), then commits replay serially in batch order. Decisions are
  // byte-identical at every worker count by construction.
  std::size_t decision_threads = 1;
  // Which shard map partitions the flow table and the view's believed-flow
  // section: one shard per source edge switch
  // (net::ShardMap::by_edge_switch, the k >= 16 scale path), or one shard
  // holding every flow. Both refresh through the same code: a poll, drop or
  // fault stales the shards it touched and the next refresh reloads exactly
  // those, so with edge shards selection cost scales with flows per edge
  // instead of cluster flows. Decisions are byte-identical under either
  // map — it changes which sections a refresh copies, never what a query
  // returns.
  bool shard_by_edge = false;
  // Adaptive budgeted telemetry (Floware-style, DESIGN.md §14): classify
  // flows as elephants vs mice from per-poll byte deltas, apply elephant
  // samples every cycle, mouse samples every telemetry.mouse_period cycles,
  // and at most telemetry.samples_budget samples per tick. The default
  // config keeps the layer inactive and the full-rate sweep byte-identical.
  TelemetryConfig telemetry;
  // Optional observability hub (not owned): selection audits, freeze
  // suppression, poll-cycle work all land here. Null measures nothing.
  obs::Observability* obs = nullptr;
};

class Flowserver {
 public:
  // Receives the finished plan for one queued request (empty =
  // unavailable).
  using PlanCallback = std::function<void(std::vector<ReadAssignment>)>;
  // External replica policy hook for the batched path: picks one of
  // `replicas` (all of which have at least one live path to `client` in the
  // view) reading utilization/liveness from the batch's snapshot.
  using ReplicaChooser = std::function<net::NodeId(
      net::NodeId client, const std::vector<net::NodeId>& replicas,
      const net::NetworkView& view)>;
  // External write-placement policy hook (e.g. a
  // policy::MeasuredWritePlacement's rank): ranks candidate hosts for a new
  // replica against the view and returns the tied-best band;
  // best_write_target() breaks the tie with the seeded Rng. Null keeps the
  // historical model-based ranking.
  using WriteRanker = std::function<std::vector<net::NodeId>(
      net::NodeId writer, const std::vector<net::NodeId>& candidates,
      const net::NetworkView& view)>;

  Flowserver(sdn::SdnFabric& fabric, FlowserverConfig config);

  Flowserver(const Flowserver&) = delete;
  Flowserver& operator=(const Flowserver&) = delete;

  // Begins periodic stats collection. Idempotent.
  void start();
  void stop();

  // --- batched admission ------------------------------------------------

  // One admission request. A read names its `client` and the `replicas`
  // holding the data; `chooser`, when set, fixes the replica via an
  // external policy (evaluated against the batch's view at decision time),
  // and when null the selector optimizes replica and path jointly. A write
  // sets `write` and carries its replication chain in `replicas`: the host
  // sequence the bytes traverse (writer, primary, replica, ...; consecutive
  // hosts distinct), at least 2 hosts; `client` and `chooser` are unused.
  // The write's plan holds one assignment per routed hop in chain order
  // (path chain[i] -> chain[i+1]), every hop SETBW'd to the chain
  // bottleneck so it finishes together; an unreachable hop truncates the
  // plan. `done` runs from the drain with the plan (empty when every
  // replica, or a write's first hop, is unreachable).
  struct Request {
    net::NodeId client = net::kInvalidNode;
    std::vector<net::NodeId> replicas = {};
    double bytes = 0.0;
    bool write = false;
    ReplicaChooser chooser = nullptr;
    PlanCallback done = nullptr;
  };

  // Queues one request. The batch drains immediately once
  // config.batch_size requests are queued, else kBatchWindow after
  // the first enqueue.
  void enqueue(Request req) EXCLUDES(queue_mu_);

  // Producer-thread-safe enqueue: pushes the request and nothing else — no
  // batch-window timer (the event queue is control-thread-only by design).
  // Posted requests are decided by the next control-thread drain(). This is
  // the only Flowserver entry point callable off the control thread.
  void post(Request req) EXCLUDES(queue_mu_);

  // Decides everything queued right now against one view and installs all
  // chosen paths through the fabric's bulk API. Returns the number of
  // requests decided.
  std::size_t drain() EXCLUDES(queue_mu_);

  std::size_t queued() const EXCLUDES(queue_mu_) {
    common::MutexLock lock(queue_mu_);
    return queue_.size();
  }

  // --- synchronous wrappers (batch-of-one) ------------------------------

  // RPC from a client about to read `bytes` replicated on `replicas`:
  // performs replica+path selection (split across two replicas when
  // profitable), installs the paths in the switches, registers the flows.
  // The caller then starts each assignment via fabric().start_flow(cookie,
  // path, bytes, ...) and reports completion with flow_dropped(). An empty
  // replica list yields an empty plan (kUnavailable), not an assert.
  std::vector<ReadAssignment> select_for_read(
      net::NodeId client, const std::vector<net::NodeId>& replicas,
      double bytes);

  // Synchronous wrapper (batch-of-one) for a write Request.
  std::vector<ReadAssignment> plan_write(const std::vector<net::NodeId>& chain,
                                         double bytes);

  // Flow drop notification (read finished or aborted).
  void flow_dropped(sdn::Cookie cookie);

  // Extension (§3.3): Sinbad-like collaborative replica placement. Ranks
  // `candidates` by the max-min share a write flow from `writer` would get
  // over its best path and returns the winner. The paper's nameserver
  // places replicas statically but notes it "would be relatively
  // straightforward" to make the decision collaboratively — this is that
  // hook.
  net::NodeId best_write_target(net::NodeId writer,
                                const std::vector<net::NodeId>& candidates);

  // Installs/clears the write-placement ranking best_write_target uses.
  void set_write_ranker(WriteRanker ranker) {
    write_ranker_ = std::move(ranker);
  }

  // One stats-collection cycle (also runs on the poll timer).
  void collect_stats();

  // --- the decision snapshot --------------------------------------------

  // The current decision view, rebuilt first if any of its inputs moved:
  // the table's mutation version (polls, drops), the fabric's state epoch
  // (faults) or the rate monitor's sample count. The pipeline's own
  // write-through commits do NOT stale the view.
  const net::NetworkView& view();
  std::uint64_t view_rebuilds() const { return view_rebuilds_; }
  // Forces the next view() to rebuild regardless of epochs.
  void invalidate_view() { view_built_ = false; }

  // View-refresh telemetry, the same under every shard map: one full
  // rebuild per first build or manual invalidate, then per-shard reloads
  // (in-place syncs of a stale shard) and link-section refreshes (a
  // one-shard server syncs its single shard on every table change).
  std::uint32_t state_shards() const { return table_.shard_count(); }
  std::uint64_t full_view_rebuilds() const { return full_rebuilds_; }
  std::uint64_t shard_reloads() const { return shard_reloads_; }
  std::uint64_t link_refreshes() const { return link_refreshes_; }

  // Attaches a rate monitor whose per-link tx rates are copied into every
  // view (Sinbad-R's utilization signal). Not owned; null detaches.
  void set_rate_monitor(const sdn::LinkRateMonitor* monitor) {
    monitor_ = monitor;
    view_built_ = false;
  }

  sdn::SdnFabric& fabric() { return *fabric_; }
  FlowStateTable& table() { return table_; }
  const FlowserverConfig& config() const { return config_; }

  // Telemetry for tests/benchmarks.
  std::uint64_t selections() const { return selections_; }
  std::uint64_t split_reads() const { return split_reads_; }
  std::uint64_t write_chains() const { return write_chains_; }
  std::uint64_t write_hops() const { return write_hops_; }
  std::uint64_t write_truncated() const { return write_truncated_; }
  std::uint64_t polls() const { return polls_; }
  // Per-flow counter samples APPLIED across all polls (deferred samples,
  // samples of flows the table does not track and finished flows' final
  // counters are not counted — they update nothing), so it equals
  // flowserver.poll.applied and the flowserver.poll.samples_per_tick sum.
  // With the fabric's per-edge index this totals O(applied samples) per
  // cycle, independent of the number of edge switches swept.
  std::uint64_t stats_samples() const { return stats_samples_; }
  // The adaptive telemetry layer's books: classification counts, deferred
  // samples, promotions/demotions. Inactive (all zeros) by default.
  const AdaptiveTelemetry& telemetry() const { return telemetry_; }

 private:
  ReadAssignment to_assignment(const Candidate& c, sdn::Cookie cookie,
                               double bytes) const;

  // Records one committed selection in the decision-audit trace.
  void audit_decision(const SelectStats& stats, const CostBreakdown& cost,
                      sim::SimTime now, bool split);

  bool view_stale() const;
  void refresh_view();
  // Re-stamps the view's shard sections at the table's current versions and
  // refreshes seen_table_version_ — how a refresh records what it synced,
  // and how a drain absorbs its own write-through commits without forcing
  // shard syncs that would find identical state.
  void absorb_table_versions();

  // Replicas with at least one live path to `client` in the current view,
  // original order preserved.
  std::vector<net::NodeId> reachable_replicas(
      net::NodeId client, const std::vector<net::NodeId>& replicas);

  // One decided request: the plan to hand back plus its completion callback.
  struct Decided {
    PlanCallback done;
    std::vector<ReadAssignment> plan;
  };

  // One batch slot. The serial pre-phase fills the request half (effective
  // replicas, pre-drawn cookies); the parallel evaluate phase fills the
  // result half; the serial replay consumes it.
  struct Slot {
    net::NodeId client = net::kInvalidNode;
    double bytes = 0.0;
    std::vector<net::NodeId> replicas;  // effective (chooser already applied)
    bool unavailable = false;           // no replicas / none reachable
    bool multiread = false;
    bool write = false;                 // replicas holds the chain nodes
    std::vector<sdn::Cookie> cookies;   // pre-drawn (multiread/write slots)
    std::optional<Candidate> best;      // single-path result
    std::vector<SubflowPlan> plans;     // multiread result
    std::vector<ChainHopPlan> chain;    // write result
    SelectStats stats;
  };

  // Turns a routed chain into plan assignments (est_bw reports the chain
  // bottleneck) and records the write books. `requested_hops` is what the
  // caller asked for — fewer routed hops means the chain was truncated by
  // an unreachable host.
  std::vector<ReadAssignment> finish_chain(
      const std::vector<ChainHopPlan>& plans,
      const std::vector<sdn::Cookie>& cookies, std::size_t requested_hops,
      double bytes, const SelectStats& stats, sim::SimTime now);

  // Enqueues `req` with a callback capturing its plan, drains, and returns
  // the plan (the synchronous wrappers' batch of one).
  std::vector<ReadAssignment> decide_now(Request req);

  // Decides one drained batch: serial pre-phase + evaluation against the
  // batch-start view (parallel over decision_threads workers) + in-order
  // commit replay.
  void decide_batch(std::deque<Request>& batch, sim::SimTime now,
                    std::vector<Decided>& results);

  // Did the armed batch-window event survive to its firing time?
  bool drain_generation_is(std::uint64_t gen) const EXCLUDES(queue_mu_) {
    common::MutexLock lock(queue_mu_);
    return gen == drain_gen_;
  }

  sdn::SdnFabric* fabric_;
  FlowserverConfig config_;
  net::PathCache paths_;
  FlowStateTable table_;
  ReplicaPathSelector selector_;
  MultiReadPlanner planner_;
  WriteChainPlanner chain_planner_;
  sdn::StatsPoller poller_;
  Rng rng_;
  WriteRanker write_ranker_;
  std::vector<net::NodeId> edge_switches_;
  std::uint64_t selections_ = 0;
  std::uint64_t split_reads_ = 0;
  std::uint64_t write_chains_ = 0;
  std::uint64_t write_hops_ = 0;
  std::uint64_t write_truncated_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t stats_samples_ = 0;
  AdaptiveTelemetry telemetry_;
  // Totals already flushed into the promotion/demotion counters (the metric
  // handles take deltas once per tick, not one inc per transition).
  std::uint64_t flushed_promotions_ = 0;
  std::uint64_t flushed_demotions_ = 0;

  // Decision snapshot state.
  const sdn::LinkRateMonitor* monitor_ = nullptr;
  net::NetworkView view_;
  bool view_built_ = false;
  std::uint64_t view_epoch_ = 0;
  std::uint64_t view_rebuilds_ = 0;
  std::uint64_t seen_table_version_ = 0;
  std::uint64_t seen_fabric_epoch_ = 0;
  std::uint64_t seen_monitor_samples_ = 0;

  // Refresh work counters; per-shard freshness lives in the view's shard
  // stamps (table shard version at sync time).
  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t shard_reloads_ = 0;
  std::uint64_t link_refreshes_ = 0;

  // Admission queue. Guarded so producer threads can post() while the
  // control thread drains; everything else in the Flowserver stays
  // control-thread-only. Lock order: queue_mu_ is a leaf — nothing is
  // called while it is held.
  mutable common::Mutex queue_mu_;
  std::deque<Request> queue_ GUARDED_BY(queue_mu_);
  // A kBatchWindow drain event is pending.
  bool drain_armed_ GUARDED_BY(queue_mu_) = false;
  // Invalidates armed events once drained.
  std::uint64_t drain_gen_ GUARDED_BY(queue_mu_) = 0;

  // Decision workers, created on the first drain (one worker runs inline
  // and spawns no thread).
  std::unique_ptr<common::WorkerPool> pool_;

  // Observability (no-ops until config.obs is set).
  obs::Counter selections_metric_;
  obs::Counter split_reads_metric_;
  obs::Histogram poll_samples_hist_;  // per-cycle samples applied (work/tick)
  // View-refresh metrics (flowserver.shard.*).
  obs::Counter full_rebuilds_metric_;
  obs::Counter shard_reloads_metric_;
  obs::Counter link_refreshes_metric_;
  // Stats-poll telemetry metrics (flowserver.poll.*).
  obs::Counter poll_applied_metric_;
  obs::Counter poll_deferred_mouse_metric_;
  obs::Counter poll_deferred_budget_metric_;
  obs::Counter poll_promotions_metric_;
  obs::Counter poll_demotions_metric_;
  obs::Gauge poll_elephants_gauge_;
  obs::Gauge poll_mice_gauge_;
  // Write-path metrics (flowserver.write.*).
  obs::Counter write_chains_metric_;
  obs::Counter write_hops_metric_;
  obs::Counter write_truncated_metric_;
  obs::Histogram write_bottleneck_hist_;
};

}  // namespace mayflower::flowserver
