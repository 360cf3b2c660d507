#include "flowserver/flowserver.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.hpp"

namespace mayflower::flowserver {

Flowserver::Flowserver(sdn::SdnFabric& fabric, FlowserverConfig config)
    : fabric_(&fabric),
      config_(config),
      paths_(fabric.topology()),
      selector_(fabric.topology(), paths_, table_),
      planner_(selector_),
      chain_planner_(selector_),
      poller_(fabric.events(), config.poll_interval,
              [this] { collect_stats(); }),
      rng_(config.seed),
      telemetry_(config.telemetry) {
  MAYFLOWER_ASSERT_MSG(config_.batch_size >= 1, "batch_size must be >= 1");
  MAYFLOWER_ASSERT_MSG(config_.decision_threads == 1,
                       "decisions run on one thread");
  table_.set_freeze_enabled(config.freeze_enabled);
  selector_.set_impact_aware(config.impact_aware);
  if (config_.obs != nullptr) {
    table_.set_obs(config_.obs);
    poller_.set_metrics(&config_.obs->metrics);
    selections_metric_ = config_.obs->metrics.counter("flowserver.selections");
    split_reads_metric_ =
        config_.obs->metrics.counter("flowserver.split_reads");
    // Per-cycle work: counter samples applied in one collection cycle. In a
    // deterministic simulation this is what "poll tick latency" means — the
    // wall-clock cost is O(samples) through the per-edge index.
    poll_samples_hist_ = config_.obs->metrics.histogram(
        "flowserver.poll.samples_per_tick",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
    write_chains_metric_ =
        config_.obs->metrics.counter("flowserver.write.chains");
    write_hops_metric_ = config_.obs->metrics.counter("flowserver.write.hops");
    write_truncated_metric_ =
        config_.obs->metrics.counter("flowserver.write.truncated");
    write_bottleneck_hist_ = config_.obs->metrics.histogram(
        "flowserver.write.bottleneck_bps", {1e6, 1e7, 1e8, 1e9, 1e10});
    // Stats-poll telemetry: applied samples in either mode; deferrals and
    // classes stay 0 unless the adaptive layer is on.
    poll_applied_metric_ =
        config_.obs->metrics.counter("flowserver.poll.applied");
    poll_deferred_mouse_metric_ =
        config_.obs->metrics.counter("flowserver.poll.deferred_mouse");
    poll_deferred_budget_metric_ =
        config_.obs->metrics.counter("flowserver.poll.deferred_budget");
    poll_promotions_metric_ =
        config_.obs->metrics.counter("flowserver.poll.promotions");
    poll_demotions_metric_ =
        config_.obs->metrics.counter("flowserver.poll.demotions");
    poll_elephants_gauge_ =
        config_.obs->metrics.gauge("flowserver.poll.elephants");
    poll_mice_gauge_ = config_.obs->metrics.gauge("flowserver.poll.mice");
  }
  // Failure awareness: a killed transfer's (frozen) estimate must expire —
  // its bandwidth is free again and SETBW state for it would be stale
  // forever. Path liveness itself reaches decisions through the view's
  // snapshot of fabric state, refreshed whenever the fault epoch moves.
  fabric_->add_flow_failure_listener([this](sdn::Cookie cookie) {
    table_.drop(cookie);
    telemetry_.forget(cookie);
  });
  edge_switches_ = net::edge_switches(fabric.topology());
}

void Flowserver::start() { poller_.start(); }
void Flowserver::stop() { poller_.stop(); }

bool Flowserver::view_stale() const {
  return !view_built_ || !table_.changes().empty() ||
         fabric_->state_epoch() != seen_fabric_epoch_ ||
         (monitor_ != nullptr && monitor_->samples() != seen_monitor_samples_);
}

void Flowserver::refresh_view() {
  // Full rebuild: the first build, or a manual invalidate — the view can no
  // longer be trusted to hold the table as of the last clear, so it is
  // emptied and reloaded, and the log cleared. Otherwise the refresh is
  // incremental: it overlays the link sections only if the fabric epoch or
  // the rate monitor moved (O(links), no flow copying), then applies the
  // table's change log, touching exactly the flows a poll, drop or SETBW
  // changed. Queries on the result are byte-identical to a full rebuild's:
  // the sync leaves the view holding exactly the table's flows, and every
  // link lists its flows in ascending key, so sync order cannot leak into
  // answers.
  if (!view_built_) {
    view_.reset_links(fabric_->topology());
    fabric_->snapshot_liveness_into(view_);
    if (monitor_ != nullptr) monitor_->snapshot_into(view_);
    table_.snapshot_into(view_);
    table_.clear_changes();
  } else {
    if (fabric_->state_epoch() != seen_fabric_epoch_ ||
        (monitor_ != nullptr &&
         monitor_->samples() != seen_monitor_samples_)) {
      view_.refresh_link_state(fabric_->topology());
      fabric_->snapshot_liveness_into(view_);
      if (monitor_ != nullptr) monitor_->snapshot_into(view_);
      ++link_refreshes_;
    }
    if (!table_.changes().empty()) {
      table_.sync_changes_into(view_);
      ++shard_reloads_;
    }
  }
  view_.stamp(++view_epoch_, fabric_->events().now());
  seen_fabric_epoch_ = fabric_->state_epoch();
  seen_monitor_samples_ = monitor_ != nullptr ? monitor_->samples() : 0;
  view_built_ = true;
  ++view_rebuilds_;
}

const net::NetworkView& Flowserver::view() {
  if (view_stale()) refresh_view();
  return view_;
}

ReadAssignment Flowserver::to_assignment(const Candidate& c,
                                         sdn::Cookie cookie,
                                         double bytes) const {
  ReadAssignment a;
  a.cookie = cookie;
  a.replica = c.replica;
  a.path = c.path;
  a.bytes = bytes;
  a.est_bw_bps = c.est_bw_bps;
  return a;
}

void Flowserver::audit_decision(const SelectStats& stats,
                                const CostBreakdown& cost, sim::SimTime now,
                                bool split) {
  if (config_.obs == nullptr) return;
  obs::DecisionAudit audit;
  audit.time_sec = now.seconds();
  audit.candidates = static_cast<std::uint32_t>(stats.candidates_evaluated);
  audit.own_time_sec = cost.own_time;
  audit.impact_sec = cost.impact;
  audit.frozen_flows = static_cast<std::uint32_t>(table_.frozen_count(now));
  audit.freeze_suppressed = table_.freeze_suppressed_total();
  audit.split = split;
  config_.obs->trace.decision(audit);
}

std::vector<net::NodeId> Flowserver::reachable_replicas(
    net::NodeId client, const std::vector<net::NodeId>& replicas) {
  std::vector<net::NodeId> live;
  live.reserve(replicas.size());
  for (const net::NodeId r : replicas) {
    for (const net::Path& p : paths_.get(r, client)) {
      if (view_.path_alive(p)) {
        live.push_back(r);
        break;
      }
    }
  }
  return live;
}

std::vector<ReadAssignment> Flowserver::finish_chain(
    const std::vector<ChainHopPlan>& plans,
    const std::vector<sdn::Cookie>& cookies, std::size_t requested_hops,
    double bytes, const SelectStats& stats, sim::SimTime now) {
  std::vector<ReadAssignment> out;
  out.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ReadAssignment a = to_assignment(plans[i].candidate, cookies[i], bytes);
    // A chain moves as one unit: report the jointly-scheduled rate, not the
    // hop's standalone share.
    a.est_bw_bps = plans[i].planned_bps;
    out.push_back(std::move(a));
  }
  if (plans.size() < requested_hops) {
    ++write_truncated_;
    write_truncated_metric_.inc();
  }
  if (!plans.empty()) {
    ++write_chains_;
    write_hops_ += plans.size();
    write_chains_metric_.inc();
    write_hops_metric_.inc(plans.size());
    write_bottleneck_hist_.observe(plans[0].planned_bps);
    audit_decision(stats, plans[0].candidate.cost, now, false);
  }
  return out;
}

void Flowserver::enqueue(Request req) {
  MAYFLOWER_ASSERT_MSG(!req.write || req.replicas.size() >= 2,
                       "a write chain needs >= 2 hosts");
  queue_.push_back(std::move(req));
  if (queue_.size() >= config_.batch_size) {
    drain();
    return;
  }
  if (!drain_armed_) {
    drain_armed_ = true;
    fabric_->events().schedule_in(kBatchWindow, [this, gen = drain_gen_] {
      // A size-triggered drain may have already flushed the batch this
      // event was armed for; in that case the generation moved on.
      if (gen != drain_gen_) return;
      drain();
    });
  }
}

std::vector<ReadAssignment> Flowserver::decide_now(Request req) {
  std::vector<ReadAssignment> out;
  req.done = [&out](std::vector<ReadAssignment> plan) {
    out = std::move(plan);
  };
  enqueue(std::move(req));
  drain();  // no-op when the enqueue already size-triggered the batch
  return out;
}

std::vector<ReadAssignment> Flowserver::plan_write(
    const std::vector<net::NodeId>& chain, double bytes) {
  return decide_now({.replicas = chain, .bytes = bytes, .write = true});
}

std::size_t Flowserver::drain() {
  drain_armed_ = false;
  ++drain_gen_;
  if (queue_.empty()) return 0;
  std::deque<Request> batch;
  batch.swap(queue_);

  // One snapshot for the whole batch. Stale inputs (a poll, a fault, a drop
  // since the last build) force a rebuild here — never mid-batch.
  view();
  const sim::SimTime now = fabric_->events().now();

  std::vector<Decided> results;
  results.reserve(batch.size());
  decide_batch(batch, now, results);
  // The batch's own write-through commits logged their cookies; the view
  // already reflects them, so clear the log instead of syncing it.
  table_.clear_changes();

  // Bulk path install: one fabric call, one install-metrics flush for the
  // whole batch. Must precede the callbacks — they start the flows.
  std::vector<sdn::SdnFabric::PathInstall> installs;
  for (const Decided& d : results) {
    for (const ReadAssignment& a : d.plan) {
      installs.push_back({a.cookie, &a.path});
    }
  }
  fabric_->install_paths(installs);

  for (Decided& d : results) {
    if (d.done) d.done(std::move(d.plan));
  }
  return batch.size();
}

void Flowserver::decide_batch(std::deque<Request>& batch, sim::SimTime now,
                              std::vector<Decided>& results) {
  // --- pre-phase (batch order) ------------------------------------------
  // Everything order-sensitive that is NOT the evaluation itself happens
  // here: chooser policies run against the batch view, and multiread slots
  // pre-draw their cookie pair, so every multiread and write cookie is drawn
  // before any slot is evaluated.
  std::vector<Slot> slots(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = batch[i];
    Slot& s = slots[i];
    s.client = req.client;
    s.bytes = req.bytes;
    if (req.replicas.empty()) {
      s.unavailable = true;
      continue;
    }
    if (req.write) {
      // Write slots pre-draw every hop cookie here, even for hops that go
      // unrouted: cookie assignment must not depend on how far the chain
      // gets.
      s.write = true;
      s.replicas = std::move(req.replicas);
      s.cookies.reserve(s.replicas.size() - 1);
      for (std::size_t h = 0; h + 1 < s.replicas.size(); ++h) {
        s.cookies.push_back(fabric_->new_cookie());
      }
      continue;
    }
    if (req.chooser != nullptr) {
      // External replica policy: it sees only replicas the view can reach,
      // so a policy blind to faults never strands the request on a dead
      // subtree.
      const std::vector<net::NodeId> live =
          reachable_replicas(req.client, req.replicas);
      if (live.empty()) {
        s.unavailable = true;
        continue;
      }
      s.replicas.assign(1, req.chooser(req.client, live, view_));
      continue;
    }
    s.replicas = std::move(req.replicas);
    if (config_.multiread_enabled && s.replicas.size() > 1) {
      s.multiread = true;
      s.cookies = {fabric_->new_cookie(), fabric_->new_cookie()};
    }
  }

  // --- evaluate (against the batch-start view) --------------------------
  // Single-path slots read view_ directly (select() is pure). Multiread and
  // write slots plan inside a view tentative scope that is rolled back
  // before the slot returns, so every slot sees exactly the batch-start
  // state, whatever slots were evaluated before it.
  for (Slot& s : slots) {
    if (s.unavailable) continue;
    if (s.write) {
      s.chain = chain_planner_.plan_readonly(view_, s.replicas,
                                             units::Bytes{s.bytes}, s.cookies,
                                             &s.stats);
    } else if (s.multiread) {
      s.plans = planner_.plan_readonly(view_, s.client, s.replicas, s.bytes,
                                       s.cookies, &s.stats);
    } else {
      s.best = selector_.select(view_, s.client, s.replicas, s.bytes,
                                &s.stats);
    }
  }

  // --- replay (batch order) ----------------------------------------------
  // Commits write through table + view with the usual stale-share clamp, so
  // a slot planned against the batch-start snapshot can never raise a flow
  // above what an earlier slot's commit already lowered it to.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& s = slots[i];
    Decided d;
    d.done = std::move(batch[i].done);
    // Every answered request counts as one selection — including the ones
    // the view proves unserviceable (kUnavailable), whose plan stays empty
    // so the caller retries after backoff.
    ++selections_;
    selections_metric_.inc();
    if (s.unavailable) {
      results.push_back(std::move(d));
      continue;
    }
    if (s.write) {
      chain_planner_.commit_plans(view_, s.chain, units::Bytes{s.bytes},
                                  s.cookies, now);
      d.plan = finish_chain(s.chain, s.cookies, s.cookies.size(), s.bytes,
                            s.stats, now);
      results.push_back(std::move(d));
      continue;
    }
    if (s.multiread) {
      if (s.plans.size() == 2) {
        // Both subflows land with the full request size, then subflow 1
        // takes its adjusted share and both take their split sizes.
        selector_.commit(view_, s.plans[0].candidate, s.cookies[0], s.bytes,
                         now);
        selector_.commit(view_, s.plans[1].candidate, s.cookies[1], s.bytes,
                         now);
        selector_.setbw(view_, s.cookies[0], s.plans[0].planned_bps, now);
        selector_.resize(view_, s.cookies[0], s.plans[0].bytes, now);
        selector_.resize(view_, s.cookies[1], s.plans[1].bytes, now);
        ++split_reads_;
        split_reads_metric_.inc();
        if (config_.obs != nullptr) {
          config_.obs->trace.mark_split(s.cookies[0]);
          config_.obs->trace.mark_split(s.cookies[1]);
        }
        d.plan.push_back(
            to_assignment(s.plans[0].candidate, s.cookies[0],
                          s.plans[0].bytes));
        d.plan.push_back(
            to_assignment(s.plans[1].candidate, s.cookies[1],
                          s.plans[1].bytes));
        audit_decision(s.stats, s.plans[0].candidate.cost, now, true);
      } else if (s.plans.size() == 1) {
        selector_.commit(view_, s.plans[0].candidate, s.cookies[0], s.bytes,
                         now);
        d.plan.push_back(
            to_assignment(s.plans[0].candidate, s.cookies[0], s.bytes));
        audit_decision(s.stats, s.plans[0].candidate.cost, now, false);
      }
    } else if (s.best.has_value()) {
      // Single-path slots draw their cookie at replay, in batch order and
      // only on success.
      const sdn::Cookie cookie = fabric_->new_cookie();
      selector_.commit(view_, *s.best, cookie, s.bytes, now);
      d.plan.push_back(to_assignment(*s.best, cookie, s.bytes));
      audit_decision(s.stats, s.best->cost, now, false);
    }
    results.push_back(std::move(d));
  }
}

std::vector<ReadAssignment> Flowserver::select_for_read(
    net::NodeId client, const std::vector<net::NodeId>& replicas,
    double bytes) {
  return decide_now({.client = client, .replicas = replicas, .bytes = bytes});
}

void Flowserver::flow_dropped(sdn::Cookie cookie) {
  table_.drop(cookie);
  telemetry_.forget(cookie);
}

net::NodeId Flowserver::best_write_target(
    net::NodeId writer, const std::vector<net::NodeId>& candidates) {
  MAYFLOWER_ASSERT(!candidates.empty());
  const net::NetworkView& v = view();
  // The ranking itself is a stateless policy over the view (the model-based
  // default or an injected WriteRanker); only the tie-break draw
  // lives here. Ties are common (an idle fabric offers every candidate the
  // same share) and MUST break randomly: deterministic ties would stack
  // every file's replicas onto the same few hosts.
  const std::vector<net::NodeId> ties =
      write_ranker_ != nullptr
          ? write_ranker_(writer, candidates, v)
          : rank_write_targets_by_model(selector_.model(), paths_, writer,
                                        candidates, v);
  MAYFLOWER_ASSERT(!ties.empty());
  return ties[rng_.next_below(ties.size())];
}

void Flowserver::collect_stats() {
  ++polls_;
  const std::uint64_t samples_before = stats_samples_;
  const sim::SimTime now = fabric_->events().now();
  // Every tick sweeps every edge switch once: one collection cycle.
  const std::uint64_t cycle = polls_ - 1;
  const bool adaptive = telemetry_.active();
  if (adaptive) telemetry_.begin_tick(cycle);

  // Under a binding samples budget the sweep's start edge rotates by cycle
  // so flows of later-indexed edges are not systematically the ones past
  // the cutoff.
  const std::size_t edges = edge_switches_.size();
  const std::size_t first =
      adaptive && config_.telemetry.samples_budget > 0 && edges > 0
          ? static_cast<std::size_t>(cycle % edges)
          : 0;
  for (std::size_t k = 0; k < edges; ++k) {
    const net::NodeId edge = edge_switches_[(first + k) % edges];
    // A crashed switch answers no polls; its flows were killed with it and
    // the failure listener already dropped their table entries.
    if (!fabric_->switch_up(edge)) continue;
    // Indexed poll: each edge returns exactly its own flows (cookie order),
    // so a full cycle costs O(applied samples), not O(edges x fabric flows).
    for (const sdn::FlowStatsRecord& rec :
         fabric_->poll_edge_flow_stats(edge)) {
      if (!rec.active) {
        // Final counter of a finished flow: the drop request usually beat us
        // here; dropping again is harmless. Final counters are flow-removed
        // notifications, not polled samples: they bypass the telemetry
        // budget (dropping state must never be deferred) and are never
        // counted as applied.
        table_.drop(rec.cookie);
        telemetry_.forget(rec.cookie);
        continue;
      }
      const TrackedFlow* f = table_.find(rec.cookie);
      // Traffic the Flowserver did not plan (ECMP uploads, background
      // elephants) has no belief to update: its sample is neither applied
      // nor charged to the budget.
      if (f == nullptr) continue;
      // Estimator audit: how far is the share the table believes (frozen
      // estimate or last accepted measurement) from the rate the data plane
      // is actually giving the flow right now? Sampled before UPDATEBW so
      // the freeze's effect on belief accuracy is visible — and sampled for
      // DEFERRED flows too, so the audit series keeps full-rate cadence and
      // budget points stay comparable (the audit is experiment
      // instrumentation, not controller work the budget accounts for).
      if (config_.obs != nullptr && rec.rate_bps > 0.0) {
        config_.obs->trace.belief_error_sample(
            std::abs(f->bw_bps - rec.rate_bps) / rec.rate_bps);
      }
      if (adaptive) {
        // Classification signal: the flow's byte delta over the window since
        // its last APPLIED sample (a deferred mouse accumulates window, so
        // its next applied sample still measures the true average rate).
        const double window = (now - f->last_poll_time).seconds();
        const double window_rate =
            window > 0.0 ? (rec.bytes - f->last_poll_bytes) / window
                         : rec.rate_bps;
        const double edge_cap =
            f->path.links.empty()
                ? 0.0
                : fabric_->topology().link(f->path.links.front()).capacity_bps;
        const AdaptiveTelemetry::Verdict verdict =
            telemetry_.admit(rec.cookie, window_rate, edge_cap);
        if (verdict == AdaptiveTelemetry::Verdict::kDeferMouse) {
          poll_deferred_mouse_metric_.inc();
          continue;
        }
        if (verdict == AdaptiveTelemetry::Verdict::kDeferBudget) {
          poll_deferred_budget_metric_.inc();
          continue;
        }
      }
      ++stats_samples_;
      poll_applied_metric_.inc();
      table_.update_from_stats(rec.cookie, rec.bytes, now);
    }
  }
  if (adaptive && config_.obs != nullptr) {
    poll_promotions_metric_.inc(telemetry_.promotions() - flushed_promotions_);
    poll_demotions_metric_.inc(telemetry_.demotions() - flushed_demotions_);
    flushed_promotions_ = telemetry_.promotions();
    flushed_demotions_ = telemetry_.demotions();
    poll_elephants_gauge_.set(static_cast<double>(telemetry_.elephants()));
    poll_mice_gauge_.set(static_cast<double>(telemetry_.mice()));
  }
  poll_samples_hist_.observe(
      static_cast<double>(stats_samples_ - samples_before));
}

}  // namespace mayflower::flowserver
