#include "sdn/fabric.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mayflower::sdn {
namespace {

// The access switch of a host: the far end of its (single) uplink.
net::NodeId edge_of(const net::Topology& topo, net::NodeId host) {
  const auto& ups = topo.out_links(host);
  if (ups.empty()) return net::kInvalidNode;
  return topo.link(ups.front()).to;
}

}  // namespace

SdnFabric::SdnFabric(sim::EventQueue& events, const net::Topology& topo)
    : events_(&events), topo_(&topo), flow_sim_(events, topo) {
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != net::NodeKind::kHost) {
      switches_.emplace(n, Switch(n));
    }
  }
  flow_sim_.set_kill_handler(
      [this](const net::FlowRecord& f) { on_flow_killed(f); });
}

void SdnFabric::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    trace_ = nullptr;
    installs_ = removes_ = flows_started_ = flows_completed_ = obs::Counter{};
    flows_failed_ = reroutes_ = link_downs_ = link_restores_ = obs::Counter{};
    switch_wipes_ = edge_polls_ = obs::Counter{};
    flow_sim_.set_metrics(nullptr);
    return;
  }
  trace_ = &hub->trace;
  obs::MetricsRegistry& reg = hub->metrics;
  installs_ = reg.counter("sdn.fabric.path_installs");
  removes_ = reg.counter("sdn.fabric.path_removes");
  flows_started_ = reg.counter("sdn.fabric.flows_started");
  flows_completed_ = reg.counter("sdn.fabric.flows_completed");
  flows_failed_ = reg.counter("sdn.fabric.flows_failed");
  reroutes_ = reg.counter("sdn.fabric.reroutes");
  link_downs_ = reg.counter("sdn.fabric.link_downs");
  link_restores_ = reg.counter("sdn.fabric.link_restores");
  switch_wipes_ = reg.counter("sdn.fabric.switch_wipes");
  edge_polls_ = reg.counter("sdn.fabric.edge_polls");
  flow_sim_.set_metrics(&reg);
}

Switch& SdnFabric::mutable_switch(net::NodeId node) {
  const auto it = switches_.find(node);
  MAYFLOWER_ASSERT_MSG(it != switches_.end(), "node is not a switch");
  return it->second;
}

const Switch& SdnFabric::switch_at(net::NodeId node) const {
  const auto it = switches_.find(node);
  MAYFLOWER_ASSERT_MSG(it != switches_.end(), "node is not a switch");
  return it->second;
}

void SdnFabric::install_entries(Cookie cookie, const net::Path& path) {
  // Each intermediate node forwards onto the next link. The first link
  // leaves the source host (no switch entry needed there).
  if (path.links.size() < 2) return;
  std::vector<net::NodeId>& at = installed_at_[cookie];
  for (std::size_t i = 1; i < path.links.size(); ++i) {
    const net::NodeId node = path.nodes[i];
    mutable_switch(node).install(cookie, path.links[i]);
    if (std::find(at.begin(), at.end(), node) == at.end()) at.push_back(node);
  }
}

void SdnFabric::install_path(Cookie cookie, const net::Path& path) {
  install_entries(cookie, path);
  installs_.inc();
}

void SdnFabric::install_paths(const std::vector<PathInstall>& batch) {
  for (const PathInstall& p : batch) {
    MAYFLOWER_ASSERT(p.path != nullptr);
    install_entries(p.cookie, *p.path);
  }
  installs_.inc(static_cast<std::uint64_t>(batch.size()));
}

void SdnFabric::remove_path(Cookie cookie) {
  // Only the switches an install wrote can hold the cookie. A crashed
  // switch's table is already wiped; removing from it is a no-op.
  if (const auto it = installed_at_.find(cookie); it != installed_at_.end()) {
    for (const net::NodeId node : it->second) {
      mutable_switch(node).remove(cookie);
    }
    installed_at_.erase(it);
  }
  removes_.inc();
}

bool SdnFabric::path_installed(Cookie cookie, const net::Path& path) const {
  // The first link leaves the source host; every later one leaves a switch.
  for (std::size_t i = 1; i < path.links.size(); ++i) {
    if (i >= path.nodes.size()) return false;
    const auto it = switches_.find(path.nodes[i]);
    if (it == switches_.end() || it->second.lookup(cookie) != path.links[i]) {
      return false;
    }
  }
  return true;
}

void SdnFabric::unindex_edge_flow(net::NodeId src_edge, Cookie cookie) {
  if (src_edge == net::kInvalidNode) return;
  const auto it = edge_flows_.find(src_edge);
  MAYFLOWER_ASSERT(it != edge_flows_.end());
  it->second.erase(cookie);
  if (it->second.empty()) edge_flows_.erase(it);
}

void SdnFabric::start_flow(Cookie cookie, const net::Path& path, double bytes,
                           CompletionFn on_complete, FailureFn on_fail) {
  MAYFLOWER_ASSERT_MSG(active_.find(cookie) == active_.end(),
                       "cookie already has an active flow");
  if (!flow_sim_.path_alive(path)) {
    // The chosen path is already dead (the scheme did not know): the
    // transfer fails immediately, but asynchronously — callers observe the
    // same event-loop contract as a mid-flight failure.
    net::FlowRecord stillborn;
    stillborn.path = path;
    stillborn.size_bytes = bytes;
    stillborn.remaining_bytes = bytes;
    stillborn.tag = cookie;
    stillborn.start_time = events_->now();
    events_->schedule_in(
        sim::SimTime{},
        [this, cookie, stillborn = std::move(stillborn),
         on_fail = std::move(on_fail)]() mutable {
          remove_path(cookie);
          flows_failed_.inc();
          if (trace_ != nullptr) {
            trace_->flow_killed(cookie, events_->now().seconds(), 0.0);
          }
          notify_flow_failed(cookie, stillborn, std::move(on_fail));
        });
    return;
  }
  MAYFLOWER_ASSERT_MSG(path_installed(cookie, path),
                       "flow started before its path was installed");

  ActiveFlow rec;
  rec.src_edge = path.links.empty() ? net::kInvalidNode
                                    : edge_of(*topo_, path.nodes.front());
  rec.on_fail = std::move(on_fail);
  const net::FlowId id = flow_sim_.start_flow(
      path, bytes,
      [this, cookie, on_complete](const net::FlowRecord& f) {
        // Preserve the final counter for the next stats poll, then retire.
        const auto it = active_.find(cookie);
        MAYFLOWER_ASSERT(it != active_.end());
        if (it->second.src_edge != net::kInvalidNode) {
          completed_[it->second.src_edge].push_back(
              FlowStatsRecord{cookie, f.size_bytes, false});
        }
        unindex_edge_flow(it->second.src_edge, cookie);
        active_.erase(it);
        remove_path(cookie);
        flows_completed_.inc();
        if (trace_ != nullptr) {
          trace_->flow_completed(cookie, events_->now().seconds(),
                                 f.size_bytes);
        }
        if (on_complete) on_complete(cookie, f.start_time);
      },
      cookie);
  rec.flow_id = id;
  active_.emplace(cookie, rec);
  if (rec.src_edge != net::kInvalidNode) {
    edge_flows_[rec.src_edge].emplace(cookie, id);
  }
  flows_started_.inc();
  if (trace_ != nullptr) {
    trace_->flow_started(cookie, events_->now().seconds());
  }
}

void SdnFabric::notify_flow_failed(Cookie cookie,
                                   const net::FlowRecord& record,
                                   FailureFn on_fail) {
  for (const auto& listener : failure_listeners_) listener(cookie);
  if (on_fail) on_fail(cookie, record);
}

void SdnFabric::on_flow_killed(const net::FlowRecord& record) {
  // The simulator already removed the flow and re-solved the survivors; the
  // fabric retires the cookie like a completion, minus the final counter (a
  // dead flow's bytes never reached the client).
  const Cookie cookie = record.tag;
  const auto it = active_.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != active_.end(),
                       "killed flow is not an active fabric transfer");
  FailureFn on_fail = std::move(it->second.on_fail);
  unindex_edge_flow(it->second.src_edge, cookie);
  active_.erase(it);
  remove_path(cookie);
  flows_failed_.inc();
  if (trace_ != nullptr) {
    trace_->flow_killed(cookie, events_->now().seconds(),
                        record.bytes_sent());
  }
  notify_flow_failed(cookie, record, std::move(on_fail));
}

bool SdnFabric::fail_link(net::LinkId link) {
  const bool changed = flow_sim_.fail_link(link);
  if (changed) {
    link_downs_.inc();
    ++state_epoch_;
  }
  return changed;
}

bool SdnFabric::restore_link(net::LinkId link) {
  const bool changed = flow_sim_.restore_link(link);
  if (changed) {
    link_restores_.inc();
    ++state_epoch_;
  }
  return changed;
}

void SdnFabric::fail_switch(net::NodeId node) {
  MAYFLOWER_ASSERT_MSG(switches_.find(node) != switches_.end(),
                       "node is not a switch");
  if (!switch_up(node)) return;
  // Mark the switch down before killing flows: failure listeners may
  // re-select paths and must already see it dead.
  std::vector<net::LinkId>& downed = down_switches_[node];
  for (const net::LinkId l : topo_->out_links(node)) {
    if (flow_sim_.fail_link(l)) downed.push_back(l);
  }
  for (const net::LinkId l : topo_->in_links(node)) {
    if (flow_sim_.fail_link(l)) downed.push_back(l);
  }
  // A crash wipes the flow table and whatever counters a poll would have
  // read.
  mutable_switch(node).clear();
  completed_.erase(node);
  switch_wipes_.inc();
  ++state_epoch_;
}

void SdnFabric::restore_switch(net::NodeId node) {
  const auto it = down_switches_.find(node);
  if (it == down_switches_.end()) return;
  const std::vector<net::LinkId> downed = std::move(it->second);
  down_switches_.erase(it);
  for (const net::LinkId l : downed) flow_sim_.restore_link(l);
  ++state_epoch_;
}

bool SdnFabric::cancel_flow(Cookie cookie) {
  const auto it = active_.find(cookie);
  if (it == active_.end()) return false;
  flow_sim_.cancel(it->second.flow_id);
  unindex_edge_flow(it->second.src_edge, cookie);
  active_.erase(it);
  remove_path(cookie);
  return true;
}

bool SdnFabric::reroute_flow(Cookie cookie, const net::Path& new_path) {
  const auto it = active_.find(cookie);
  if (it == active_.end()) return false;
  // Make-before-break: the new entries land, the flow moves, then the stale
  // entries (those not shared with the new path) disappear.
  remove_path(cookie);
  install_path(cookie, new_path);
  const bool ok = flow_sim_.reroute(it->second.flow_id, new_path);
  MAYFLOWER_ASSERT(ok);
  reroutes_.inc();
  if (trace_ != nullptr) trace_->flow_rerouted(cookie);
  return true;
}

bool SdnFabric::flow_active(Cookie cookie) const {
  return active_.find(cookie) != active_.end();
}

const net::FlowRecord* SdnFabric::flow_record(Cookie cookie) {
  const auto it = active_.find(cookie);
  if (it == active_.end()) return nullptr;
  flow_sim_.sync();
  return flow_sim_.find(it->second.flow_id);
}

std::vector<FlowStatsRecord> SdnFabric::poll_edge_flow_stats(
    net::NodeId edge_switch) {
  flow_sim_.sync();
  edge_polls_.inc();
  std::vector<FlowStatsRecord> out;
  // The per-edge index replaces the sweep over every active flow in the
  // fabric: only this switch's flows are read, in cookie order.
  if (const auto eit = edge_flows_.find(edge_switch);
      eit != edge_flows_.end()) {
    out.reserve(eit->second.size());
    for (const auto& [cookie, flow_id] : eit->second) {
      const net::FlowRecord* f = flow_sim_.find(flow_id);
      MAYFLOWER_ASSERT(f != nullptr);
      out.push_back(FlowStatsRecord{cookie, f->bytes_sent(), true,
                                    f->rate_bps});
    }
  }
  if (const auto it = completed_.find(edge_switch); it != completed_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
    completed_.erase(it);
  }
  return out;
}

std::vector<PortStatsRecord> SdnFabric::poll_port_stats(
    net::NodeId switch_node) {
  flow_sim_.sync();
  std::vector<PortStatsRecord> out;
  for (const net::LinkId l : topo_->out_links(switch_node)) {
    out.push_back(PortStatsRecord{l, flow_sim_.link_tx_bytes(l),
                                  topo_->link(l).capacity_bps});
  }
  return out;
}

double SdnFabric::port_bytes(net::LinkId link) {
  flow_sim_.sync();
  return flow_sim_.link_tx_bytes(link);
}

void SdnFabric::snapshot_liveness_into(net::NetworkView& view) const {
  const std::size_t n = topo_->link_count();
  for (net::LinkId l = 0; l < static_cast<net::LinkId>(n); ++l) {
    if (!flow_sim_.link_up(l)) view.mark_link_down(l);
  }
}

void SdnFabric::snapshot_flow_stats_into(net::NetworkView& view) {
  flow_sim_.sync();
  // active_ iterates in hash order, but the view keys its telemetry map by
  // cookie, so the snapshot's CONTENT is deterministic regardless of the
  // order entries land. Zero-hop transfers are included: schedulers that
  // estimate per-host demand count them even though they cross no link.
  // lint:allow(nondet)
  for (const auto& [cookie, rec] : active_) {
    const net::FlowRecord* f = flow_sim_.find(rec.flow_id);
    MAYFLOWER_ASSERT(f != nullptr);
    net::NetworkView::FlowStats stats;
    stats.bytes_sent = f->bytes_sent();
    stats.path = f->path;
    view.set_flow_stats(cookie, std::move(stats));
  }
}

}  // namespace mayflower::sdn
