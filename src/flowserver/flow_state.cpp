#include "flowserver/flow_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mayflower::flowserver {

FlowStateTable::FlowStateTable() {
  shards_.push_back(std::make_unique<Shard>());
}

void FlowStateTable::set_shard_map(net::ShardMap map) {
  MAYFLOWER_ASSERT_MSG(size() == 0,
                       "install the shard map before tracking flows");
  shard_map_ = std::move(map);
  shards_.clear();
  for (std::uint32_t s = 0; s < shard_map_.shard_count(); ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  common::MutexLock lock(route_mu_);
  route_.clear();
}

FlowStateTable::Shard* FlowStateTable::shard_for(sdn::Cookie cookie) const {
  if (shards_.size() == 1) return shards_[0].get();
  common::MutexLock lock(route_mu_);
  const auto it = route_.find(cookie);
  return it == route_.end() ? nullptr : shards_[it->second].get();
}

void FlowStateTable::add(sdn::Cookie cookie, net::Path path,
                         double size_bytes, double est_bw_bps,
                         sim::SimTime now) {
  const std::uint32_t s = shard_map_.shard_of_path(path);
  if (shards_.size() > 1) {
    common::MutexLock route_lock(route_mu_);
    MAYFLOWER_ASSERT_MSG(route_.find(cookie) == route_.end(),
                         "cookie already tracked");
    route_.emplace(cookie, s);
  }
  Shard& sh = *shards_[s];
  common::MutexLock lock(sh.mu);
  MAYFLOWER_ASSERT_MSG(sh.flows.find(cookie) == sh.flows.end(),
                       "cookie already tracked");
  MAYFLOWER_ASSERT(size_bytes > 0.0 && est_bw_bps > 0.0);
  ++sh.version;
  TrackedFlow f;
  f.cookie = cookie;
  f.path = std::move(path);
  f.size_bytes = size_bytes;
  f.remaining_bytes = size_bytes;
  f.bw_bps = est_bw_bps;
  f.last_poll_time = now;
  if (freeze_enabled_) {
    f.frozen = true;
    f.freeze_until = now + sim::SimTime::from_seconds(size_bytes / est_bw_bps);
  }
  sh.flows.emplace(cookie, std::move(f));
  if (trace_ != nullptr) {
    trace_->flow_planned(cookie, now.seconds(), size_bytes, est_bw_bps);
  }
}

void FlowStateTable::set_obs(obs::Observability* hub) {
  if (hub == nullptr) {
    trace_ = nullptr;
    freeze_suppressed_ = obs::Counter{};
    return;
  }
  trace_ = &hub->trace;
  freeze_suppressed_ =
      hub->metrics.counter("flowserver.table.freeze_suppressed");
}

std::size_t FlowStateTable::frozen_count(sim::SimTime now) const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    common::MutexLock lock(sh->mu);
    for (const auto& [cookie, f] : sh->flows) {
      if (f.frozen && now <= f.freeze_until) ++n;
    }
  }
  return n;
}

std::uint64_t FlowStateTable::freeze_suppressed_total() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    common::MutexLock lock(sh->mu);
    n += sh->freeze_suppressed;
  }
  return n;
}

void FlowStateTable::drop(sdn::Cookie cookie) {
  Shard* sh = shard_for(cookie);
  if (sh == nullptr) return;
  {
    common::MutexLock lock(sh->mu);
    const auto it = sh->flows.find(cookie);
    if (it == sh->flows.end()) return;
    ++sh->version;
    sh->flows.erase(it);
  }
  if (shards_.size() > 1) {
    common::MutexLock route_lock(route_mu_);
    route_.erase(cookie);
  }
}

const TrackedFlow* FlowStateTable::find(sdn::Cookie cookie) const {
  const Shard* sh = shard_for(cookie);
  if (sh == nullptr) return nullptr;
  common::MutexLock lock(sh->mu);
  const auto it = sh->flows.find(cookie);
  return it == sh->flows.end() ? nullptr : &it->second;
}

std::size_t FlowStateTable::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    common::MutexLock lock(sh->mu);
    n += sh->flows.size();
  }
  return n;
}

std::uint64_t FlowStateTable::version() const {
  std::uint64_t v = 0;
  for (const auto& sh : shards_) {
    common::MutexLock lock(sh->mu);
    v += sh->version;
  }
  return v;
}

std::uint64_t FlowStateTable::shard_version(std::uint32_t s) const {
  MAYFLOWER_ASSERT(s < shards_.size());
  common::MutexLock lock(shards_[s]->mu);
  return shards_[s]->version;
}

void FlowStateTable::setbw(sdn::Cookie cookie, double bw_bps,
                            sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  MAYFLOWER_ASSERT_MSG(sh != nullptr, "setbw on unknown flow");
  common::MutexLock lock(sh->mu);
  const auto it = sh->flows.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != sh->flows.end(), "setbw on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  ++sh->version;
  TrackedFlow& f = it->second;
  f.bw_bps = bw_bps;
  if (freeze_enabled_) {
    f.frozen = true;
    f.freeze_until =
        now + sim::SimTime::from_seconds(f.remaining_bytes / bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_bw_set(cookie, bw_bps);
}

void FlowStateTable::resize(sdn::Cookie cookie, double new_size_bytes,
                            sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  MAYFLOWER_ASSERT_MSG(sh != nullptr, "resize on unknown flow");
  common::MutexLock lock(sh->mu);
  const auto it = sh->flows.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != sh->flows.end(), "resize on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  ++sh->version;
  TrackedFlow& f = it->second;
  f.size_bytes = new_size_bytes;
  f.remaining_bytes = new_size_bytes;
  if (freeze_enabled_ && f.frozen) {
    f.freeze_until =
        now + sim::SimTime::from_seconds(new_size_bytes / f.bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_resized(cookie, new_size_bytes);
}

void FlowStateTable::update_from_stats(sdn::Cookie cookie,
                                       double cumulative_bytes,
                                       sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  if (sh == nullptr) return;  // raced with a drop; counters can arrive late
  common::MutexLock lock(sh->mu);
  const auto it = sh->flows.find(cookie);
  if (it == sh->flows.end()) return;
  ++sh->version;
  TrackedFlow& f = it->second;

  // Remaining size always tracks the counter (§4: "remaining sizes of the
  // existing flows are measured through flow stats"), clamped at zero when
  // a sample overshoots the tracked size (multi-read resize can shrink the
  // size below what the counter already carried).
  f.remaining_bytes = std::max(f.size_bytes - cumulative_bytes, 0.0);

  const double dt = (now - f.last_poll_time).seconds();
  const double delta = cumulative_bytes - f.last_poll_bytes;
  f.last_poll_bytes = cumulative_bytes;
  f.last_poll_time = now;
  if (dt <= 0.0) return;

  const bool accept = !f.frozen || now > f.freeze_until;
  if (accept) {
    const double measured = delta / dt;
    if (measured > 0.0) {
      f.bw_bps = measured;
    }
    f.frozen = false;
  } else {
    // UPDATEBW suppressed: the frozen estimate outranks the measurement.
    ++sh->freeze_suppressed;
    freeze_suppressed_.inc();
    if (trace_ != nullptr) trace_->freeze_hit(cookie);
  }
}

void FlowStateTable::snapshot_into(net::NetworkView& view) const {
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    snapshot_shard_into(view, s);
  }
}

void FlowStateTable::snapshot_shard_into(net::NetworkView& view,
                                         std::uint32_t s) const {
  MAYFLOWER_ASSERT(s < shards_.size());
  const Shard& sh = *shards_[s];
  common::MutexLock lock(sh.mu);
  for (const auto& [cookie, f] : sh.flows) {
    net::NetworkView::Flow v;
    v.key = cookie;
    v.path = f.path;
    v.size_bytes = f.size_bytes;
    v.remaining_bytes = f.remaining_bytes;
    v.bw_bps = f.bw_bps;
    view.load_flow(std::move(v));
  }
}

}  // namespace mayflower::flowserver
