#include "flowserver/flow_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mayflower::flowserver {

namespace {

// The freeze horizon now + bytes / bw_bps: the flow's expected completion,
// saturated at SimTime::max() when the clock cannot hold it (a huge plan at
// a small share), where converting the span to nanoseconds or adding it to
// `now` would overflow. Below that it is exactly
// now + SimTime::from_seconds(bytes / bw_bps).
sim::SimTime freeze_horizon(sim::SimTime now, double bytes, double bw_bps) {
  const double span_ns = bytes / bw_bps * 1e9;
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(span_ns < kTwoTo63)) return sim::SimTime::max();  // NaN too
  const auto span = static_cast<std::int64_t>(span_ns);
  if (span > sim::SimTime::max().nanos() - now.nanos()) {
    return sim::SimTime::max();
  }
  return now + sim::SimTime::from_nanos(span);
}

}  // namespace

FlowStateTable::FlowStateTable() : shards_(1) {}

void FlowStateTable::set_shard_map(net::ShardMap map) {
  MAYFLOWER_ASSERT_MSG(size() == 0,
                       "install the shard map before tracking flows");
  shard_map_ = std::move(map);
  shards_.assign(shard_map_.shard_count(), Shard{});
  route_.clear();
}

const FlowStateTable::Shard* FlowStateTable::shard_for(
    sdn::Cookie cookie) const {
  if (shards_.size() == 1) return &shards_[0];
  const auto it = route_.find(cookie);
  return it == route_.end() ? nullptr : &shards_[it->second];
}

void FlowStateTable::add(sdn::Cookie cookie, net::Path path,
                         double size_bytes, double est_bw_bps,
                         sim::SimTime now) {
  const std::uint32_t s = shard_map_.shard_of_path(path);
  if (shards_.size() > 1) {
    MAYFLOWER_ASSERT_MSG(route_.find(cookie) == route_.end(),
                         "cookie already tracked");
    route_.emplace(cookie, s);
  }
  Shard& sh = shards_[s];
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
    f.freeze_until = freeze_horizon(now, size_bytes, est_bw_bps);
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
  for (const Shard& sh : shards_) {
    for (const auto& [cookie, f] : sh.flows) {
      if (f.frozen && now <= f.freeze_until) ++n;
    }
  }
  return n;
}

std::uint64_t FlowStateTable::freeze_suppressed_total() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.freeze_suppressed;
  return n;
}

void FlowStateTable::drop(sdn::Cookie cookie) {
  Shard* sh = shard_for(cookie);
  if (sh == nullptr) return;
  const auto it = sh->flows.find(cookie);
  if (it == sh->flows.end()) return;
  ++sh->version;
  sh->flows.erase(it);
  if (shards_.size() > 1) route_.erase(cookie);
}

const TrackedFlow* FlowStateTable::find(sdn::Cookie cookie) const {
  const Shard* sh = shard_for(cookie);
  if (sh == nullptr) return nullptr;
  const auto it = sh->flows.find(cookie);
  return it == sh->flows.end() ? nullptr : &it->second;
}

std::size_t FlowStateTable::size() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.flows.size();
  return n;
}

std::uint64_t FlowStateTable::version() const {
  std::uint64_t v = 0;
  for (const Shard& sh : shards_) v += sh.version;
  return v;
}

std::uint64_t FlowStateTable::shard_version(std::uint32_t s) const {
  MAYFLOWER_ASSERT(s < shards_.size());
  return shards_[s].version;
}

void FlowStateTable::setbw(sdn::Cookie cookie, double bw_bps,
                            sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  MAYFLOWER_ASSERT_MSG(sh != nullptr, "setbw on unknown flow");
  const auto it = sh->flows.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != sh->flows.end(), "setbw on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  ++sh->version;
  TrackedFlow& f = it->second;
  f.bw_bps = bw_bps;
  if (freeze_enabled_) {
    f.frozen = true;
    f.freeze_until = freeze_horizon(now, f.remaining_bytes, bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_bw_set(cookie, bw_bps);
}

void FlowStateTable::resize(sdn::Cookie cookie, double new_size_bytes,
                            sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  MAYFLOWER_ASSERT_MSG(sh != nullptr, "resize on unknown flow");
  const auto it = sh->flows.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != sh->flows.end(), "resize on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  ++sh->version;
  TrackedFlow& f = it->second;
  f.size_bytes = new_size_bytes;
  f.remaining_bytes = new_size_bytes;
  if (freeze_enabled_ && f.frozen) {
    f.freeze_until = freeze_horizon(now, new_size_bytes, f.bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_resized(cookie, new_size_bytes);
}

void FlowStateTable::update_from_stats(sdn::Cookie cookie,
                                       double cumulative_bytes,
                                       sim::SimTime now) {
  Shard* sh = shard_for(cookie);
  if (sh == nullptr) return;  // raced with a drop; counters can arrive late
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
  view.set_shard_map(shard_map_);
  for (std::uint32_t s = 0; s < shard_count(); ++s) sync_shard_into(view, s);
}

void FlowStateTable::sync_shard_into(net::NetworkView& view,
                                     std::uint32_t s) const {
  MAYFLOWER_ASSERT(s < shards_.size());
  const Shard& sh = shards_[s];
  sync_from(sh, s, view);
#ifndef NDEBUG
  net::NetworkView fresh;
  fresh.set_shard_map(shard_map_);
  sync_from(sh, s, fresh);
  MAYFLOWER_ASSERT_MSG(view.shard_equals(fresh, s),
                       "in-place shard sync diverged from a fresh copy");
#endif
}

void FlowStateTable::sync_from(const Shard& sh, std::uint32_t s,
                               net::NetworkView& view) {
  view.begin_sync(s);
  for (const auto& [cookie, f] : sh.flows) {
    view.sync_flow(cookie, f.path, f.size_bytes, f.remaining_bytes, f.bw_bps);
  }
  view.end_sync();
}

}  // namespace mayflower::flowserver
