#include "flowserver/flow_state.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

void FlowStateTable::add(sdn::Cookie cookie, net::Path path,
                         double size_bytes, double est_bw_bps,
                         sim::SimTime now) {
  MAYFLOWER_ASSERT(size_bytes > 0.0 && est_bw_bps > 0.0);
  const auto [it, fresh] = flows_.try_emplace(cookie);
  MAYFLOWER_ASSERT_MSG(fresh, "cookie already tracked");
  TrackedFlow& f = it->second;
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
  log_change(f);
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
  for (const auto& [cookie, f] : flows_) {
    if (f.frozen && now <= f.freeze_until) ++n;
  }
  return n;
}

void FlowStateTable::drop(sdn::Cookie cookie) {
  const auto it = flows_.find(cookie);
  if (it == flows_.end()) return;
  log_change(it->second);
  flows_.erase(it);
}

const TrackedFlow* FlowStateTable::find(sdn::Cookie cookie) const {
  const auto it = flows_.find(cookie);
  return it == flows_.end() ? nullptr : &it->second;
}

void FlowStateTable::setbw(sdn::Cookie cookie, double bw_bps,
                            sim::SimTime now) {
  const auto it = flows_.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != flows_.end(), "setbw on unknown flow");
  MAYFLOWER_ASSERT(bw_bps > 0.0);
  TrackedFlow& f = it->second;
  log_change(f);
  f.bw_bps = bw_bps;
  if (freeze_enabled_) {
    f.frozen = true;
    f.freeze_until = freeze_horizon(now, f.remaining_bytes, bw_bps);
  }
  if (trace_ != nullptr) trace_->flow_bw_set(cookie, bw_bps);
}

void FlowStateTable::resize(sdn::Cookie cookie, double new_size_bytes,
                            sim::SimTime now) {
  const auto it = flows_.find(cookie);
  MAYFLOWER_ASSERT_MSG(it != flows_.end(), "resize on unknown flow");
  MAYFLOWER_ASSERT(new_size_bytes > 0.0);
  TrackedFlow& f = it->second;
  log_change(f);
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
  const auto it = flows_.find(cookie);
  if (it == flows_.end()) return;  // raced with a drop; counters arrive late
  TrackedFlow& f = it->second;
  log_change(f);

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
    ++freeze_suppressed_total_;
    freeze_suppressed_.inc();
    if (trace_ != nullptr) trace_->freeze_hit(cookie);
  }
}

void FlowStateTable::clear_changes() {
  log_.clear();
  ++log_gen_;
}

void FlowStateTable::snapshot_into(net::NetworkView& view) const {
  MAYFLOWER_ASSERT_MSG(view.flow_count() == 0, "snapshot into a loaded view");
  for (const auto& [cookie, f] : flows_) {
    view.upsert_flow(cookie, f.path, f.size_bytes, f.remaining_bytes,
                     f.bw_bps);
  }
}

void FlowStateTable::sync_changes_into(net::NetworkView& view) {
  for (const sdn::Cookie cookie : log_) {
    const TrackedFlow* f = find(cookie);
    if (f == nullptr) {
      view.drop_flow(cookie);
    } else {
      view.upsert_flow(cookie, f->path, f->size_bytes, f->remaining_bytes,
                       f->bw_bps);
    }
  }
  clear_changes();
#ifndef NDEBUG
  net::NetworkView fresh;
  snapshot_into(fresh);
  MAYFLOWER_ASSERT_MSG(view.flows_equal(fresh),
                       "log sync diverged from a fresh copy of the table");
#endif
}

}  // namespace mayflower::flowserver
