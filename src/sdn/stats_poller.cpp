#include "sdn/stats_poller.hpp"

#include "common/assert.hpp"

namespace mayflower::sdn {

StatsPoller::StatsPoller(sim::EventQueue& events, sim::SimTime interval,
                         TickFn on_tick)
    : events_(&events), interval_(interval), on_tick_(std::move(on_tick)) {
  MAYFLOWER_ASSERT(interval_.nanos() > 0);
  MAYFLOWER_ASSERT(on_tick_ != nullptr);
}

StatsPoller::~StatsPoller() { stop(); }

void StatsPoller::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  arm();
}

void StatsPoller::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  events_->cancel(pending_);
  pending_ = sim::EventId{};
}

void StatsPoller::arm() {
  // Each armed chain carries the epoch it belongs to. A tick callback may
  // call stop() — or stop() then start() — on this very poller; re-arming
  // unconditionally after on_tick_() would silently resurrect a stopped
  // chain (and double-tick after a restart). The epoch check kills the
  // stale chain in both cases.
  const std::uint64_t epoch = epoch_;
  pending_ = events_->schedule_in(interval_, [this, epoch] {
    if (!running_ || epoch != epoch_) return;
    ++ticks_;
    ticks_metric_.inc();
    on_tick_();
    if (!running_ || epoch != epoch_) return;  // stopped from within the tick
    arm();
  });
}

}  // namespace mayflower::sdn
