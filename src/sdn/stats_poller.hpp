// Periodic task helper: drives the Flowserver's and Sinbad-R's stats
// collection cycles ("periodically fetching from the edge switches the byte
// counters", §3.3.3).
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace mayflower::sdn {

class StatsPoller {
 public:
  using TickFn = std::function<void()>;

  StatsPoller(sim::EventQueue& events, sim::SimTime interval, TickFn on_tick);
  ~StatsPoller();

  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }
  sim::SimTime interval() const { return interval_; }

  // Ticks fired since construction, one per interval; each is one full
  // collection cycle of the consumer.
  std::uint64_t ticks() const { return ticks_; }

  // Publishes the tick counter (sdn.poller.ticks) into `registry`.
  // Per-cycle *work* (samples applied) is histogrammed by the consumer,
  // which is what latency means in a deterministic simulation — see
  // DESIGN.md "Observability".
  void set_metrics(obs::MetricsRegistry* registry) {
    ticks_metric_ = registry == nullptr
                        ? obs::Counter{}
                        : registry->counter("sdn.poller.ticks");
  }

 private:
  void arm();

  sim::EventQueue* events_;
  sim::SimTime interval_;
  TickFn on_tick_;
  sim::EventId pending_;
  std::uint64_t ticks_ = 0;
  obs::Counter ticks_metric_;
  // Bumped by every start()/stop(); armed events fire only if the epoch
  // still matches, so a stop() from inside a tick callback sticks.
  std::uint64_t epoch_ = 0;
  bool running_ = false;
};

}  // namespace mayflower::sdn
