// ViewBuilder: cached NetworkView construction for decision consumers that
// have no FlowStateTable (the ECMP and Hedera schemes). The view carries
// link capacities + liveness from the fabric, tx rates from an optional
// LinkRateMonitor, and (optionally) per-transfer telemetry for
// measurement-driven schedulers.
//
// Rebuilds are epoch-driven: the cached view is reused until the fabric's
// state epoch or the monitor's sample count moves, so a batch of decisions
// between faults/polls shares one snapshot. include_flow_stats() consumers
// additionally invalidate() by hand at the start of each scheduling round —
// flow byte counters advance continuously and carry no epoch.
#pragma once

#include <cstdint>

#include "net/network_view.hpp"
#include "sdn/fabric.hpp"
#include "sdn/link_rate_monitor.hpp"

namespace mayflower::sdn {

class ViewBuilder {
 public:
  explicit ViewBuilder(SdnFabric& fabric) : fabric_(&fabric) {}

  void set_rate_monitor(const LinkRateMonitor* monitor) {
    monitor_ = monitor;
    built_ = false;
  }
  void set_include_flow_stats(bool on) {
    include_flow_stats_ = on;
    built_ = false;
  }

  // The cached snapshot, rebuilt first if stale.
  const net::NetworkView& view();

  void invalidate() { built_ = false; }

 private:
  bool stale() const;

  SdnFabric* fabric_;
  const LinkRateMonitor* monitor_ = nullptr;
  bool include_flow_stats_ = false;

  net::NetworkView view_;
  bool built_ = false;
  std::uint64_t seen_fabric_epoch_ = 0;
  std::uint64_t seen_samples_ = 0;
  std::uint64_t epoch_counter_ = 0;
};

}  // namespace mayflower::sdn
