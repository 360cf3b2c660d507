#include "sdn/view_builder.hpp"

namespace mayflower::sdn {

bool ViewBuilder::stale() const {
  if (!built_) return true;
  if (fabric_->state_epoch() != seen_fabric_epoch_) return true;
  if (monitor_ != nullptr && monitor_->samples() != seen_samples_) {
    return true;
  }
  return false;
}

const net::NetworkView& ViewBuilder::view() {
  if (stale()) {
    view_.reset_links(fabric_->topology());
    fabric_->snapshot_liveness_into(view_);
    if (monitor_ != nullptr) monitor_->snapshot_into(view_);
    if (include_flow_stats_) fabric_->snapshot_flow_stats_into(view_);
    view_.stamp(++epoch_counter_, fabric_->events().now());
    seen_fabric_epoch_ = fabric_->state_epoch();
    seen_samples_ = monitor_ == nullptr ? 0 : monitor_->samples();
    built_ = true;
  }
  return view_;
}

}  // namespace mayflower::sdn
