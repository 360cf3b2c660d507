#include "policy/write_placement.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mayflower::policy {

const char* to_string(WritePlacementKind kind) {
  switch (kind) {
    case WritePlacementKind::kStatic: return "static";
    case WritePlacementKind::kModel: return "model";
    case WritePlacementKind::kMeasured: return "measured";
  }
  return "?";
}

std::optional<WritePlacementKind> parse_write_placement(const std::string& s) {
  if (s == "static") return WritePlacementKind::kStatic;
  if (s == "model") return WritePlacementKind::kModel;
  if (s == "measured") return WritePlacementKind::kMeasured;
  return std::nullopt;
}

namespace {

// Measured bytes/s still free on one link, clamped at 0.
double free_bps(const net::NetworkView& view, net::LinkId l) {
  return std::max(0.0, view.capacity_bps(l) - view.tx_rate_bps(l));
}

}  // namespace

units::Bps MeasuredWritePlacement::headroom(net::NodeId writer,
                                            net::NodeId candidate,
                                            const net::NetworkView& view) const {
  if (candidate == writer) return kLocalHeadroom;
  double best = 0.0;
  for (const net::Path& p : paths_->get(writer, candidate)) {
    if (!view.path_alive(p)) continue;
    double bottleneck = kLocalHeadroom.value();
    for (const net::LinkId l : p.links) {
      bottleneck = std::min(bottleneck, free_bps(view, l));
    }
    best = std::max(best, bottleneck);
  }
  return units::Bps{best};
}

std::vector<units::Bps> MeasuredWritePlacement::scores(
    net::NodeId writer, const net::NetworkView& view) const {
  // The writer keeps kLocalHeadroom, the sweep's start value.
  return flowserver::widest_shortest_paths(
      paths_->topology(), view, writer, kLocalHeadroom,
      [&view](net::LinkId l) { return free_bps(view, l); });
}

std::vector<net::NodeId> MeasuredWritePlacement::rank(
    net::NodeId writer, const std::vector<net::NodeId>& candidates,
    const net::NetworkView& view) const {
  return flowserver::tied_best_targets(candidates, scores(writer, view));
}

}  // namespace mayflower::policy
