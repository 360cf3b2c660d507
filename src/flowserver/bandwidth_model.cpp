#include "flowserver/bandwidth_model.hpp"

#include <algorithm>

#include "net/fair_share.hpp"

namespace mayflower::flowserver {

double BandwidthModel::link_share_with_extra(
    const net::NetworkView& view, net::LinkId link, double extra_demand,
    const net::NetworkView::Flow* report, double* report_share) const {
  // Indexed lookup: only the flows actually crossing `link`, in cookie
  // order, rather than a scan over the whole view.
  std::vector<const net::NetworkView::Flow*> flows;
  view.append_flows_on_link(link, flows);
  std::vector<double> demands;
  demands.reserve(flows.size() + 1);
  std::size_t report_index = flows.size();  // sentinel
  for (std::size_t i = 0; i < flows.size(); ++i) {
    demands.push_back(flows[i]->bw_bps);
    if (report != nullptr && flows[i]->key == report->key) {
      report_index = i;
    }
  }
  demands.push_back(extra_demand);
  const std::vector<double> shares =
      net::waterfill_link(view.capacity_bps(link), demands);
  if (report_share != nullptr) {
    *report_share = report_index < flows.size() ? shares[report_index] : -1.0;
  }
  return shares.back();
}

double BandwidthModel::new_flow_share(const net::NetworkView& view,
                                      const net::Path& path) const {
  if (path.links.empty()) return zero_hop_bps_;
  double share = net::kInfiniteDemand;
  for (const net::LinkId l : path.links) {
    share = std::min(share, link_share_with_extra(view, l,
                                                  net::kInfiniteDemand,
                                                  nullptr, nullptr));
  }
  return share;
}

double BandwidthModel::reduced_share(const net::NetworkView& view,
                                     const net::NetworkView::Flow& f,
                                     const net::Path& path,
                                     double new_flow_bps) const {
  double share = f.bw_bps;
  for (const net::LinkId l : path.links) {
    if (!f.path.contains_link(l)) continue;
    double f_share = -1.0;
    link_share_with_extra(view, l, new_flow_bps, &f, &f_share);
    if (f_share >= 0.0) share = std::min(share, f_share);
  }
  return share;
}

LinkShareMemo::LinkShareMemo(const BandwidthModel& model,
                             const net::NetworkView& view)
    : view_(&view),
      zero_hop_bps_(model.zero_hop_bps()),
      slot_(view.link_count(), kUngathered) {
  // Room for a typical selection up front (a paper_read selection gathers
  // about 18 links), so each buffer is allocated once per call instead of
  // regrown; a larger selection grows them as usual.
  constexpr std::size_t kLinks = 64;
  constexpr std::size_t kFlows = 512;
  links_.reserve(kLinks);
  flows_.reserve(kFlows);
  demands_.reserve(kFlows + kLinks);
  shares_.reserve(kFlows + kLinks);
  order_.reserve(kFlows / 4);
  cursors_.reserve(8);  // one per path link
  reduced_.reserve(kFlows / 2);
}

LinkShareMemo::Link& LinkShareMemo::gather(net::LinkId l) {
  Link link;
  link.flows = flows_.size();
  view_->append_flows_on_link(l, flows_);
  link.count = flows_.size() - link.flows;
  link.first = demands_.size();
  for (std::size_t i = link.flows; i < flows_.size(); ++i) {
    demands_.push_back(flows_[i]->bw_bps);
  }
  demands_.push_back(net::kInfiniteDemand);  // the new flow's slot
  shares_.resize(demands_.size());
  link.capacity = view_->capacity_bps(l);
  fill(link, net::kInfiniteDemand);
  link.new_flow_share = shares_[link.first + link.count];
  slot_[l] = static_cast<std::uint32_t>(links_.size());
  links_.push_back(link);
  return links_.back();
}

void LinkShareMemo::fill(Link& link, double extra) {
  const std::size_t n = link.count + 1;
  demands_[link.first + link.count] = extra;
  if (order_.size() < n) order_.resize(n);
  net::waterfill_link(link.capacity,
                      std::span<const double>(demands_).subspan(link.first, n),
                      std::span<double>(shares_).subspan(link.first, n),
                      std::span<std::size_t>(order_).first(n));
  link.filled_for = extra;
}

double LinkShareMemo::new_flow_share(const net::Path& path) {
  if (path.links.empty()) return zero_hop_bps_;
  double share = net::kInfiniteDemand;
  for (const net::LinkId l : path.links) {
    share = std::min(share, link(l).new_flow_share);
  }
  return share;
}

std::span<const LinkShareMemo::Reduced> LinkShareMemo::reduced_shares(
    const net::Path& path, double new_flow_bps) {
  // At most one waterfill per path link that carries believed flows (none
  // when the link's last fill ran at this demand); its shares serve every
  // flow on the link.
  for (const net::LinkId l : path.links) {
    Link& lk = link(l);
    if (lk.count != 0 && lk.filled_for != new_flow_bps) fill(lk, new_flow_bps);
  }
  // Every link is gathered, so the buffers no longer move.
  cursors_.clear();
  for (const net::LinkId l : path.links) {
    const Link& lk = links_[slot_[l]];
    if (lk.count == 0) continue;
    const net::NetworkView::Flow* const* flows = flows_.data() + lk.flows;
    cursors_.push_back({flows, flows + lk.count, shares_.data() + lk.first});
  }

  // Merge the links' flow lists (each in key order) into the path's union,
  // in key order. A flow's reduced share is the minimum of its current
  // share and its shares on every path link it crosses; min is exact, so
  // the order the links are visited in does not matter.
  reduced_.clear();
  for (;;) {
    const net::NetworkView::Flow* f = nullptr;
    for (const Cursor& c : cursors_) {
      if (c.next != c.end && (f == nullptr || (*c.next)->key < f->key)) {
        f = *c.next;
      }
    }
    if (f == nullptr) break;
    double share = f->bw_bps;
    for (Cursor& c : cursors_) {
      if (c.next == c.end || *c.next != f) continue;
      share = std::min(share, *c.share);
      ++c.next;
      ++c.share;
    }
    reduced_.push_back({f, share});
  }
  return reduced_;
}

}  // namespace mayflower::flowserver
