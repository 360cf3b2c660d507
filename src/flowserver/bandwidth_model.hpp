// Path bandwidth estimation (§4.2).
//
// The Flowserver never sees ground-truth rates; it models them from (a) the
// believed per-flow shares in a NetworkView snapshot and (b) per-link
// max-min water-filling:
//
//  * the share a NEW flow would get on a path = its water-filled share on the
//    path's bottleneck link, where existing flows demand their current
//    believed bandwidth and the new flow demands infinity;
//  * the reduced share of an EXISTING flow after the new flow (now demanding
//    its bottleneck share b_j) is added = its water-filled share on the links
//    of the path it crosses (NEWBANDWIDTH in Pseudocode 2).
//
// Per the paper's "simplifying bandwidth estimations", only the candidate
// path's links are modelled; secondary effects on other paths are ignored and
// corrected by the periodic stats resync. The model is stateless apart from
// the zero-hop rate: every fact it consumes comes from the view, so all
// decisions in one batch read identical state.
//
// BandwidthModel states both estimates one flow and one link at a time: it
// is the definition tests/test_eq2_fast_path.cpp holds LinkShareMemo to.
// LinkShareMemo computes the same numbers for every candidate of one
// selection without repeating a gather or a waterfill; the selector costs
// Eq. 2 through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/fair_share.hpp"
#include "net/network_view.hpp"
#include "net/paths.hpp"

namespace mayflower::flowserver {

class BandwidthModel {
 public:
  BandwidthModel() = default;

  // MAXMINSHARE(p.links): estimated share of a new elastic flow on `path`.
  // Zero-hop paths return `zero_hop_bps`.
  double new_flow_share(const net::NetworkView& view,
                        const net::Path& path) const;

  // NEWBANDWIDTH(f, p, est_bw): share of existing flow `f` after a new flow
  // with demand `new_flow_bps` joins every link of `path`. Never exceeds the
  // flow's current believed share.
  double reduced_share(const net::NetworkView& view,
                       const net::NetworkView::Flow& f, const net::Path& path,
                       double new_flow_bps) const;

  void set_zero_hop_bps(double bps) { zero_hop_bps_ = bps; }
  double zero_hop_bps() const { return zero_hop_bps_; }

 private:
  // Water-fill one link among the view's believed flows plus one extra
  // demand; returns the extra flow's share and optionally one believed
  // flow's share.
  double link_share_with_extra(const net::NetworkView& view, net::LinkId link,
                               double extra_demand,
                               const net::NetworkView::Flow* report,
                               double* report_share) const;

  double zero_hop_bps_ = net::kZeroHopBps;
};

// Both estimates for many paths over one const view, each link's work done
// once. A link's believed flows (key order) and their demands are gathered
// on the first touch, and the new flow's infinite-demand share on it is
// water-filled then. reduced_shares() water-fills each path link at the new
// flow's demand, unless the link's last waterfill already ran at that very
// demand (candidates with the same bottleneck share often share links);
// those shares serve every flow on the link, and a flow's reduced share is
// the minimum over the links it shares with the path. Every waterfill sees
// exactly the input BandwidthModel builds (the link's flows in key order,
// the extra demand last), so every estimate is bit-identical to
// new_flow_share's and reduced_share's.
//
// Holds pointers into the view: valid only while the view is not mutated.
// Meant to live for one selection call; not shared between threads.
class LinkShareMemo {
 public:
  LinkShareMemo(const BandwidthModel& model, const net::NetworkView& view);

  // == model.new_flow_share(view, path).
  double new_flow_share(const net::Path& path);
  // The infinite-demand share of a new flow on link `l` alone: a path's
  // new_flow_share is the min of this over its links.
  double new_flow_share(net::LinkId l) { return link(l).new_flow_share; }

  struct Reduced {
    const net::NetworkView::Flow* flow;
    double share;  // == model.reduced_share(view, *flow, path, new_flow_bps)
  };
  // Every believed flow crossing `path`, deduplicated, in key order, with
  // its reduced share once a flow demanding `new_flow_bps` joins the path.
  // The span stays valid until the next call.
  std::span<const Reduced> reduced_shares(const net::Path& path,
                                          double new_flow_bps);

 private:
  static constexpr std::uint32_t kUngathered = UINT32_MAX;

  struct Link {
    std::size_t flows = 0;  // offset of the link's flows in flows_
    std::size_t first = 0;  // offset of its count + 1 demands and shares
    std::size_t count = 0;  // believed flows on the link
    double capacity = 0.0;
    double new_flow_share = 0.0;  // the infinite-demand share
    double filled_for = 0.0;      // extra demand its shares were filled at
  };
  // Merge cursor over one path link's flows and their shares.
  struct Cursor {
    const net::NetworkView::Flow* const* next;
    const net::NetworkView::Flow* const* end;
    const double* share;  // share of *next
  };

  Link& link(net::LinkId l) {
    MAYFLOWER_ASSERT(l < slot_.size());
    return slot_[l] != kUngathered ? links_[slot_[l]] : gather(l);
  }
  Link& gather(net::LinkId l);
  // Water-fills `link` with its extra demand set to `extra`, into the
  // link's count + 1 entries of shares_.
  void fill(Link& link, double extra);

  const net::NetworkView* view_;
  double zero_hop_bps_;
  std::vector<std::uint32_t> slot_;  // link id -> index into links_
  std::vector<Link> links_;
  std::vector<const net::NetworkView::Flow*> flows_;
  std::vector<double> demands_;  // per link: its flows' demands, then extra
  std::vector<double> shares_;   // per link: shares at filled_for
  std::vector<std::size_t> order_;
  std::vector<Cursor> cursors_;
  std::vector<Reduced> reduced_;
};

}  // namespace mayflower::flowserver
