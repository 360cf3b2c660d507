// The Flowserver's decision view against a full rebuild, its oracle.
//
// A seeded workload runs a Flowserver through random reads, write chains,
// completions and drops, stats polls (the poller and a link-rate monitor
// running), and link and switch failures and restores. After every step,
// server.view() — refreshed incrementally from the table's change log and
// written through by the decision pipeline's commits — must equal a fresh
// full rebuild: a copy of the whole table, the fabric's liveness and the
// monitor's rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "flowserver/flowserver.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"
#include "sdn/link_rate_monitor.hpp"

namespace mayflower::flowserver {
namespace {

struct Layout {
  // Requests per drain (1 = batch-of-one).
  std::size_t batch = 1;
};

bool same_flow(const net::NetworkView::Flow& a,
               const net::NetworkView::Flow& b) {
  return a.key == b.key && a.path.links == b.path.links &&
         a.path.nodes == b.path.nodes && a.size_bytes == b.size_bytes &&
         a.remaining_bytes == b.remaining_bytes && a.bw_bps == b.bw_bps;
}

// The first difference between two views, or "" when they are equal: the
// flow count, then per link its liveness, capacity, tx rate and believed
// flows in key order.
std::string view_difference(const net::NetworkView& got,
                            const net::NetworkView& want) {
  if (got.flow_count() != want.flow_count()) {
    return strfmt("%zu flows, rebuild has %zu", got.flow_count(),
                  want.flow_count());
  }
  if (got.link_count() != want.link_count()) return "link count";
  std::vector<const net::NetworkView::Flow*> a;
  std::vector<const net::NetworkView::Flow*> b;
  for (net::LinkId l = 0; l < want.link_count(); ++l) {
    if (got.link_up(l) != want.link_up(l) ||
        got.capacity_bps(l) != want.capacity_bps(l) ||
        got.tx_rate_bps(l) != want.tx_rate_bps(l)) {
      return strfmt("link %u state", l);
    }
    a.clear();
    b.clear();
    got.append_flows_on_link(l, a);
    want.append_flows_on_link(l, b);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto* x, const auto* y) {
                      return same_flow(*x, *y);
                    })) {
      return strfmt("flows on link %u", l);
    }
  }
  return "";
}

class ViewWorkload {
 public:
  ViewWorkload(const net::Topology& topo, std::vector<net::NodeId> hosts,
             Layout layout, std::uint64_t seed)
      : hosts_(std::move(hosts)),
        fabric_(events_, topo),
        server_(fabric_, config(layout, seed)),
        monitor_(fabric_, all_links(topo), sim::SimTime::from_seconds(0.5)),
        rng_(seed),
        batch_(layout.batch) {
    server_.set_rate_monitor(&monitor_);
    server_.start();
  }

  ~ViewWorkload() { server_.stop(); }

  // One random step of the workload.
  void step() {
    const std::uint64_t roll = rng_.next_below(20);
    if (roll < 7) {
      read();
    } else if (roll < 10) {
      write();
    } else if (roll < 12) {
      drop();
    } else if (roll < 16) {
      events_.run_until(events_.now() +
                        sim::SimTime::from_seconds(rng_.uniform(0.05, 1.5)));
    } else if (roll < 18) {
      toggle_link();
    } else {
      toggle_switch();
    }
  }

  const Flowserver& server() const { return server_; }

  // The view the pipeline would decide on next, against a full rebuild.
  std::string difference() {
    const net::NetworkView& got = server_.view();
    most_flows_ = std::max(most_flows_, got.flow_count());
    net::NetworkView want =
        make_decision_view(fabric_.topology(), server_.table());
    fabric_.snapshot_liveness_into(want);
    monitor_.snapshot_into(want);
    return view_difference(got, want);
  }

  std::size_t most_flows() const { return most_flows_; }

 private:
  static FlowserverConfig config(Layout layout, std::uint64_t seed) {
    FlowserverConfig cfg;
    cfg.seed = seed;
    cfg.batch_size = layout.batch;
    return cfg;
  }

  static std::vector<net::LinkId> all_links(const net::Topology& topo) {
    std::vector<net::LinkId> links(topo.link_count());
    for (net::LinkId l = 0; l < links.size(); ++l) links[l] = l;
    return links;
  }

  net::NodeId any_host() {
    return hosts_[rng_.next_below(hosts_.size())];
  }

  // `n` distinct hosts.
  std::vector<net::NodeId> distinct_hosts(std::size_t n) {
    std::vector<net::NodeId> out;
    while (out.size() < n) {
      const net::NodeId h = any_host();
      if (std::find(out.begin(), out.end(), h) == out.end()) out.push_back(h);
    }
    return out;
  }

  // Starts every planned flow, as clients and relaying dataservers do. A
  // read's completion is reported dropped; a relay hop's is left to the
  // next poll's final counter.
  void run_plan(const std::vector<ReadAssignment>& plan, bool report_done) {
    for (const ReadAssignment& a : plan) {
      fabric_.start_flow(a.cookie, a.path, a.bytes,
                         [this, report_done](sdn::Cookie c, sim::SimTime) {
                           if (report_done) server_.flow_dropped(c);
                         });
      live_.push_back(a.cookie);
    }
  }

  void read() {
    const std::size_t n = batch_ == 1 ? 1 : 1 + rng_.next_below(batch_);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<net::NodeId> replicas =
          distinct_hosts(1 + rng_.next_below(3));
      server_.enqueue({.client = any_host(),
                       .replicas = std::move(replicas),
                       .bytes = rng_.uniform(1e6, 4e8),
                       .done = [this](std::vector<ReadAssignment> plan) {
                         run_plan(plan, /*report_done=*/true);
                       }});
    }
    server_.drain();
  }

  void write() {
    const auto plan = server_.plan_write(
        distinct_hosts(2 + rng_.next_below(3)), rng_.uniform(1e6, 2e8));
    run_plan(plan, /*report_done=*/false);
  }

  // A client abandons a transfer: the Flowserver hears the drop and the
  // fabric tears the flow down.
  void drop() {
    if (live_.empty()) return;
    const std::size_t i = rng_.next_below(live_.size());
    const sdn::Cookie c = live_[i];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    server_.flow_dropped(c);
    fabric_.cancel_flow(c);
  }

  void toggle_link() {
    if (!failed_links_.empty() &&
        (failed_links_.size() >= 3 || rng_.next_below(2) == 0)) {
      fabric_.restore_link(failed_links_.back());
      failed_links_.pop_back();
      return;
    }
    const auto l = static_cast<net::LinkId>(
        rng_.next_below(fabric_.topology().link_count()));
    if (fabric_.fail_link(l)) failed_links_.push_back(l);
  }

  void toggle_switch() {
    if (failed_switch_ != net::kInvalidNode) {
      fabric_.restore_switch(failed_switch_);
      failed_switch_ = net::kInvalidNode;
      return;
    }
    const net::Topology& topo = fabric_.topology();
    net::NodeId n = net::kInvalidNode;
    while (n == net::kInvalidNode ||
           topo.node(n).kind == net::NodeKind::kHost) {
      n = static_cast<net::NodeId>(rng_.next_below(topo.node_count()));
    }
    fabric_.fail_switch(n);
    failed_switch_ = n;
  }

  sim::EventQueue events_;
  std::vector<net::NodeId> hosts_;
  sdn::SdnFabric fabric_;
  Flowserver server_;
  sdn::LinkRateMonitor monitor_;
  Rng rng_;
  std::size_t batch_;
  std::vector<sdn::Cookie> live_;
  std::vector<net::LinkId> failed_links_;
  net::NodeId failed_switch_ = net::kInvalidNode;
  std::size_t most_flows_ = 0;
};

constexpr int kSteps = 400;

void expect_view_tracks_rebuild(const net::Topology& topo,
                                const std::vector<net::NodeId>& hosts,
                                Layout layout, std::uint64_t seed) {
  SCOPED_TRACE(strfmt("batch %zu, seed %llu", layout.batch,
                      static_cast<unsigned long long>(seed)));
  ViewWorkload workload(topo, hosts, layout, seed);
  ASSERT_EQ(workload.difference(), "") << "before any step";
  for (int i = 0; i < kSteps; ++i) {
    workload.step();
    ASSERT_EQ(workload.difference(), "") << "after step " << i;
  }
  // The run exercised what it claims to: believed flows, polls, change-log
  // syncs and link-section refreshes.
  const Flowserver& server = workload.server();
  EXPECT_GT(workload.most_flows(), 4u);
  EXPECT_GT(server.polls(), 10u);
  EXPECT_GT(server.shard_reloads(), 0u);
  EXPECT_GT(server.link_refreshes(), 0u);
}

TEST(ViewRefresh, MatchesAFullRebuildOnThePaperTree) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_view_tracks_rebuild(tree.topo, tree.hosts, Layout{}, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ViewRefresh, MatchesAFullRebuildOnAFatTree) {
  const net::FatTree tree = net::build_fat_tree(net::FatTreeConfig{.k = 8});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_view_tracks_rebuild(tree.topo, tree.hosts, Layout{}, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ViewRefresh, MatchesAFullRebuildUnderBatchedDecisions) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  expect_view_tracks_rebuild(tree.topo, tree.hosts, Layout{.batch = 8},
                             /*seed=*/1);
}

}  // namespace
}  // namespace mayflower::flowserver
