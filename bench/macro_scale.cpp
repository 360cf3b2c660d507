// Macro-scale benchmark: datacenter-sized selection on k-ary fat-trees.
//
// Sweeps fat-tree arity x background-flow population and, at each point,
// drives a churny selection stream through one Flowserver:
//
//  * every request is preceded by one background SETBW, so the decision
//    snapshot is stale at every request: each refresh applies the table's
//    change log, here one flow, instead of re-copying the table;
//  * requests read same-rack replicas, keeping the selection itself at
//    O(flows near one edge), so the sweep shows the view-refresh cost
//    beside the selection's;
//  * decision records go to stdout, where CI checks them against
//    tests/golden/macro_scale.sha256 and a rerun diff checks determinism
//    end to end.
//
// Reported per sweep point (stderr): selections/s, mean view-refresh
// latency, and the time for one global max-min solve (net::solve_max_min)
// over the whole background population — the ground-truth allocator's cost
// at this scale, for context against the incremental path the control
// plane actually uses. No speed bar: wall-clock figures are for reading.
// Default sweep: k=8 x {1k, 10k} and k=16 x {10k} (1024 hosts). --full
// adds k=16 x 25k and k=32 x 100k.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "net/fair_share.hpp"
#include "net/fat_tree.hpp"

namespace mayflower::flowserver {
namespace {

constexpr std::size_t kRequests = 192;

struct Workload {
  // Background flows, preloaded into every server under test.
  std::vector<sdn::Cookie> cookies;
  std::vector<net::Path> paths;
  std::vector<double> rates;
  // Request stream (same-rack replica sets).
  std::vector<net::NodeId> clients;
  std::vector<std::vector<net::NodeId>> replica_sets;
};

// One deterministic workload per sweep point.
Workload make_workload(const net::ThreeTier& tree, std::size_t flows) {
  Workload w;
  Rng rng(42);
  net::PathCache cache(tree.topo);
  const std::size_t hosts_per_rack = tree.config.hosts_per_rack;
  const std::size_t racks = tree.edge_switches.size();
  w.cookies.reserve(flows);
  w.paths.reserve(flows);
  w.rates.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    // Intra-rack background pairs: 2-link paths through one edge switch.
    // Keeps workload generation linear in `flows` (no large multi-path
    // enumerations) while still loading every rack of the fabric.
    const std::size_t rack = rng.next_below(racks);
    const net::NodeId src =
        tree.hosts[rack * hosts_per_rack + rng.next_below(hosts_per_rack)];
    net::NodeId dst = src;
    while (dst == src) {
      dst = tree.hosts[rack * hosts_per_rack +
                       rng.next_below(hosts_per_rack)];
    }
    const auto& paths = cache.get(src, dst);
    w.cookies.push_back(static_cast<sdn::Cookie>(1000000 + i));
    w.paths.push_back(paths[rng.next_below(paths.size())]);
    w.rates.push_back(rng.uniform(1e6, 125e6));
  }

  Rng req_rng(7);
  w.clients.resize(kRequests);
  w.replica_sets.resize(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t rack = req_rng.next_below(racks);
    const auto host = [&](std::size_t h) {
      return tree.hosts[rack * hosts_per_rack + h];
    };
    w.clients[i] = host(req_rng.next_below(hosts_per_rack));
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = host(req_rng.next_below(hosts_per_rack));
      bool dup = r == w.clients[i];
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    w.replica_sets[i] = std::move(reps);
  }
  return w;
}

struct Run {
  double secs = 0.0;
  double refresh_sec_mean = 0.0;  // mean stale-view refresh latency
  std::vector<std::string> decisions;
};

Run run_selections(const net::ThreeTier& tree, const Workload& w) {
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);

  Flowserver server(fabric, FlowserverConfig{});
  for (std::size_t i = 0; i < w.cookies.size(); ++i) {
    server.table().add(w.cookies[i], w.paths[i], 256e6, w.rates[i],
                       sim::SimTime{});
  }
  server.view();  // first (full) build outside the timed loop

  Run run;
  run.decisions.reserve(kRequests);
  Rng churn_rng(11);
  double refresh_sec = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    const sdn::Cookie victim =
        w.cookies[churn_rng.next_below(w.cookies.size())];
    server.table().setbw(victim, churn_rng.uniform(1e6, 125e6),
                          sim::SimTime{});
    // Timing the refresh alone (the view is stale from the SETBW above)
    // separates "cost of absorbing churn" from the selection that follows.
    const auto r0 = std::chrono::steady_clock::now();
    server.view();
    const auto r1 = std::chrono::steady_clock::now();
    refresh_sec += std::chrono::duration<double>(r1 - r0).count();
    server.enqueue({.client = w.clients[i],
                    .replicas = w.replica_sets[i],
                    .bytes = 256e6,
                    .done = [&run](std::vector<ReadAssignment> plan) {
                      for (const ReadAssignment& a : plan) {
                        char line[96];
                        std::snprintf(line, sizeof line, "%u %zu %.6g",
                                      a.replica, a.path.links.size(),
                                      a.est_bw_bps);
                        run.decisions.emplace_back(line);
                      }
                    }});
  }
  const auto t1 = std::chrono::steady_clock::now();
  run.secs = std::chrono::duration<double>(t1 - t0).count();
  run.refresh_sec_mean = refresh_sec / static_cast<double>(kRequests);
  return run;
}

// One global max-min solve over the background population: what the
// ground-truth allocator costs at this scale.
double time_max_min_solve(const net::ThreeTier& tree, const Workload& w) {
  std::vector<net::FlowDemand> demands;
  demands.reserve(w.paths.size());
  for (const net::Path& p : w.paths) {
    demands.push_back(net::FlowDemand{p.links, net::kInfiniteDemand});
  }
  std::vector<double> capacity(tree.topo.link_count());
  for (net::LinkId l = 0; l < static_cast<net::LinkId>(capacity.size());
       ++l) {
    capacity[l] = tree.topo.link(l).capacity_bps;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<double> rates = net::solve_max_min(demands, capacity);
  const auto t1 = std::chrono::steady_clock::now();
  MAYFLOWER_ASSERT(rates.size() == demands.size());
  return std::chrono::duration<double>(t1 - t0).count();
}

struct SweepPoint {
  std::uint32_t k = 8;
  std::size_t flows = 0;
  bool full_only = false;  // runs only with --full
};

void sweep(bool full) {
  const SweepPoint points[] = {
      {8, 1000, false},  {8, 10000, false},  {16, 10000, false},
      {16, 25000, true}, {32, 100000, true},
  };
  std::uint32_t built_k = 0;
  net::ThreeTier tree;
  for (const SweepPoint& pt : points) {
    if (pt.full_only && !full) continue;
    if (built_k != pt.k) {
      tree = net::three_tier_from_fat_tree(net::FatTreeConfig{pt.k, 125e6});
      built_k = pt.k;
    }
    const Workload w = make_workload(tree, pt.flows);
    const Run run = run_selections(tree, w);
    const double solve_sec = time_max_min_solve(tree, w);

    // Decision records to stdout: CI checks the hash and a rerun diff.
    for (const std::string& d : run.decisions) {
      std::printf("%s\n", d.c_str());
    }

    std::fprintf(stderr,
                 "k=%-2u flows=%-6zu hosts=%zu\n"
                 "  %9.0f selections/s  refresh %8.1f us\n"
                 "  max-min solve over %zu flows: %.1f ms\n",
                 pt.k, pt.flows, tree.hosts.size(), kRequests / run.secs,
                 run.refresh_sec_mean * 1e6, pt.flows, solve_sec * 1e3);
  }
}

}  // namespace
}  // namespace mayflower::flowserver

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  mayflower::flowserver::sweep(full);
  return 0;
}
