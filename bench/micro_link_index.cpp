// Microbenchmark of FlowSim's incremental max-min recompute against its
// full solve: flow churn (cancel one flow, start another) against a fabric
// carrying 10k concurrent flows, measured with the dirty-set incremental
// recompute vs. the full progressive-filling solve on identical state.
// Despite the binary's name it times no link index: FlowSim keeps its flows
// in slots with per-link slot lists, so both modes read flow records
// directly.
//
// The workload models steady-state datacenter churn: 512 hosts, rack-level
// full bisection with 2:1 core oversubscription, and rate-limited flows
// (finite demands) so load concentrates in hot pockets instead of
// saturating every link — the regime where one flow's arrival or departure
// perturbs a neighborhood, not the whole fabric. (With every link
// saturated, exact max-min is globally coupled and FlowSim deliberately
// falls back to the full solve.)
//
// The acceptance bar for the substrate is a >= 5x per-event speedup; the
// binary measures both modes, prints the per-event cost and the realized
// speedup, then cross-checks that the incremental rates still match a
// from-scratch solve. Plain chrono timing (not google-benchmark): the two
// modes share mutable simulator state, so each must run as one timed block
// on the same flow population.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "net/flow_sim.hpp"
#include "net/paths.hpp"
#include "net/tree.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace mayflower;

constexpr std::size_t kConcurrentFlows = 10000;
constexpr int kIncrementalEvents = 400;
constexpr int kFullEvents = 10;
// Large enough that nothing completes during the run (the simulator skips
// scheduling completions beyond its ns horizon), so the population is stable.
constexpr double kFlowBytes = 1e18;

struct Churner {
  net::ThreeTier fabric;
  sim::EventQueue events;
  net::FlowSim sim;
  net::PathCache paths;
  Rng rng;
  std::vector<net::FlowId> ids;

  Churner()
      : fabric(net::build_three_tier([] {
          // 512 hosts: 8 pods x 8 racks x 8 hosts. Rack tier at full
          // bisection (4 x 250 MB/s uplinks vs 8 x 125 Mb/s hosts), pod
          // tier 2:1 oversubscribed.
          net::ThreeTierConfig cfg;
          cfg.pods = 8;
          cfg.racks_per_pod = 8;
          cfg.hosts_per_rack = 8;
          cfg.aggs_per_pod = 4;
          cfg.cores = 4;
          cfg.host_link_bps = 125e6;
          cfg.rack_uplink_bps = 250e6;
          cfg.agg_uplink_bps = 250e6;
          return cfg;
        }())),
        sim(events, fabric.topo),
        paths(fabric.topo),
        rng(42) {}

  net::Path random_path() {
    const std::size_t n = fabric.hosts.size();
    const net::NodeId src = fabric.hosts[rng.next_below(n)];
    net::NodeId dst = src;
    while (dst == src) dst = fabric.hosts[rng.next_below(n)];
    const auto& options = paths.get(src, dst);
    return options[rng.next_below(options.size())];
  }

  net::FlowId start_random_flow() {
    // Rate-limited transfers, 0.5-4.5 MB/s: host links average ~40%
    // utilized, so saturated pockets exist but changes stay local.
    const double demand = rng.uniform(0.5e6, 4.5e6);
    return sim.start_flow(random_path(), kFlowBytes, nullptr, 0, demand);
  }

  void churn_once() {
    const std::size_t victim = rng.next_below(ids.size());
    sim.cancel(ids[victim]);
    ids[victim] = start_random_flow();
  }

  // Seconds per churn event (one cancel + one start).
  double time_churn(int n) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) churn_once();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / n;
  }
};

}  // namespace

int main() {
  std::printf(
      "==============================================================\n"
      "micro_link_index — per-link flow index + dirty-set max-min\n"
      "churn at %zu concurrent flows, incremental vs full recompute\n"
      "==============================================================\n",
      kConcurrentFlows);
  std::fflush(stdout);

  Churner bench;

  // Population build runs incrementally; a full solve per start would make
  // setup itself quadratic in the flow count.
  bench.sim.set_incremental(true);
  {
    const auto t0 = std::chrono::steady_clock::now();
    bench.ids.reserve(kConcurrentFlows);
    for (std::size_t i = 0; i < kConcurrentFlows; ++i) {
      bench.ids.push_back(bench.start_random_flow());
    }
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("build: %zu flows in %.2f s (incremental mode)\n",
                bench.sim.active_flow_count(),
                std::chrono::duration<double>(t1 - t0).count());
    std::fflush(stdout);
  }

  // Warm-up, then the measured incremental block.
  bench.time_churn(50);
  const double inc_s = bench.time_churn(kIncrementalEvents);
  std::printf("incremental churn: %.3f ms/event (%d events)\n", inc_s * 1e3,
              kIncrementalEvents);
  std::fflush(stdout);

  bench.sim.set_incremental(false);
  const double full_s = bench.time_churn(kFullEvents);
  std::printf("full-solve churn:  %.3f ms/event (%d events)\n", full_s * 1e3,
              kFullEvents);

  const double speedup = full_s / inc_s;
  std::printf("speedup: %.1fx (target >= 5x) — %s\n", speedup,
              speedup >= 5.0 ? "PASS" : "FAIL");

  // Equivalence: switch back, perturb once, and require the incremental
  // allocation to match a from-scratch progressive-filling solve.
  bench.sim.set_incremental(true);
  bench.churn_once();
  const bool match = bench.sim.rates_match_full_solve();
  std::printf("incremental == full cross-check: %s\n",
              match ? "PASS" : "FAIL");
  return (speedup >= 5.0 && match) ? 0 : 1;
}
