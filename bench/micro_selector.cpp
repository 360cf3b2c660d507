// Microbenchmark: one replica–path selection (Pseudocode 1) against a state
// table preloaded with N tracked flows — the per-read control-plane cost a
// Flowserver deployment would pay.
//
// Three modes:
//  * default: google-benchmark micro timings of select() and evaluate_path()
//    against a prebuilt decision view;
//  * --flows: background-flow sweep on a k=8 fat-tree driving a churny
//    request stream through one Flowserver; decision records go to stdout
//    for CI's golden hash and determinism diff;
//  * --batch: drives a real Flowserver through its admission queue and
//    compares batch-of-one against batched drains over an identical request
//    stream. A large background population (confined to the last pod, away
//    from every request path) makes the view rebuild the dominant
//    per-decision cost; every admission is followed by a state-neutral
//    invalidate (the "telemetry may have landed" assumption), which
//    batch-of-one pays as a rebuild per decision while a batch of B
//    coalesces into one rebuild per drain. Admitted flows complete at a
//    fixed window in both modes, so every window starts from the same
//    table. The decisions are not expected to match across modes: a batched
//    request is evaluated against its batch-start view, without the commits
//    of the requests ahead of it in the batch. The batched decisions go to
//    stdout (CI checks them against tests/golden/micro_selector_batch.sha256
//    and diffs two seeded runs); timings and the >= 2x acceptance bar go to
//    stderr, with a non-zero exit when the bar fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "flowserver/selector.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

void BM_SelectReplicaPath(benchmark::State& state) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  Rng rng(42);
  FlowStateTable table;
  net::PathCache cache(tree.topo);

  // Preload N in-flight flows on random shortest paths.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
    const auto& paths = cache.get(src, dst);
    table.add(static_cast<sdn::Cookie>(i + 1),
              paths[rng.next_below(paths.size())], 256e6,
              rng.uniform(1e6, 125e6), sim::SimTime{});
  }

  ReplicaPathSelector selector(tree.topo, cache, table);
  const net::NetworkView view = make_decision_view(tree.topo, table);
  const std::vector<net::NodeId> replicas{tree.hosts[5], tree.hosts[20],
                                          tree.hosts[40]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        selector.select(view, tree.hosts[0], replicas, 256e6));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectReplicaPath)->RangeMultiplier(4)->Range(1, 1024)->Complexity();

void BM_BuildDecisionView(benchmark::State& state) {
  // The cost batching amortizes: snapshotting an N-flow table into a view.
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  Rng rng(44);
  FlowStateTable table;
  net::PathCache cache(tree.topo);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
    const auto& paths = cache.get(src, dst);
    table.add(static_cast<sdn::Cookie>(i + 1),
              paths[rng.next_below(paths.size())], 256e6,
              rng.uniform(1e6, 125e6), sim::SimTime{});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_decision_view(tree.topo, table));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildDecisionView)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_EvaluateSinglePath(benchmark::State& state) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  Rng rng(43);
  FlowStateTable table;
  net::PathCache cache(tree.topo);
  for (std::size_t i = 0; i < 128; ++i) {
    const net::NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
    const auto& paths = cache.get(src, dst);
    table.add(static_cast<sdn::Cookie>(i + 1),
              paths[rng.next_below(paths.size())], 256e6,
              rng.uniform(1e6, 125e6), sim::SimTime{});
  }
  BandwidthModel model;
  const net::NetworkView view = make_decision_view(tree.topo, table);
  const auto& paths = cache.get(tree.hosts[16], tree.hosts[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluate_path(model, view, tree.hosts[16], paths[0], 256e6));
  }
}
BENCHMARK(BM_EvaluateSinglePath);

// --- --batch mode ---------------------------------------------------------

struct BatchRun {
  double selections_per_sec = 0.0;
  std::uint64_t view_rebuilds = 0;
  // One line per request: "replica path_len est_bw" — the decision record
  // CI diffs for determinism.
  std::vector<std::string> decisions;
};

constexpr std::size_t kPreloadFlows = 2048;
constexpr std::size_t kRequests = 2048;
// Admitted flows complete this many requests after admission, in both modes
// (aligned with the batched drain, so every window starts from the same
// table).
constexpr std::size_t kChurnWindow = 16;

BatchRun run_batch_mode(std::size_t batch_size) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);

  FlowserverConfig cfg;
  cfg.batch_size = batch_size;
  Flowserver server(fabric, cfg);

  // Preload a steady-state population straight into the table, confined to
  // the LAST pod so its (intra-pod) flows dominate the snapshot cost without
  // ever crossing a request path: the per-decision cost under measurement
  // is the view REBUILD, not selection over a crowded fabric.
  Rng rng(42);
  net::PathCache preload_cache(tree.topo);
  const net::ThreeTierConfig tree_cfg;
  const std::size_t pod = tree_cfg.racks_per_pod * tree_cfg.hosts_per_rack;
  const std::size_t last_pod = tree.hosts.size() - pod;
  for (std::size_t i = 0; i < kPreloadFlows; ++i) {
    const net::NodeId src = tree.hosts[last_pod + rng.next_below(pod)];
    net::NodeId dst = src;
    while (dst == src) dst = tree.hosts[last_pod + rng.next_below(pod)];
    const auto& paths = preload_cache.get(src, dst);
    server.table().add(static_cast<sdn::Cookie>(1000000 + i),
                       paths[rng.next_below(paths.size())], 256e6,
                       rng.uniform(1e6, 125e6), sim::SimTime{});
  }

  // A deterministic request stream over the remaining pods (same seed for
  // every batch size, so both modes decide the same requests).
  Rng req_rng(7);
  std::vector<net::NodeId> clients(kRequests);
  std::vector<std::vector<net::NodeId>> replica_sets(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    clients[i] = tree.hosts[req_rng.next_below(last_pod)];
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = tree.hosts[req_rng.next_below(last_pod)];
      bool dup = r == clients[i];
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    replica_sets[i] = std::move(reps);
  }

  BatchRun run;
  run.decisions.reserve(kRequests);
  std::vector<sdn::Cookie> window_cookies;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    server.enqueue({.client = clients[i],
                    .replicas = replica_sets[i],
                    .bytes = 256e6,
                    .done = [&](std::vector<ReadAssignment> plan) {
                      for (const ReadAssignment& a : plan) {
                        char line[96];
                        std::snprintf(line, sizeof line, "%u %zu %.6g",
                                      a.replica, a.path.links.size(),
                                      a.est_bw_bps);
                        run.decisions.emplace_back(line);
                        window_cookies.push_back(a.cookie);
                      }
                    }});
    // Telemetry may land between any two admissions, so each boundary
    // treats the snapshot as stale. State is untouched — decisions don't
    // move — but batch-of-one now rebuilds per decision while a batch of B
    // coalesces the invalidations into one rebuild per drain.
    server.invalidate_view();
    if ((i + 1) % kChurnWindow == 0) {
      // The window's admitted flows complete, in both modes at the same
      // request index: the next window starts from the same table whether
      // its batches hold 1 or kChurnWindow requests.
      for (const sdn::Cookie c : window_cookies) server.flow_dropped(c);
      window_cookies.clear();
    }
  }
  server.drain();  // flush a final partial batch, if any
  const auto t1 = std::chrono::steady_clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  run.selections_per_sec = static_cast<double>(kRequests) / secs;
  run.view_rebuilds = server.view_rebuilds();
  return run;
}

int batch_main() {
  constexpr std::size_t kBatch = 16;
  const BatchRun single = run_batch_mode(1);
  const BatchRun batched = run_batch_mode(kBatch);

  // Decision records to stdout: CI runs this twice and diffs.
  for (const std::string& d : batched.decisions) std::printf("%s\n", d.c_str());

  const double speedup =
      batched.selections_per_sec / single.selections_per_sec;
  std::fprintf(stderr,
               "batch=1   %.0f selections/s  (%llu view rebuilds)\n"
               "batch=%zu  %.0f selections/s  (%llu view rebuilds)\n"
               "speedup   %.2fx (bar: >= 2x)\n",
               single.selections_per_sec,
               static_cast<unsigned long long>(single.view_rebuilds), kBatch,
               batched.selections_per_sec,
               static_cast<unsigned long long>(batched.view_rebuilds),
               speedup);

  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: batched admission speedup below 2x\n");
    return 1;
  }
  std::fprintf(stderr, "PASS\n");
  return 0;
}

// --- --flows mode ---------------------------------------------------------
//
// Background-flow sweep on a k=8 fat-tree: for each population size, drive
// a churny request stream through one Flowserver. Each request is preceded
// by one background SETBW, so each refresh applies a one-flow change log.
// Decision records go to stdout for CI's golden hash and determinism diff;
// timings go to stderr.

struct FlowsRun {
  double secs = 0.0;
  std::uint64_t log_syncs = 0;
  std::vector<std::string> decisions;
};

constexpr std::size_t kFlowsRequests = 256;

FlowsRun run_flows_mode(const net::ThreeTier& tree, std::size_t flows) {
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);

  Flowserver server(fabric, FlowserverConfig{});

  // Background population: intra-pod flows spread over the whole fabric.
  Rng rng(42);
  net::PathCache preload_cache(tree.topo);
  const std::size_t hosts_per_pod =
      tree.hosts.size() / static_cast<std::size_t>(tree.config.pods);
  std::vector<sdn::Cookie> cookies;
  cookies.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::size_t pod = rng.next_below(tree.config.pods);
    const net::NodeId src =
        tree.hosts[pod * hosts_per_pod + rng.next_below(hosts_per_pod)];
    net::NodeId dst = src;
    while (dst == src) {
      dst = tree.hosts[pod * hosts_per_pod + rng.next_below(hosts_per_pod)];
    }
    const auto& paths = preload_cache.get(src, dst);
    const auto cookie = static_cast<sdn::Cookie>(1000000 + i);
    server.table().add(cookie, paths[rng.next_below(paths.size())], 256e6,
                       rng.uniform(1e6, 125e6), sim::SimTime{});
    cookies.push_back(cookie);
  }

  // Same-pod replica sets keep selection itself cheap; the measured cost is
  // the refresh forced by the churn below.
  Rng req_rng(7);
  std::vector<net::NodeId> clients(kFlowsRequests);
  std::vector<std::vector<net::NodeId>> replica_sets(kFlowsRequests);
  for (std::size_t i = 0; i < kFlowsRequests; ++i) {
    const std::size_t pod = req_rng.next_below(tree.config.pods);
    clients[i] = tree.hosts[pod * hosts_per_pod +
                            req_rng.next_below(hosts_per_pod)];
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = tree.hosts[pod * hosts_per_pod +
                                       req_rng.next_below(hosts_per_pod)];
      bool dup = r == clients[i];
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    replica_sets[i] = std::move(reps);
  }

  FlowsRun run;
  run.decisions.reserve(kFlowsRequests);
  Rng churn_rng(11);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kFlowsRequests; ++i) {
    // One background SETBW per request: logs one flow the decision below
    // must sync first.
    const sdn::Cookie victim = cookies[churn_rng.next_below(cookies.size())];
    server.table().setbw(victim, churn_rng.uniform(1e6, 125e6),
                          sim::SimTime{});
    server.enqueue({.client = clients[i],
                    .replicas = replica_sets[i],
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
  run.log_syncs = server.shard_reloads();
  return run;
}

int flows_main() {
  const net::ThreeTier tree =
      net::three_tier_from_fat_tree(net::FatTreeConfig{8, 125e6});
  constexpr std::size_t kSweep[] = {512, 2048, 8192};
  for (const std::size_t flows : kSweep) {
    const FlowsRun run = run_flows_mode(tree, flows);
    // Decision records to stdout: CI checks the hash and a rerun diff.
    for (const std::string& d : run.decisions) {
      std::printf("%s\n", d.c_str());
    }
    std::fprintf(stderr, "flows=%-5zu %8.0f selections/s (%llu log syncs)\n",
                 flows, kFlowsRequests / run.secs,
                 static_cast<unsigned long long>(run.log_syncs));
  }
  return 0;
}

}  // namespace
}  // namespace mayflower::flowserver

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--batch") == 0) {
    return mayflower::flowserver::batch_main();
  }
  if (argc > 1 && std::strcmp(argv[1], "--flows") == 0) {
    return mayflower::flowserver::flows_main();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
