// Microbenchmark: one replica–path selection (Pseudocode 1) against a state
// table preloaded with N tracked flows — the per-read control-plane cost a
// Flowserver deployment would pay.
//
// Four modes:
//  * default: google-benchmark micro timings of select() and evaluate_path()
//    against a prebuilt decision view;
//  * --flows: background-flow sweep on a k=8 fat-tree comparing the legacy
//    single-shard state plane against the edge-sharded one over an identical
//    churny request stream — decision records must be byte-identical (the
//    sharding invariant) and go to stdout for CI's determinism diff;
//  * --threads: drives one large decision batch through the snapshot
//    pipeline at decision_threads=1 and =8 over identical state. Decisions
//    must be byte-identical (always enforced — that is the pipeline's
//    design invariant) and the 8-worker drain must be >= 1.8x faster when
//    the host actually has cores to parallelize on (the bar is skipped,
//    loudly, below 4 hardware threads). Decisions go to stdout for CI's
//    two-run determinism diff; timings and verdicts go to stderr;
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
//    stdout (two seeded runs must be byte-identical — CI diffs them);
//    timings and the >= 2x acceptance bar go to stderr, with a non-zero
//    exit when the bar fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
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

// --- --threads mode -------------------------------------------------------

struct ThreadsRun {
  double drain_sec = 0.0;
  std::vector<std::string> decisions;  // same record format as --batch
};

// Fewer requests than --batch: every request here is a multiread plan over
// a fabric crowded with kPreloadFlows cross-pod flows (~tens of ms each
// serial), and the mode runs the batch twice.
constexpr std::size_t kThreadRequests = 256;

// One big admission batch decided by the snapshot pipeline with `threads`
// workers. The preload population spans ALL pods, so nearly every candidate
// path is crowded and evaluation (Eq. 2's per-link waterfills for every
// candidate) dominates the drain — the part the worker pool parallelizes.
ThreadsRun run_threads_mode(std::size_t threads) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);

  FlowserverConfig cfg;
  cfg.decision_threads = threads;
  cfg.batch_size = kThreadRequests * 4;  // never size-triggered
  Flowserver server(fabric, cfg);

  Rng rng(42);
  net::PathCache preload_cache(tree.topo);
  for (std::size_t i = 0; i < kPreloadFlows; ++i) {
    const net::NodeId src = tree.hosts[rng.next_below(tree.hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = tree.hosts[rng.next_below(tree.hosts.size())];
    const auto& paths = preload_cache.get(src, dst);
    server.table().add(static_cast<sdn::Cookie>(1000000 + i),
                       paths[rng.next_below(paths.size())], 256e6,
                       rng.uniform(1e6, 125e6), sim::SimTime{});
  }

  Rng req_rng(7);
  std::vector<net::NodeId> clients(kThreadRequests);
  std::vector<std::vector<net::NodeId>> replica_sets(kThreadRequests);
  for (std::size_t i = 0; i < kThreadRequests; ++i) {
    clients[i] = tree.hosts[req_rng.next_below(tree.hosts.size())];
    std::vector<net::NodeId> reps;
    while (reps.size() < 3) {
      const net::NodeId r = tree.hosts[req_rng.next_below(tree.hosts.size())];
      bool dup = r == clients[i];
      for (const net::NodeId seen : reps) dup |= (seen == r);
      if (!dup) reps.push_back(r);
    }
    replica_sets[i] = std::move(reps);
  }

  // Warm-up drain: spins up the worker pool and populates the path cache so
  // the timed drain measures evaluation, not one-time setup. Identical at
  // every thread count, so decision identity is unaffected.
  server.post({.client = clients[0], .replicas = replica_sets[0],
               .bytes = 256e6});
  server.drain();

  ThreadsRun run;
  run.decisions.reserve(kThreadRequests);
  for (std::size_t i = 0; i < kThreadRequests; ++i) {
    server.post({.client = clients[i],
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
  const auto t0 = std::chrono::steady_clock::now();
  server.drain();
  const auto t1 = std::chrono::steady_clock::now();
  run.drain_sec = std::chrono::duration<double>(t1 - t0).count();
  return run;
}

int threads_main() {
  const ThreadsRun serial = run_threads_mode(1);
  const ThreadsRun threaded = run_threads_mode(8);

  // Decision records to stdout: CI runs this twice and diffs.
  for (const std::string& d : threaded.decisions) {
    std::printf("%s\n", d.c_str());
  }

  const double speedup = serial.drain_sec / threaded.drain_sec;
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "threads=1  drain of %zu requests in %.3fs\n"
               "threads=8  drain of %zu requests in %.3fs\n"
               "speedup    %.2fx (bar: >= 1.8x on >= 4 hardware threads; "
               "host has %u)\n",
               kThreadRequests, serial.drain_sec, kThreadRequests,
               threaded.drain_sec,
               speedup, hw);

  bool ok = true;
  if (serial.decisions != threaded.decisions) {
    std::fprintf(stderr,
                 "FAIL: threads=8 decisions diverge from threads=1\n");
    ok = false;
  }
  if (hw >= 4) {
    if (speedup < 1.8) {
      std::fprintf(stderr, "FAIL: threaded drain speedup below 1.8x\n");
      ok = false;
    }
  } else {
    std::fprintf(stderr,
                 "NOTE: %u hardware thread(s) — speedup bar skipped "
                 "(identity still enforced)\n",
                 hw);
  }
  if (ok) std::fprintf(stderr, "PASS\n");
  return ok ? 0 : 1;
}

// --- --flows mode ---------------------------------------------------------
//
// Background-flow sweep on a k=8 fat-tree: for each population size, drive
// the same churny request stream through a LEGACY (single-shard) and a
// SHARDED (by edge switch) Flowserver. Each request is preceded by one
// background SETBW — under sharding that stales exactly one shard, so the
// per-request refresh reloads O(flows per edge) instead of re-copying the
// whole table. Decision records must be byte-identical across layouts (that
// is the sharding invariant) and go to stdout for CI's determinism diff;
// timings go to stderr. The >= 5x acceptance bar lives in macro_scale, which
// sweeps real k=16/k=32 fabrics — this mode is the quick shape check.

struct FlowsRun {
  double secs = 0.0;
  std::uint64_t shard_reloads = 0;
  std::uint64_t full_rebuilds = 0;
  std::vector<std::string> decisions;
};

constexpr std::size_t kFlowsRequests = 256;

FlowsRun run_flows_mode(const net::ThreeTier& tree, std::size_t flows,
                        bool sharded) {
  sim::EventQueue events;
  sdn::SdnFabric fabric(events, tree.topo);

  FlowserverConfig cfg;
  cfg.shard_by_edge = sharded;
  Flowserver server(fabric, cfg);

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
    // One background SETBW per request: stales the touched flow's shard
    // (sharded) or the whole table (legacy) before the decision below.
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
  run.shard_reloads = server.shard_reloads();
  run.full_rebuilds = server.full_view_rebuilds();
  return run;
}

int flows_main() {
  const net::ThreeTier tree =
      net::three_tier_from_fat_tree(net::FatTreeConfig{8, 125e6});
  constexpr std::size_t kSweep[] = {512, 2048, 8192};
  bool ok = true;
  for (const std::size_t flows : kSweep) {
    const FlowsRun legacy = run_flows_mode(tree, flows, false);
    const FlowsRun sharded = run_flows_mode(tree, flows, true);
    // Decision records to stdout: CI runs this twice and diffs. The sharded
    // run's records are printed; identity with legacy is enforced below.
    for (const std::string& d : sharded.decisions) {
      std::printf("%s\n", d.c_str());
    }
    std::fprintf(stderr,
                 "flows=%-5zu legacy  %8.0f selections/s (%llu full "
                 "rebuilds)\n"
                 "flows=%-5zu sharded %8.0f selections/s (%llu shard "
                 "reloads)  %.2fx\n",
                 flows, kFlowsRequests / legacy.secs,
                 static_cast<unsigned long long>(legacy.full_rebuilds), flows,
                 kFlowsRequests / sharded.secs,
                 static_cast<unsigned long long>(sharded.shard_reloads),
                 legacy.secs / sharded.secs);
    if (legacy.decisions != sharded.decisions) {
      std::fprintf(stderr,
                   "FAIL: sharded decisions diverge from legacy at "
                   "flows=%zu\n",
                   flows);
      ok = false;
    }
  }
  if (ok) std::fprintf(stderr, "PASS\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mayflower::flowserver

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--batch") == 0) {
    return mayflower::flowserver::batch_main();
  }
  if (argc > 1 && std::strcmp(argv[1], "--threads") == 0) {
    return mayflower::flowserver::threads_main();
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
