// Write-path co-design sweep: placement policy (static / model / measured)
// crossed with the replication transport (legacy fan-out vs the
// Flowserver-planned pipelined chain) under a skewed background load —
// long-lived non-filesystem elephants pinned to half the pods, the traffic
// the believed-flow model cannot see but measured link rates can.
//
//   static          random constrained placement, ECMP write paths (the
//                   paper's evaluated system);
//   model           Flowserver-collaborative placement ranking targets by
//                   believed shares (blind to the elephants);
//   measured        collaborative placement ranking by residual headroom
//                   from polled link rates (sees the elephants);
//   ... +chain      appends additionally carry a kPlanWrite pipelined
//                   relay chain, every hop SETBW'd to the chain bottleneck.
//
// The bench exits non-zero unless (a) write decisions are byte-identical
// across decision_threads 1 and 8, and (b) pipelined+measured beats the
// static fan-out baseline by >= 2x on mean append completion.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "flowserver/flowserver.hpp"
#include "fs/cluster.hpp"
#include "net/paths.hpp"

using namespace mayflower;

namespace {

// Effectively infinite: the elephants outlive the simulation.
constexpr double kElephantBytes = 1e15;

// Pods [0, hot_pods) carry one host-to-host elephant per host, endpoints
// drawn from the same hot set so the cold pods stay quiet.
void start_background_elephants(fs::Cluster& cluster, int hot_pods) {
  const net::ThreeTier& tree = cluster.tree();
  std::vector<net::NodeId> hot;
  for (const net::NodeId h : tree.hosts) {
    if (tree.pod_of(h) < hot_pods) hot.push_back(h);
  }
  net::PathCache paths(tree.topo);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const net::NodeId src = hot[(i + 1) % hot.size()];
    const net::NodeId dst = hot[i];
    const auto& options = paths.get(src, dst);
    MAYFLOWER_ASSERT(!options.empty());
    const net::Path& path = options[i % options.size()];
    const sdn::Cookie cookie = cluster.fabric().new_cookie();
    cluster.fabric().install_path(cookie, path);
    cluster.fabric().start_flow(cookie, path, kElephantBytes);
  }
}

harness::RunResult run_write_path(policy::WritePlacementKind placement,
                                  bool pipelined, double lambda,
                                  std::uint64_t seed) {
  fs::ClusterConfig cfg;
  cfg.write_placement = placement;
  cfg.write_pipeline = pipelined;
  harness::RunResult result = bench::run_write_tenant(
      cfg, lambda, seed, /*jobs=*/200, /*warmup=*/25, [](fs::Cluster& c) {
        start_background_elephants(c, /*hot_pods=*/2);
      });
  result.scheme = strfmt("%s+%s", policy::to_string(placement),
                         pipelined ? "chain" : "fanout");
  return result;
}

double mean_of(const harness::RunResult& r) {
  double sum = 0.0;
  for (const double d : r.completions) sum += d;
  return r.completions.empty() ? 0.0
                               : sum / static_cast<double>(r.completions.size());
}

// --- decision-determinism gate ---------------------------------------------
// A mixed read+write admission workload against a standalone Flowserver; the
// transcript captures every decision bit-exactly. Identical transcripts at
// decision_threads 1 and 8 prove the snapshot pipeline treats write slots as
// deterministically as read slots.
std::string decision_transcript(std::size_t decision_threads) {
  constexpr int kRequests = 24;
  constexpr std::size_t kGroup = 8;
  sim::EventQueue events;
  net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  sdn::SdnFabric fabric(events, tree.topo);
  flowserver::FlowserverConfig cfg;
  cfg.decision_threads = decision_threads;
  cfg.batch_size = kGroup;
  flowserver::Flowserver server(fabric, cfg);

  const std::size_t hosts = tree.hosts.size();
  Rng rng(0x5eedULL);
  std::vector<std::vector<flowserver::ReadAssignment>> plans(kRequests);
  int posted = 0;
  while (posted < kRequests) {
    const int n = static_cast<int>(std::min<std::size_t>(
        kGroup, static_cast<std::size_t>(kRequests - posted)));
    for (int k = 0; k < n; ++k) {
      const int idx = posted + k;
      std::vector<net::NodeId> nodes;
      while (nodes.size() < 4) {
        const net::NodeId h = tree.hosts[rng.next_below(hosts)];
        if (std::find(nodes.begin(), nodes.end(), h) == nodes.end()) {
          nodes.push_back(h);
        }
      }
      const double bytes = rng.uniform(64e6, 512e6);
      auto sink = [&plans, idx](std::vector<flowserver::ReadAssignment> p) {
        plans[static_cast<std::size_t>(idx)] = std::move(p);
      };
      if (idx % 2 == 0) {
        server.enqueue(
            {.replicas = nodes, .bytes = bytes, .write = true, .done = sink});
      } else {
        server.enqueue({.client = nodes[0],
                        .replicas = {nodes[1], nodes[2], nodes[3]},
                        .bytes = bytes,
                        .done = sink});
      }
    }
    server.drain();
    for (int k = posted; k < posted + n; ++k) {
      for (const auto& a : plans[static_cast<std::size_t>(k)]) {
        fabric.start_flow(a.cookie, a.path, a.bytes, nullptr);
      }
    }
    posted += n;
    server.collect_stats();
  }

  std::ostringstream out;
  out << std::hexfloat;
  for (int i = 0; i < kRequests; ++i) {
    out << "req " << i << "\n";
    for (const auto& a : plans[static_cast<std::size_t>(i)]) {
      out << "  cookie=" << a.cookie << " replica=" << a.replica
          << " bytes=" << a.bytes << " est=" << a.est_bw_bps << " path=";
      for (const net::NodeId n : a.path.nodes) out << n << ",";
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace

int main() {
  bench::print_banner(
      "Write path: placement policy x replication transport",
      "create + append 256 MB per job, elephants pinned to pods 0-1");

  if (decision_transcript(1) != decision_transcript(8)) {
    std::fprintf(stderr,
                 "FAIL: write decisions differ between decision_threads 1 "
                 "and 8\n");
    return 1;
  }
  std::printf(
      "\ndecision determinism: transcripts byte-identical at "
      "decision_threads 1 and 8\n\n");

  const std::vector<std::pair<policy::WritePlacementKind, bool>> combos = {
      {policy::WritePlacementKind::kStatic, false},
      {policy::WritePlacementKind::kStatic, true},
      {policy::WritePlacementKind::kModel, false},
      {policy::WritePlacementKind::kModel, true},
      {policy::WritePlacementKind::kMeasured, false},
      {policy::WritePlacementKind::kMeasured, true},
  };
  double static_fanout_mean = 0.0;
  double measured_chain_mean = 0.0;
  harness::print_sweep_header("lambda");
  for (const double lambda : {0.02, 0.035}) {
    for (const auto& [placement, pipelined] : combos) {
      harness::RunResult pooled;
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        const auto r = run_write_path(placement, pipelined, lambda, seed);
        pooled.scheme = r.scheme;
        pooled.completions.insert(pooled.completions.end(),
                                  r.completions.begin(), r.completions.end());
        pooled.incomplete += r.incomplete;
      }
      pooled.summary = summarize(pooled.completions);
      harness::print_sweep_row(pooled.scheme, lambda, pooled);
      const double mean = mean_of(pooled);
      if (placement == policy::WritePlacementKind::kStatic && !pipelined) {
        static_fanout_mean += mean;
      }
      if (placement == policy::WritePlacementKind::kMeasured && pipelined) {
        measured_chain_mean += mean;
      }
    }
  }

  const double speedup = measured_chain_mean > 0.0
                             ? static_fanout_mean / measured_chain_mean
                             : 0.0;
  std::printf(
      "\nmeasured+chain vs static+fanout mean append completion: %.2fx\n"
      "The chain kills the upload leg (writer-local primary) and overlaps\n"
      "the relay hops at the joint bottleneck; measured placement steers\n"
      "replicas off the elephant-loaded pods that the believed-flow model\n"
      "cannot see.\n",
      speedup);
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: expected >= 2x, got %.2fx\n", speedup);
    return 1;
  }
  return 0;
}
