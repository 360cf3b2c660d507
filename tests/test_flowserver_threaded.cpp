// Threaded batch admission: the decision pipeline must produce
// byte-identical decisions at every thread count (the WorkerPool determinism
// contract, DESIGN.md §11), for batches of one and larger, and keep the
// exported metrics byte-identical across thread counts. The stress test at
// the end is the TSan lane's target: producer threads hammer post() while
// the control thread drains, polls and injects fabric faults.
#include <gtest/gtest.h>

#include <atomic>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "net/tree.hpp"
#include "obs/observability.hpp"

namespace mayflower::flowserver {
namespace {

struct RunOutput {
  std::string transcript;    // every decision, hexfloat (bit-exact) doubles
  std::string metrics_json;  // the --metrics-out payload for the run
};

// One deterministic admission workload: kRequests reads posted in groups of
// `group`, each group drained and its flows started so later batches see the
// load, with a stats poll between groups. `hotspot` concentrates clients in
// pod 0 reading from pods 2-3 (a fig4-style incast pattern); otherwise
// clients and replicas are uniform over the cluster (fig6-style).
RunOutput run_workload(std::size_t decision_threads, std::size_t group,
                       std::uint64_t seed, bool hotspot) {
  constexpr int kRequests = 48;
  sim::EventQueue events;
  net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  sdn::SdnFabric fabric(events, tree.topo);
  obs::Observability hub;

  FlowserverConfig cfg;
  cfg.decision_threads = decision_threads;
  cfg.batch_size = group;
  cfg.obs = &hub;
  Flowserver server(fabric, cfg);

  const std::size_t hosts = tree.hosts.size();
  const std::size_t pod = hosts / 4;
  Rng rng(seed);
  std::vector<std::vector<ReadAssignment>> plans(kRequests);
  int posted = 0;
  while (posted < kRequests) {
    const int n = static_cast<int>(
        std::min<std::size_t>(group, static_cast<std::size_t>(kRequests - posted)));
    for (int k = 0; k < n; ++k) {
      const int idx = posted + k;
      const net::NodeId client =
          hotspot ? tree.hosts[rng.next_below(pod)]
                  : tree.hosts[rng.next_below(hosts)];
      std::vector<net::NodeId> replicas;
      while (replicas.size() < 3) {
        const net::NodeId r =
            hotspot ? tree.hosts[2 * pod + rng.next_below(2 * pod)]
                    : tree.hosts[rng.next_below(hosts)];
        if (r == client) continue;
        bool dup = false;
        for (const net::NodeId have : replicas) dup = dup || have == r;
        if (!dup) replicas.push_back(r);
      }
      const double bytes = rng.uniform(64e6, 512e6);
      server.post({.client = client,
                   .replicas = std::move(replicas),
                   .bytes = bytes,
                   .done = [&plans, idx](std::vector<ReadAssignment> plan) {
                     plans[static_cast<std::size_t>(idx)] = std::move(plan);
                   }});
    }
    server.drain();
    for (int k = posted; k < posted + n; ++k) {
      for (const auto& a : plans[static_cast<std::size_t>(k)]) {
        fabric.start_flow(a.cookie, a.path, a.bytes, nullptr);
      }
    }
    posted += n;
    server.collect_stats();  // refresh estimates between batches
  }

  std::ostringstream out;
  out << std::hexfloat;
  for (int i = 0; i < kRequests; ++i) {
    out << "req " << i << "\n";
    for (const auto& a : plans[static_cast<std::size_t>(i)]) {
      out << "  replica=" << a.replica << " bytes=" << a.bytes
          << " est=" << a.est_bw_bps << " path=";
      for (const net::NodeId node : a.path.nodes) out << node << ",";
      out << "\n";
    }
  }
  out << "selections=" << server.selections()
      << " splits=" << server.split_reads()
      << " table=" << server.table().size() << "\n";
  return RunOutput{out.str(), hub.to_json()};
}

constexpr std::uint64_t kSeeds[] = {0xfee1d, 0xf16};

// Batches of one, one inline worker as the reference (the name predates
// the removal of the serial pipeline; the golden fig4/fig6 reports pin
// batch-of-one decisions against it).
TEST(FlowserverThreadedBatch, BatchOfOneMatchesLegacyAtEveryThreadCount) {
  for (const std::uint64_t seed : kSeeds) {
    for (const bool hotspot : {false, true}) {
      const RunOutput one = run_workload(1, 1, seed, hotspot);
      EXPECT_NE(one.transcript.find("selections=48"), std::string::npos);
      for (const std::size_t threads : {2u, 8u}) {
        const RunOutput got = run_workload(threads, 1, seed, hotspot);
        EXPECT_EQ(got.transcript, one.transcript)
            << "threads=" << threads << " seed=" << seed
            << " hotspot=" << hotspot;
      }
    }
  }
}

TEST(FlowserverThreadedBatch, BatchedDecisionsIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    for (const bool hotspot : {false, true}) {
      const RunOutput one = run_workload(1, 8, seed, hotspot);
      EXPECT_NE(one.transcript.find("selections=48"), std::string::npos);
      for (const std::size_t threads : {2u, 8u}) {
        const RunOutput got = run_workload(threads, 8, seed, hotspot);
        EXPECT_EQ(got.transcript, one.transcript)
            << "threads=" << threads << " seed=" << seed
            << " hotspot=" << hotspot;
      }
    }
  }
}

TEST(FlowserverThreadedBatch, MetricsJsonByteIdenticalAcrossThreadCounts) {
  const RunOutput one = run_workload(1, 8, kSeeds[0], false);
  ASSERT_FALSE(one.metrics_json.empty());
  EXPECT_NE(one.metrics_json.find("decisions"), std::string::npos);
  for (const std::size_t threads : {2u, 8u}) {
    const RunOutput got = run_workload(threads, 8, kSeeds[0], false);
    EXPECT_EQ(got.metrics_json, one.metrics_json) << "threads=" << threads;
  }
}

// TSan target: four producer threads post reads while the control thread
// drains with an 8-worker pool, polls stats, and fails a core switch
// mid-run. Nothing here asserts on decision content — the point is that
// every queue hand-off, worker round and fault-path lock scope is exercised
// under contention with the race detector watching.
TEST(FlowserverThreadedStress, ConcurrentPostersDrainsPollsAndFaults) {
  sim::EventQueue events;
  net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  sdn::SdnFabric fabric(events, tree.topo);

  FlowserverConfig cfg;
  cfg.decision_threads = 8;
  cfg.batch_size = 100000;  // never auto-drain; the control loop drains
  Flowserver server(fabric, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  constexpr int kTotal = kProducers * kPerProducer;
  std::atomic<int> delivered{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000u + static_cast<std::uint64_t>(p));
      const std::size_t hosts = tree.hosts.size();
      for (int i = 0; i < kPerProducer; ++i) {
        const net::NodeId client = tree.hosts[rng.next_below(hosts)];
        std::vector<net::NodeId> replicas;
        while (replicas.size() < 2) {
          const net::NodeId r = tree.hosts[rng.next_below(hosts)];
          if (r != client &&
              (replicas.empty() || replicas.front() != r)) {
            replicas.push_back(r);
          }
        }
        server.post({.client = client,
                     .replicas = std::move(replicas),
                     .bytes = 64e6,
                     .done = [&delivered](std::vector<ReadAssignment>) {
                       delivered.fetch_add(1, std::memory_order_relaxed);
                     }});
      }
    });
  }

  std::size_t decided = 0;
  bool faulted = false;
  std::uint64_t spins = 0;
  while (delivered.load(std::memory_order_relaxed) < kTotal) {
    const std::size_t n = server.drain();
    decided += n;
    server.collect_stats();
    if (!faulted && decided > 16) {
      fabric.fail_switch(tree.core_switches[0]);
      faulted = true;
    }
    if (n == 0) std::this_thread::yield();
    ASSERT_LT(++spins, 10000000u) << "admission queue stalled";
  }
  for (auto& t : producers) t.join();
  decided += server.drain();

  EXPECT_EQ(decided, static_cast<std::size_t>(kTotal));
  EXPECT_EQ(delivered.load(), kTotal);
  EXPECT_TRUE(faulted);
  EXPECT_EQ(server.selections(), static_cast<std::uint64_t>(kTotal));
}

}  // namespace
}  // namespace mayflower::flowserver
