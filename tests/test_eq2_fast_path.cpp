// Differential test of the Eq. 2 fast path. evaluate_path() and
// ReplicaPathSelector::select() cost candidates through LinkShareMemo; they
// must reproduce, bit for bit, the per-flow evaluation the memo replaced:
// BandwidthModel::new_flow_share for b_j, then one
// BandwidthModel::reduced_share per believed flow crossing the path, in
// cookie order. The oracle below is that evaluation. Populations are seeded
// and random, on the paper's tree and on a k=8 fat-tree, and are admitted
// through the selector itself, so frozen estimates come out of the same
// waterfills and equal believed shares are the common case.
//
// select() also skips the impact term of any candidate whose own time
// already reaches the best total. The oracle costs every candidate in full,
// with and without impact awareness, so the differential cases hold that
// bound to an exhaustive minimum; the Eq2Bound cases pin its edges (equal
// totals, an own time equal to the best total, a cheaper candidate just
// under it) with hand-picked exact numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "flowserver/selector.hpp"
#include "net/fat_tree.hpp"
#include "net/tree.hpp"

namespace mayflower::flowserver {
namespace {

bool crosses(const net::Path& flow_path, const net::Path& path) {
  return std::any_of(path.links.begin(), path.links.end(),
                     [&](net::LinkId l) { return flow_path.contains_link(l); });
}

// FLOWCOST as the pre-memo code computed it. `keys` lists every believed
// flow of `view`, ascending; the path's flows are found by scanning them,
// not through the view's link index.
Candidate oracle_evaluate(const BandwidthModel& model,
                          const net::NetworkView& view,
                          const std::vector<std::uint64_t>& keys,
                          net::NodeId replica, const net::Path& path,
                          double request_bytes) {
  Candidate c;
  c.replica = replica;
  c.path = path;
  c.est_bw_bps = model.new_flow_share(view, path);
  c.cost.own_time = request_bytes / c.est_bw_bps;
  for (const std::uint64_t key : keys) {
    const net::NetworkView::Flow* f = view.find(key);
    if (!crosses(f->path, path)) continue;
    const double cur = f->bw_bps;
    const double reduced = model.reduced_share(view, *f, path, c.est_bw_bps);
    if (reduced < cur) {
      const double r = f->remaining_bytes;
      c.cost.impact += r / reduced - r / cur;
      c.bumped.emplace_back(f->key, reduced);
    }
  }
  c.cost.total = c.cost.own_time + c.cost.impact;
  return c;
}

void expect_identical(const Candidate& fast, const Candidate& oracle) {
  EXPECT_EQ(fast.replica, oracle.replica);
  EXPECT_EQ(fast.path.links, oracle.path.links);
  EXPECT_EQ(fast.path.nodes, oracle.path.nodes);
  EXPECT_EQ(fast.est_bw_bps, oracle.est_bw_bps);
  EXPECT_EQ(fast.cost.own_time, oracle.cost.own_time);
  EXPECT_EQ(fast.cost.impact, oracle.cost.impact);
  EXPECT_EQ(fast.cost.total, oracle.cost.total);
  EXPECT_EQ(fast.bumped, oracle.bumped);  // keys, values and order
}

// What the population exercised; each case asserts its coverage.
struct Coverage {
  std::size_t max_flows_on_link = 0;
  std::size_t links_with_equal_shares = 0;
  std::size_t links_with_spare_capacity = 0;
  std::size_t zero_hop_candidates = 0;
  std::size_t bounded = 0;         // skipped by select()'s own-time bound
  std::size_t bounded_greedy = 0;  // the same, without impact awareness
};

class Eq2FastPath : public ::testing::Test {
 protected:
  void run(const net::ThreeTier& fabric, std::uint64_t seed,
           std::size_t admissions, std::size_t queries, Coverage& cov) {
    net::PathCache paths(fabric.topo);
    FlowStateTable table;
    ReplicaPathSelector selector(fabric.topo, paths, table);
    const BandwidthModel& model = selector.model();
    net::NetworkView view;
    view.reset_links(fabric.topo);
    std::vector<std::uint64_t> keys;
    Rng rng(seed);

    const auto pick_host = [&] {
      return fabric.hosts[rng.next_below(fabric.hosts.size())];
    };
    // One hot client gathers many reads, so its downlink carries more than
    // 16 flows and std::sort leaves its insertion-sort regime.
    const net::NodeId hot = pick_host();
    const auto pick_request = [&](net::NodeId& client,
                                  std::vector<net::NodeId>& replicas) {
      client = rng.bernoulli(0.3) ? hot : pick_host();
      replicas.clear();
      while (replicas.size() < 3) {
        // Now and then the client holds a replica: a zero-hop candidate.
        const net::NodeId r = rng.bernoulli(0.05) ? client : pick_host();
        if (std::find(replicas.begin(), replicas.end(), r) == replicas.end()) {
          replicas.push_back(r);
        }
      }
    };

    net::NodeId client = net::kInvalidNode;
    std::vector<net::NodeId> replicas;
    std::uint64_t next_key = 1;
    for (std::size_t i = 0; i < admissions; ++i) {
      pick_request(client, replicas);
      const double bytes = rng.uniform(1e6, 256e6);
      const auto best = selector.select(view, client, replicas, bytes);
      ASSERT_TRUE(best.has_value());
      apply_candidate(view, *best, next_key, bytes);
      keys.push_back(next_key++);
      // Stats-poll churn: a measurement replaces some frozen estimate
      // (often below the fair share, leaving spare capacity), a transfer
      // progresses, a flow finishes.
      if (rng.bernoulli(0.2)) {
        const std::uint64_t k = keys[rng.next_below(keys.size())];
        view.set_flow_bps(k, view.find(k)->bw_bps * rng.uniform(0.1, 1.5));
      }
      if (rng.bernoulli(0.2)) {
        const std::uint64_t k = keys[rng.next_below(keys.size())];
        view.resize_flow(k, view.find(k)->size_bytes * rng.uniform(0.1, 1.0));
      }
      if (rng.bernoulli(0.1)) {
        const std::size_t at = rng.next_below(keys.size());
        view.drop_flow(keys[at]);
        keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    ASSERT_EQ(view.flow_count(), keys.size());

    std::vector<const net::NetworkView::Flow*> on_link;
    for (net::LinkId l = 0; l < view.link_count(); ++l) {
      on_link.clear();
      view.append_flows_on_link(l, on_link);
      if (on_link.empty()) continue;
      cov.max_flows_on_link = std::max(cov.max_flows_on_link, on_link.size());
      double load = 0.0;
      std::vector<double> shares;
      for (const net::NetworkView::Flow* f : on_link) {
        load += f->bw_bps;
        shares.push_back(f->bw_bps);
      }
      std::sort(shares.begin(), shares.end());
      if (std::adjacent_find(shares.begin(), shares.end()) != shares.end()) {
        ++cov.links_with_equal_shares;
      }
      if (load < view.capacity_bps(l)) ++cov.links_with_spare_capacity;
    }

    for (std::size_t q = 0; q < queries; ++q) {
      pick_request(client, replicas);
      const double bytes = rng.uniform(1e6, 256e6);
      // The exhaustive minimum, first of equal totals winning, with the
      // impact term and without it (total == own time).
      std::optional<Candidate> oracle_best;
      std::optional<Candidate> oracle_greedy;
      std::uint64_t costed = 0;
      for (const net::NodeId r : replicas) {
        for (const net::Path& p : paths.get(r, client)) {
          const Candidate oracle =
              oracle_evaluate(model, view, keys, r, p, bytes);
          expect_identical(evaluate_path(model, view, r, p, bytes), oracle);
          ++costed;
          if (p.links.empty()) ++cov.zero_hop_candidates;
          if (!oracle_best.has_value() ||
              oracle.cost.total < oracle_best->cost.total) {
            oracle_best = oracle;
          }
          if (!oracle_greedy.has_value() ||
              oracle.cost.own_time < oracle_greedy->cost.total) {
            oracle_greedy = oracle;
            oracle_greedy->cost.total = oracle.cost.own_time;
          }
        }
      }
      ASSERT_TRUE(oracle_best.has_value());
      for (const bool aware : {true, false}) {
        selector.set_impact_aware(aware);
        SelectStats stats;
        const auto best =
            selector.select(view, client, replicas, bytes, &stats);
        ASSERT_TRUE(best.has_value());
        expect_identical(*best, aware ? *oracle_best : *oracle_greedy);
        EXPECT_EQ(stats.candidates_evaluated, costed);
        (aware ? cov.bounded : cov.bounded_greedy) += stats.candidates_bounded;
      }
      selector.set_impact_aware(true);
      if (HasFailure()) return;  // one diverging request says enough
    }
  }

  static void expect_covered(const Coverage& cov) {
    EXPECT_GT(cov.max_flows_on_link, 16u);
    EXPECT_GT(cov.links_with_equal_shares, 0u);
    EXPECT_GT(cov.links_with_spare_capacity, 0u);
    EXPECT_GT(cov.zero_hop_candidates, 0u);
    EXPECT_GT(cov.bounded, 0u);
    EXPECT_GT(cov.bounded_greedy, 0u);
  }
};

TEST_F(Eq2FastPath, PaperTreeMatchesPerFlowOracle) {
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run(tree, seed, 160, 40, cov);
    if (HasFailure()) return;
  }
  expect_covered(cov);
}

TEST_F(Eq2FastPath, FatTreeK8MatchesPerFlowOracle) {
  const net::ThreeTier tree =
      net::three_tier_from_fat_tree(net::FatTreeConfig{8, 125e6});
  Coverage cov;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    run(tree, seed, 200, 25, cov);
    if (HasFailure()) return;
  }
  expect_covered(cov);
}

// A star: replica i (node i + 1) reaches the client (node 0) over one link
// of spokes[i]'s capacity, and a busy spoke carries one believed flow at
// its full capacity with 800 MB left. Every share and cost is exact: a
// 400 MB read over a busy 200 MB/s spoke gets 100 MB/s, so it costs 4 s of
// own time plus (8 - 4) s of impact = 8 s; over an idle spoke of capacity
// c it costs 400e6 / c.
class Eq2Bound : public ::testing::Test {
 protected:
  struct Spoke {
    double capacity_bps;
    bool busy;
  };

  // The spoke select() picks with the replicas listed in `order`.
  std::size_t pick(const std::vector<Spoke>& spokes,
                   const std::vector<std::size_t>& order, SelectStats& stats,
                   double* total = nullptr) {
    net::Topology topo;
    const net::NodeId client = topo.add_node(net::NodeKind::kHost, "client");
    for (const Spoke& spoke : spokes) {
      const net::NodeId r = topo.add_node(net::NodeKind::kHost, "replica");
      topo.add_link(r, client, spoke.capacity_bps);
    }
    net::PathCache paths(topo);
    FlowStateTable table;
    const ReplicaPathSelector selector(topo, paths, table);
    net::NetworkView view;
    view.reset_links(topo);
    for (std::size_t i = 0; i < spokes.size(); ++i) {
      if (!spokes[i].busy) continue;
      view.add_flow(100 + i, paths.get(replica(i), client).front(), 800e6,
                    spokes[i].capacity_bps);
    }
    std::vector<net::NodeId> replicas;
    for (const std::size_t i : order) replicas.push_back(replica(i));
    const auto best = selector.select(view, client, replicas, 400e6, &stats);
    EXPECT_TRUE(best.has_value());
    if (!best.has_value()) return spokes.size();
    if (total != nullptr) *total = best->cost.total;
    return best->replica - 1;
  }

  static net::NodeId replica(std::size_t spoke) {
    return static_cast<net::NodeId>(spoke + 1);
  }
};

TEST_F(Eq2Bound, EqualTotalsKeepTheFirstEnumerated) {
  const std::vector<Spoke> spokes = {{200e6, true}, {200e6, true}};
  SelectStats stats;
  double total = 0.0;
  EXPECT_EQ(pick(spokes, {0, 1}, stats, &total), 0u);
  EXPECT_EQ(total, 8.0);
  EXPECT_EQ(pick(spokes, {1, 0}, stats), 1u);
  // Each own time (4 s) is below the best total (8 s): no candidate is
  // bounded, and the tie goes to the first.
  EXPECT_EQ(stats.candidates_evaluated, 4u);
  EXPECT_EQ(stats.candidates_bounded, 0u);
}

TEST_F(Eq2Bound, OwnTimeEqualToTheBestTotalDoesNotReplaceIt) {
  // Spoke 1 is idle at 50 MB/s: own time 8 s, no impact, total 8 s.
  const std::vector<Spoke> spokes = {{200e6, true}, {50e6, false}};
  SelectStats stats;
  double total = 0.0;
  EXPECT_EQ(pick(spokes, {0, 1}, stats, &total), 0u);
  EXPECT_EQ(total, 8.0);
  EXPECT_EQ(stats.candidates_bounded, 1u);
  stats = {};
  EXPECT_EQ(pick(spokes, {1, 0}, stats, &total), 1u);
  EXPECT_EQ(total, 8.0);
  EXPECT_EQ(stats.candidates_bounded, 0u);
}

TEST_F(Eq2Bound, ACheaperLaterCandidateStillReplacesTheBest) {
  // After spoke 0 (own 4 s, total 8 s): spoke 1's own time 400/50.04 s is
  // under 8 s by less than 0.1%, and spoke 2's own time 5 s is above spoke
  // 0's own time but below its total. Each is strictly cheaper.
  const std::vector<Spoke> spokes = {
      {200e6, true}, {50.04e6, false}, {80e6, false}};
  SelectStats stats;
  double total = 0.0;
  EXPECT_EQ(pick(spokes, {0, 1}, stats, &total), 1u);
  EXPECT_EQ(total, 400e6 / 50.04e6);
  EXPECT_EQ(pick(spokes, {0, 2}, stats, &total), 2u);
  EXPECT_EQ(total, 5.0);
  EXPECT_EQ(stats.candidates_bounded, 0u);
}

TEST(LinkShareMemo, ListsAFlowCrossingSeveralPathLinksOnce) {
  // One flow over the whole 6-link path, one sharing only its last link:
  // the first is listed once, at the minimum of its per-link shares.
  const net::ThreeTier tree = net::build_three_tier(net::ThreeTierConfig{});
  net::PathCache paths(tree.topo);
  const net::Path& p = paths.get(tree.hosts[0], tree.hosts[16]).front();
  ASSERT_EQ(p.links.size(), 6u);
  net::NetworkView view;
  view.reset_links(tree.topo);
  view.add_flow(7, p, 1e9, 40e6);
  view.add_flow(3, paths.get(tree.hosts[17], tree.hosts[16]).front(), 1e9,
                90e6);

  BandwidthModel model;
  LinkShareMemo memo(model, view);
  const double b = memo.new_flow_share(p);
  EXPECT_EQ(b, model.new_flow_share(view, p));
  const auto reduced = memo.reduced_shares(p, b);
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced[0].flow->key, 3u);
  EXPECT_EQ(reduced[1].flow->key, 7u);
  for (const LinkShareMemo::Reduced& r : reduced) {
    EXPECT_EQ(r.share, model.reduced_share(view, *r.flow, p, b));
    EXPECT_LE(r.share, r.flow->bw_bps);
  }
}

}  // namespace
}  // namespace mayflower::flowserver
