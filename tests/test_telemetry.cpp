// Adaptive budgeted telemetry (DESIGN.md §14): classification hysteresis,
// per-tick budget enforcement, mouse staleness bounds, and the identity
// contract — an unconstrained budget must not move a single decision or
// applied sample relative to legacy full-rate polling.
#include "flowserver/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flowserver/flowserver.hpp"
#include "net/paths.hpp"
#include "net/tree.hpp"
#include "obs/observability.hpp"

namespace mayflower::flowserver {
namespace {

using Verdict = AdaptiveTelemetry::Verdict;
using FlowClass = AdaptiveTelemetry::FlowClass;

constexpr double kCap = 125e6;  // 1 Gbps edge uplink

TelemetryConfig unit_config() {
  TelemetryConfig cfg;
  cfg.mouse_period = 4;
  cfg.elephant_fraction = 0.10;
  cfg.mouse_fraction = 0.05;
  cfg.demote_after = 2;
  return cfg;
}

TEST(AdaptiveTelemetryUnit, NewFlowsStartAsElephants) {
  AdaptiveTelemetry tel(unit_config());
  tel.begin_tick(0);
  EXPECT_EQ(tel.admit(7, 1e6, kCap), Verdict::kApply);
  // One slow sample is not enough to demote (demote_after = 2), and a new
  // flow must be polled at full rate until proven slow.
  EXPECT_EQ(tel.flow_class(7), FlowClass::kElephant);
  EXPECT_EQ(tel.elephants(), 1u);
}

TEST(AdaptiveTelemetryUnit, DemotionNeedsConsecutiveSlowSamples) {
  AdaptiveTelemetry tel(unit_config());
  tel.begin_tick(0);
  tel.admit(8, 1e6, kCap);  // slow sample 1
  tel.begin_tick(1);
  // A fast sample resets the streak...
  tel.admit(8, 50e6, kCap);
  tel.begin_tick(2);
  tel.admit(8, 1e6, kCap);  // slow sample 1 (again)
  EXPECT_EQ(tel.flow_class(8), FlowClass::kElephant);
  tel.begin_tick(3);
  tel.admit(8, 1e6, kCap);  // slow sample 2: demoted
  EXPECT_EQ(tel.flow_class(8), FlowClass::kMouse);
  EXPECT_EQ(tel.demotions(), 1u);
  EXPECT_EQ(tel.mice(), 1u);
}

TEST(AdaptiveTelemetryUnit, HysteresisBandHoldsTheCurrentClass) {
  AdaptiveTelemetry tel(unit_config());
  // Demote cookie 8 (8 % 4 == 0, so it is due again the very next cycle).
  tel.begin_tick(0);
  tel.admit(8, 1e6, kCap);
  tel.begin_tick(1);
  tel.admit(8, 1e6, kCap);
  ASSERT_EQ(tel.flow_class(8), FlowClass::kMouse);
  // 7% of the uplink is between mouse_fraction (5%) and elephant_fraction
  // (10%): a mouse stays a mouse there...
  tel.begin_tick(2);
  ASSERT_EQ(tel.admit(8, 0.07 * kCap, kCap), Verdict::kApply);
  EXPECT_EQ(tel.flow_class(8), FlowClass::kMouse);
  // ...and an elephant hovering there stays an elephant, streak cleared.
  tel.begin_tick(3);
  tel.admit(21, 1e6, kCap);  // elephant, one slow sample banked
  tel.begin_tick(4);
  tel.admit(21, 0.07 * kCap, kCap);  // band: streak resets
  tel.begin_tick(5);
  tel.admit(21, 1e6, kCap);  // slow sample 1 again — still elephant
  EXPECT_EQ(tel.flow_class(21), FlowClass::kElephant);
}

TEST(AdaptiveTelemetryUnit, PromotionIsImmediate) {
  AdaptiveTelemetry tel(unit_config());
  tel.begin_tick(0);
  tel.admit(8, 1e6, kCap);
  tel.begin_tick(1);
  tel.admit(8, 1e6, kCap);
  ASSERT_EQ(tel.flow_class(8), FlowClass::kMouse);
  tel.begin_tick(2);
  tel.admit(8, 0.5 * kCap, kCap);  // running hot: back to full-rate polling
  EXPECT_EQ(tel.flow_class(8), FlowClass::kElephant);
  EXPECT_EQ(tel.promotions(), 1u);
}

TEST(AdaptiveTelemetryUnit, MiceAreDeferredUntilTheirPeriodElapses) {
  AdaptiveTelemetry tel(unit_config());
  tel.begin_tick(0);
  tel.admit(8, 1e6, kCap);
  tel.begin_tick(1);
  tel.admit(8, 1e6, kCap);  // demoted at cycle 1; phase 8 % 4 = 0 -> due at 2
  tel.begin_tick(2);
  ASSERT_EQ(tel.admit(8, 1e6, kCap), Verdict::kApply);  // applied -> due at 6
  for (std::uint64_t c = 3; c < 6; ++c) {
    tel.begin_tick(c);
    EXPECT_EQ(tel.admit(8, 1e6, kCap), Verdict::kDeferMouse) << "cycle " << c;
  }
  tel.begin_tick(6);
  EXPECT_EQ(tel.admit(8, 1e6, kCap), Verdict::kApply);
  EXPECT_EQ(tel.deferred_mouse(), 3u);
}

TEST(AdaptiveTelemetryUnit, BudgetCapsAppliedSamplesPerTick) {
  TelemetryConfig cfg = unit_config();
  cfg.mouse_period = 1;
  cfg.samples_budget = 2;
  AdaptiveTelemetry tel(cfg);
  tel.begin_tick(0);
  EXPECT_EQ(tel.admit(1, 50e6, kCap), Verdict::kApply);
  EXPECT_EQ(tel.admit(2, 50e6, kCap), Verdict::kApply);
  EXPECT_EQ(tel.admit(3, 50e6, kCap), Verdict::kDeferBudget);
  EXPECT_EQ(tel.admit(4, 50e6, kCap), Verdict::kDeferBudget);
  EXPECT_EQ(tel.applied_this_tick(), 2u);
  // Next tick the budget resets and the deferred flows are still due.
  tel.begin_tick(1);
  EXPECT_EQ(tel.admit(3, 50e6, kCap), Verdict::kApply);
  EXPECT_EQ(tel.admit(4, 50e6, kCap), Verdict::kApply);
  EXPECT_EQ(tel.deferred_budget(), 2u);
}

TEST(AdaptiveTelemetryUnit, ForgetDropsClassificationState) {
  AdaptiveTelemetry tel(unit_config());
  tel.begin_tick(0);
  tel.admit(1, 50e6, kCap);
  tel.admit(2, 1e6, kCap);
  EXPECT_EQ(tel.tracked(), 2u);
  tel.forget(1);
  EXPECT_EQ(tel.tracked(), 1u);
  EXPECT_EQ(tel.elephants(), 1u);
  tel.forget(1);  // double-forget is harmless
  EXPECT_EQ(tel.tracked(), 1u);
}

TEST(AdaptiveTelemetryUnit, DefaultConfigIsInactive) {
  EXPECT_FALSE(AdaptiveTelemetry(TelemetryConfig{}).active());
  TelemetryConfig budget_only;
  budget_only.samples_budget = 10;
  EXPECT_TRUE(AdaptiveTelemetry(budget_only).active());
  TelemetryConfig period_only;
  period_only.mouse_period = 4;
  EXPECT_TRUE(AdaptiveTelemetry(period_only).active());
}

// --- integration against the Flowserver's poll sweep ----------------------

class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})),
        fabric_(events_, tree_.topo) {}

  // Registers `count` reads of `replica` from distinct clients and starts
  // the flows. With many readers the replica's uplink share per flow drops
  // below the mouse threshold; a lone reader stays an elephant.
  std::vector<sdn::Cookie> start_reads(Flowserver& server,
                                       net::NodeId replica,
                                       std::size_t first_client,
                                       std::size_t count, double bytes) {
    std::vector<sdn::Cookie> cookies;
    for (std::size_t i = 0; i < count; ++i) {
      const net::NodeId client = tree_.hosts[first_client + i];
      const auto plan = server.select_for_read(client, {replica}, bytes);
      for (const auto& a : plan) {
        cookies.push_back(a.cookie);
        fabric_.start_flow(a.cookie, a.path, a.bytes,
                           [&server](sdn::Cookie c, sim::SimTime) {
                             server.flow_dropped(c);
                           });
      }
    }
    return cookies;
  }

  // Starts `count` long transfers from `src` to hosts[first_dst...] straight
  // on the fabric, as ECMP uploads do: the Flowserver never tracks them.
  void start_untracked(net::NodeId src, std::size_t first_dst,
                       std::size_t count) {
    net::PathCache paths(tree_.topo);
    for (std::size_t i = 0; i < count; ++i) {
      const net::Path path = paths.get(src, tree_.hosts[first_dst + i])[0];
      const sdn::Cookie c = fabric_.new_cookie();
      fabric_.install_path(c, path);
      fabric_.start_flow(c, path, 1e10);
    }
  }

  sim::EventQueue events_;
  net::ThreeTier tree_;
  sdn::SdnFabric fabric_;
};

TEST_F(TelemetryTest, SweepNeverAppliesMoreThanBudgetPerTick) {
  FlowserverConfig cfg;
  cfg.telemetry.samples_budget = 5;
  cfg.telemetry.mouse_period = 1;
  Flowserver server(fabric_, cfg);
  // 24 long-lived reads of host 0: every poll offers 24 samples. Ten
  // unplanned transfers from the same edge must take no budget slot.
  start_reads(server, tree_.hosts[0], 1, 24, 1e10);
  start_untracked(tree_.hosts[0], 40, 10);
  server.start();
  std::uint64_t last = server.stats_samples();
  for (int tick = 0; tick < 12; ++tick) {
    events_.run_until(sim::SimTime::from_seconds(1.0 * (tick + 1) + 0.5));
    const std::uint64_t applied = server.stats_samples() - last;
    last = server.stats_samples();
    EXPECT_LE(applied, 5u) << "tick " << tick;
  }
  EXPECT_GT(server.telemetry().deferred_budget(), 0u);
  server.stop();
}

// Flows the Flowserver did not plan (ECMP uploads, background traffic)
// ride the same edge poll as its own. Their samples update no belief, so
// they are never counted as applied.
TEST_F(TelemetryTest, UntrackedFlowSamplesAreNotApplied) {
  obs::Observability hub;
  FlowserverConfig cfg;
  cfg.obs = &hub;
  Flowserver server(fabric_, cfg);
  start_untracked(tree_.hosts[0], 40, 1);
  server.start();
  events_.run_until(sim::SimTime::from_seconds(2.5));
  ASSERT_EQ(server.polls(), 2u);
  EXPECT_EQ(server.stats_samples(), 0u);
  EXPECT_EQ(hub.metrics.counter_value("flowserver.poll.applied"), 0u);
  server.stop();
}

// A flow that finishes between polls reaches the next sweep as a final
// counter: a flow-removed notification that drops state, not a polled
// sample. It is never counted as applied, so stats_samples(),
// flowserver.poll.applied and the samples_per_tick histogram agree, and
// the budget bounds stats_samples() per tick however many flows finish.
TEST_F(TelemetryTest, FinalCountersAreNotAppliedSamples) {
  obs::Observability hub;
  FlowserverConfig cfg;
  cfg.telemetry.samples_budget = 3;
  cfg.telemetry.mouse_period = 1;
  cfg.obs = &hub;
  Flowserver server(fabric_, cfg);
  // Six long reads of host 28 offer six samples a tick, past the budget.
  start_reads(server, tree_.hosts[28], 30, 6, 1e10);
  server.start();
  std::uint64_t last = 0;
  for (int tick = 0; tick < 8; ++tick) {
    // Twelve short reads of host 0 finish well before the next poll, which
    // collects their twelve final counters.
    start_reads(server, tree_.hosts[0], 1, 12, 1e6);
    events_.run_until(sim::SimTime::from_seconds(1.0 * (tick + 1) + 0.5));
    EXPECT_LE(server.stats_samples() - last, 3u) << "tick " << tick;
    last = server.stats_samples();
  }
  EXPECT_EQ(server.table().size(), 6u);
  EXPECT_GT(server.telemetry().deferred_budget(), 0u);
  EXPECT_GT(server.stats_samples(), 0u);
  EXPECT_EQ(hub.metrics.counter_value("flowserver.poll.applied"),
            server.stats_samples());
  const obs::HistogramData* per_tick =
      hub.metrics.find_histogram("flowserver.poll.samples_per_tick");
  ASSERT_NE(per_tick, nullptr);
  EXPECT_EQ(per_tick->sum, static_cast<double>(server.stats_samples()));
  server.stop();
}

TEST_F(TelemetryTest, MouseStalenessStaysWithinItsPeriod) {
  FlowserverConfig cfg;
  cfg.telemetry.mouse_period = 4;
  Flowserver server(fabric_, cfg);
  // 24 readers of host 0 share its 125 MB/s uplink: ~5.2 MB/s each, under
  // the 5% mouse threshold (6.25 MB/s). A lone reader of host 28 holds the
  // full uplink and stays an elephant.
  const auto mice = start_reads(server, tree_.hosts[0], 1, 24, 1e10);
  const auto elephants = start_reads(server, tree_.hosts[28], 30, 1, 1e10);
  server.start();
  events_.run_until(sim::SimTime::from_seconds(20.25));

  const sim::SimTime now = events_.now();
  const double period_sec =
      4.0 * server.config().poll_interval.seconds();
  for (const sdn::Cookie c : mice) {
    const TrackedFlow* f = server.table().find(c);
    ASSERT_NE(f, nullptr);
    // The freeze contract's staleness bound: a mouse's belief bookkeeping is
    // at most mouse_period poll intervals old.
    EXPECT_LE((now - f->last_poll_time).seconds(), period_sec + 1e-9);
  }
  // The elephant was applied on the most recent cycle (t=20).
  const TrackedFlow* e = server.table().find(elephants.at(0));
  ASSERT_NE(e, nullptr);
  EXPECT_LE((now - e->last_poll_time).seconds(), 1.0 + 1e-9);
  EXPECT_EQ(server.telemetry().flow_class(elephants.at(0)),
            FlowClass::kElephant);
  // The sweep really did defer work: far fewer samples applied than the
  // ~24 x 20 a full-rate sweep would have applied.
  EXPECT_GT(server.telemetry().deferred_mouse(), 0u);
  EXPECT_LT(server.stats_samples(), 25u * 20u / 2u);
  server.stop();
}

class TelemetryIdentityTest : public ::testing::Test {
 protected:
  TelemetryIdentityTest()
      : tree_(net::build_three_tier(net::ThreeTierConfig{})) {}

  // A seeded read/poll/complete script; returns its decision records plus a
  // final accounting line. Every config below must produce the same bytes.
  std::vector<std::string> run_script(const FlowserverConfig& base) {
    sim::EventQueue events;
    sdn::SdnFabric fabric(events, tree_.topo);
    FlowserverConfig cfg = base;
    cfg.poll_interval = sim::SimTime::from_seconds(1.0);
    Flowserver server(fabric, cfg);
    server.start();
    Rng rng(0xFEEDULL);
    std::vector<std::string> out;
    for (int i = 0; i < 60; ++i) {
      const net::NodeId client =
          tree_.hosts[rng.next_below(tree_.hosts.size())];
      std::vector<net::NodeId> replicas = {
          tree_.hosts[rng.next_below(tree_.hosts.size())],
          tree_.hosts[rng.next_below(tree_.hosts.size())],
          tree_.hosts[rng.next_below(tree_.hosts.size())]};
      const auto plan = server.select_for_read(client, replicas, 96e6);
      for (const auto& a : plan) {
        char line[96];
        std::snprintf(line, sizeof(line), "%llu %u %zu %.9g %.9g",
                      static_cast<unsigned long long>(a.cookie), a.replica,
                      a.path.links.size(), a.bytes, a.est_bw_bps);
        out.emplace_back(line);
        fabric.start_flow(a.cookie, a.path, a.bytes,
                          [&server](sdn::Cookie c, sim::SimTime) {
                            server.flow_dropped(c);
                          });
      }
      events.run_until(events.now() + sim::SimTime::from_seconds(0.65));
    }
    events.run_until(events.now() + sim::SimTime::from_seconds(30.0));
    server.stop();
    char tail[96];
    std::snprintf(tail, sizeof(tail), "samples %llu selections %llu",
                  static_cast<unsigned long long>(server.stats_samples()),
                  static_cast<unsigned long long>(server.selections()));
    out.emplace_back(tail);
    return out;
  }

  net::ThreeTier tree_;
};

// The tentpole's identity contract: with an unconstrained budget (huge cap,
// mouse period 1) the adaptive layer classifies but defers nothing, so the
// decision records AND the applied-sample count must be byte-identical to
// legacy full polling — even though the budgeted sweep rotates its start.
TEST_F(TelemetryIdentityTest, UnconstrainedBudgetMatchesLegacyByteForByte) {
  const std::vector<std::string> legacy = run_script(FlowserverConfig{});
  FlowserverConfig adaptive;
  adaptive.telemetry.samples_budget = 1000000000;
  adaptive.telemetry.mouse_period = 1;
  const std::vector<std::string> unconstrained = run_script(adaptive);
  ASSERT_EQ(legacy.size(), unconstrained.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], unconstrained[i]) << "record " << i;
  }
}

// A constrained run is still deterministic: same seed, same bytes.
TEST_F(TelemetryIdentityTest, ConstrainedBudgetIsDeterministic) {
  FlowserverConfig cfg;
  cfg.telemetry.samples_budget = 8;
  cfg.telemetry.mouse_period = 4;
  const std::vector<std::string> a = run_script(cfg);
  const std::vector<std::string> b = run_script(cfg);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mayflower::flowserver
