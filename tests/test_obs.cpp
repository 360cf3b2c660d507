// Observability layer: registry semantics (null handles, bucket edges,
// sorted deterministic JSON), flow-tracer lifecycle arithmetic, the
// freeze-suppression hook in the FlowStateTable, and the end-to-end
// guarantee the CLI relies on — two identical seeded runs export
// byte-identical JSON.
#include "obs/observability.hpp"

#include <gtest/gtest.h>

#include "flowserver/flow_state.hpp"
#include "harness/experiment.hpp"

namespace mayflower {
namespace {

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CountersAndGaugesAccumulate) {
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("a.count");
  c.inc();
  c.inc(3);
  obs::Gauge g = reg.gauge("a.gauge");
  g.set(2.5);
  g.set(-1.25);  // gauges overwrite
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(reg.counter_value("a.count"), 4u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.gauge"), -1.25);
  // Re-registration returns a handle onto the same cell.
  reg.counter("a.count").inc(6);
  EXPECT_EQ(c.value(), 10u);
  // Absent names read as zero.
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing"), 0.0);
}

TEST(MetricsRegistry, HandlesStayValidAsTheRegistryGrows) {
  obs::MetricsRegistry reg;
  obs::Counter first = reg.counter("first");
  for (int i = 0; i < 64; ++i) {
    reg.counter("filler." + std::to_string(i)).inc();
  }
  first.inc(5);  // node-based storage: no reallocation invalidates `first`
  EXPECT_EQ(reg.counter_value("first"), 5u);
  EXPECT_EQ(reg.metric_count(), 65u);
}

TEST(MetricsRegistry, HistogramEdgesAreInclusiveUpperBounds) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("h", {1.0, 2.0, 4.0});
  // bucket i counts v <= edges[i]; one extra overflow bucket at the end.
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (inclusive upper bound)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // overflow bucket
  const obs::HistogramData* d = reg.find_histogram("h");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->edges.size(), 3u);
  ASSERT_EQ(d->buckets.size(), 4u);  // edges + overflow
  EXPECT_EQ(d->buckets[0], 2u);
  EXPECT_EQ(d->buckets[1], 1u);
  EXPECT_EQ(d->buckets[2], 1u);
  EXPECT_EQ(d->buckets[3], 1u);
  EXPECT_EQ(d->count, 5u);
  EXPECT_DOUBLE_EQ(d->sum, 16.0);
  EXPECT_DOUBLE_EQ(d->min, 0.5);
  EXPECT_DOUBLE_EQ(d->max, 9.0);
  // Bucket counts tile the sample count.
  std::uint64_t total = 0;
  for (const std::uint64_t b : d->buckets) total += b;
  EXPECT_EQ(total, d->count);
}

TEST(MetricsRegistry, FirstHistogramRegistrationWins) {
  obs::MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  obs::Histogram again = reg.histogram("h", {99.0});  // ignored
  again.observe(1.5);
  const obs::HistogramData* d = reg.find_histogram("h");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->edges.size(), 2u);
  EXPECT_DOUBLE_EQ(d->edges[0], 1.0);
  EXPECT_EQ(d->buckets[1], 1u);
}

TEST(MetricsRegistry, DisabledRegistryHandsOutNullHandles) {
  obs::MetricsRegistry reg(/*enabled=*/false);
  obs::Counter c = reg.counter("c");
  obs::Gauge g = reg.gauge("g");
  obs::Histogram h = reg.histogram("h", {1.0});
  c.inc(7);  // all safe no-ops
  g.set(3.0);
  h.observe(2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.data(), nullptr);
  EXPECT_EQ(reg.metric_count(), 0u);  // registration allocated nothing
  std::string json;
  reg.write_json(&json);
  EXPECT_EQ(json,
            "\"counters\":{},\"gauges\":{},\"histograms\":{}");
}

TEST(MetricsRegistry, JsonIsIndependentOfRegistrationOrder) {
  obs::MetricsRegistry a;
  a.counter("z").inc(2);
  a.counter("a").inc(1);
  a.gauge("m").set(0.5);
  a.histogram("h", {1.0}).observe(0.25);

  obs::MetricsRegistry b;
  b.histogram("h", {1.0}).observe(0.25);
  b.gauge("m").set(0.5);
  b.counter("a").inc(1);
  b.counter("z").inc(2);

  std::string ja, jb;
  a.write_json(&ja);
  b.write_json(&jb);
  EXPECT_EQ(ja, jb);
  // Name-sorted: "a" before "z".
  EXPECT_LT(ja.find("\"a\""), ja.find("\"z\""));
}

// --- flow tracer -----------------------------------------------------------

TEST(FlowTracer, LifecycleSeparatesPlanRevisionsFromPostStartBumps) {
  obs::FlowTracer t;
  t.flow_planned(7, 0.0, 100.0, 10.0);
  t.flow_bw_set(7, 8.0);     // still planning: revises the plan
  t.flow_resized(7, 80.0);   // multi-read split sizing
  t.mark_split(7);
  t.flow_started(7, 1.0);
  t.flow_bw_set(7, 6.0);     // after start: a bump, plan untouched
  t.flow_rerouted(7);
  t.flow_completed(7, 11.0, 80.0);  // 80 bytes over 10 s

  ASSERT_EQ(t.finished().size(), 1u);
  const obs::FlowTraceRecord& r = t.finished()[0];
  EXPECT_EQ(r.cookie, 7u);
  EXPECT_DOUBLE_EQ(r.planned_bw_bps, 8.0);
  EXPECT_DOUBLE_EQ(r.planned_bytes, 80.0);
  EXPECT_DOUBLE_EQ(r.start_sec, 1.0);
  EXPECT_DOUBLE_EQ(r.end_sec, 11.0);
  EXPECT_DOUBLE_EQ(r.realized_bw_bps, 8.0);
  EXPECT_EQ(r.resizes, 1u);
  EXPECT_EQ(r.setbw_bumps, 1u);
  EXPECT_EQ(r.reroutes, 1u);
  EXPECT_TRUE(r.split);
  EXPECT_FALSE(r.killed);
  EXPECT_EQ(t.active_count(), 0u);

  // Plan matched reality exactly: zero estimator error.
  const std::vector<double> errs = t.estimator_errors();
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_DOUBLE_EQ(errs[0], 0.0);
}

TEST(FlowTracer, EstimatorErrorsSkipKilledAndZeroDurationFlows) {
  obs::FlowTracer t;
  t.flow_planned(1, 0.0, 40.0, 10.0);  // planned 10, realizes 5 => error 1.0
  t.flow_started(1, 0.0);
  t.flow_completed(1, 8.0, 40.0);

  t.flow_planned(2, 0.0, 40.0, 10.0);  // killed: excluded
  t.flow_started(2, 0.0);
  t.flow_killed(2, 1.0, 5.0);

  t.flow_planned(3, 0.0, 40.0, 10.0);  // zero duration: excluded
  t.flow_started(3, 2.0);
  t.flow_completed(3, 2.0, 0.0);

  ASSERT_EQ(t.finished().size(), 3u);
  EXPECT_TRUE(t.finished()[1].killed);
  const std::vector<double> errs = t.estimator_errors();
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_DOUBLE_EQ(errs[0], 1.0);
}

TEST(FlowTracer, ToleratesUnknownCookies) {
  obs::FlowTracer t;
  t.flow_resized(42, 1.0);
  t.flow_bw_set(42, 1.0);
  t.freeze_hit(42);
  t.flow_started(42, 0.0);
  t.flow_rerouted(42);
  t.flow_completed(42, 1.0, 1.0);
  t.flow_killed(42, 1.0, 1.0);
  EXPECT_EQ(t.active_count(), 0u);
  EXPECT_TRUE(t.finished().empty());
}

TEST(FlowTracer, DisabledTracerRecordsNothing) {
  obs::FlowTracer t(/*enabled=*/false);
  t.flow_planned(1, 0.0, 10.0, 1.0);
  t.decision(obs::DecisionAudit{});
  t.belief_error_sample(0.5);
  EXPECT_EQ(t.active_count(), 0u);
  EXPECT_TRUE(t.decisions().empty());
  EXPECT_TRUE(t.belief_errors().empty());
}

TEST(FlowTracer, BeliefErrorSamplesAccumulateInOrder) {
  obs::FlowTracer t;
  t.belief_error_sample(0.25);
  t.belief_error_sample(0.0);
  ASSERT_EQ(t.belief_errors().size(), 2u);
  EXPECT_DOUBLE_EQ(t.belief_errors()[0], 0.25);
  EXPECT_DOUBLE_EQ(t.belief_errors()[1], 0.0);
}

// --- flow-state table hook -------------------------------------------------

TEST(FlowStateTableObs, FreezeSuppressionCountsAndMarksTheFlow) {
  obs::Observability hub;
  flowserver::FlowStateTable table;
  table.set_obs(&hub);

  // 100 bytes at 10 B/s: frozen until t = 10.
  table.add(1, net::Path{}, 100.0, 10.0, sim::SimTime{});
  EXPECT_EQ(table.frozen_count(sim::SimTime::from_seconds(1.0)), 1u);

  // A poll during the freeze measures 20 B/s — suppressed.
  table.update_from_stats(1, 20.0, sim::SimTime::from_seconds(1.0));
  EXPECT_DOUBLE_EQ(table.find(1)->bw_bps, 10.0);
  EXPECT_EQ(table.freeze_suppressed_total(), 1u);
  EXPECT_EQ(hub.metrics.counter_value("flowserver.table.freeze_suppressed"),
            1u);
  const obs::FlowTraceRecord* rec = hub.trace.find_active(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->freeze_hits, 1u);

  // After the freeze expires the measurement lands, nothing suppressed.
  table.update_from_stats(1, 60.0, sim::SimTime::from_seconds(11.0));
  EXPECT_NE(table.find(1)->bw_bps, 10.0);
  EXPECT_EQ(table.freeze_suppressed_total(), 1u);
  EXPECT_EQ(table.frozen_count(sim::SimTime::from_seconds(11.0)), 0u);
}

// --- end to end ------------------------------------------------------------

harness::ExperimentConfig tiny_config() {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::SchemeKind::kMayflower;
  cfg.catalog.num_files = 60;
  cfg.catalog.file_bytes = 64e6;
  cfg.gen.total_jobs = 120;
  cfg.warmup_jobs = 20;
  cfg.seed = 7;
  return cfg;
}

TEST(Observability, HarnessExportIsByteIdenticalAcrossIdenticalRuns) {
  // The property ci.sh enforces with `diff` on two --metrics-out files.
  obs::Observability a;
  obs::Observability b;
  harness::ExperimentConfig cfg = tiny_config();
  cfg.obs = &a;
  harness::run_experiment(cfg);
  cfg.obs = &b;
  harness::run_experiment(cfg);

  const std::string ja = a.to_json();
  const std::string jb = b.to_json();
  EXPECT_EQ(ja, jb);

  // And the run actually measured something at every layer.
  EXPECT_GT(a.metrics.counter_value("sdn.fabric.flows_started"), 0u);
  EXPECT_GT(a.metrics.counter_value("sdn.fabric.flows_completed"), 0u);
  EXPECT_GT(a.metrics.counter_value("flowserver.selections"), 0u);
  EXPECT_GT(a.metrics.counter_value("sdn.poller.ticks"), 0u);
  EXPECT_FALSE(a.trace.finished().empty());
  EXPECT_FALSE(a.trace.decisions().empty());
  EXPECT_FALSE(a.trace.estimator_errors().empty());
  EXPECT_NE(ja.find("\"estimator_error\":{"), std::string::npos);
  EXPECT_NE(ja.find("\"belief_error\":{"), std::string::npos);
}

TEST(Observability, AttachingAHubDoesNotChangeTheSimulation) {
  // Zero-cost also means zero-effect: measured results are identical with
  // and without the hub attached.
  harness::ExperimentConfig plain = tiny_config();
  const harness::RunResult r0 = harness::run_experiment(plain);

  obs::Observability hub;
  harness::ExperimentConfig instrumented = tiny_config();
  instrumented.obs = &hub;
  const harness::RunResult r1 = harness::run_experiment(instrumented);

  ASSERT_EQ(r0.completions.size(), r1.completions.size());
  for (std::size_t i = 0; i < r0.completions.size(); ++i) {
    EXPECT_DOUBLE_EQ(r0.completions[i], r1.completions[i]);
  }
  EXPECT_EQ(r0.selections, r1.selections);
  EXPECT_EQ(r0.split_reads, r1.split_reads);
  EXPECT_DOUBLE_EQ(r0.sim_duration_sec, r1.sim_duration_sec);
}

}  // namespace
}  // namespace mayflower
