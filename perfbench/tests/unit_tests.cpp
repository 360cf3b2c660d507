// Unit tests of the benchmark's own arithmetic: span self time and the
// percentile rule. Build and run:
//   cmake --build perfbench/build --target perfbench_unit_tests
//   perfbench/build/perfbench_unit_tests
#include <gtest/gtest.h>

#include "layers.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace mayflower::perfbench {
namespace {

Span span(std::int32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, LeafIsItsDuration) {
  const auto self = self_times_ns({span(-1, 10, 35)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 25);
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > a [10,50) > b [20,30); root > c [60,70).
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 50),
                                   span(1, 20, 30), span(0, 60, 70)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // a and c, not b
  EXPECT_EQ(self[1], 40 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
  // Self times of a properly nested tree add up to the root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 40),
                                   span(0, 30, 60), span(0, 35, 45)};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 50);  // covered: [10, 60)
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {span(-1, 10, 20), span(0, 0, 15),
                                   span(0, 18, 40)};
  EXPECT_EQ(self_times_ns(spans)[0], 10 - 5 - 2);
}

TEST(SpanRecorder, RecordsParentsJobsAndNames) {
  SpanRecorder rec(true);
  const std::uint32_t outer_name = rec.intern("outer");
  const std::uint32_t inner_name = rec.intern("inner");
  EXPECT_EQ(rec.intern("outer"), outer_name);
  rec.set_job(7);
  {
    ScopedSpan outer(rec, outer_name);
    rec.set_job(8);
    ScopedSpan inner(rec, inner_name);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[0].job, 7);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].job, 8);
  EXPECT_EQ(rec.open_count(), 0u);
  for (const Span& s : rec.spans()) EXPECT_GE(s.end_ns, s.start_ns);
  const auto self = self_times_ns(rec.spans());
  EXPECT_EQ(self[0] + self[1],
            rec.spans()[0].end_ns - rec.spans()[0].start_ns);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  EXPECT_EQ(rec.open(rec.intern("x")), kNoSpan);
  rec.close(kNoSpan);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it.
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);
  EXPECT_EQ(samples_beyond(1001, 990), 10u);
  EXPECT_EQ(samples_beyond(100, 900), 10u);
  EXPECT_EQ(samples_beyond(20, 500), 10u);
  EXPECT_EQ(samples_beyond(19, 500), 9u);

  EXPECT_EQ(highest_supported_permille(1000), 990u);
  EXPECT_EQ(highest_supported_permille(100000), 990u);  // the ladder's top
  EXPECT_EQ(highest_supported_permille(999), 950u);
  EXPECT_EQ(highest_supported_permille(200), 950u);
  EXPECT_EQ(highest_supported_permille(199), 900u);
  EXPECT_EQ(highest_supported_permille(100), 900u);
  EXPECT_EQ(highest_supported_permille(99), 500u);
  EXPECT_EQ(highest_supported_permille(20), 500u);
  EXPECT_FALSE(highest_supported_permille(19).has_value());
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.99), 9.9);
}

TEST(Layers, SpanNamesMapToTheLongestLayer) {
  EXPECT_EQ(layer_of("sim.step"), "sim.step");
  EXPECT_EQ(layer_of("flowserver.view"), "flowserver.view");
  EXPECT_EQ(layer_of("flowserver.rpc.PlanWrite"), "flowserver.rpc");
  EXPECT_EQ(layer_of("fs.ns.cb.CreateReplica"), "fs.ns");
  EXPECT_EQ(layer_of("fs.client.read_file"), "fs.client");
  EXPECT_EQ(layer_of("fs.nsx"), "");
  EXPECT_EQ(layer_of("unknown"), "");
}

}  // namespace
}  // namespace mayflower::perfbench
