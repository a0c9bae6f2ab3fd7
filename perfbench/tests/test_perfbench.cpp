// The benchmark's own tests: the statistics and tracing rules its
// metrics rest on. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(PercentileRule, NoTailBelowTwoHundredSamples) {
  EXPECT_FALSE(tail_quantile({}, 0.95).has_value());
  EXPECT_FALSE(tail_quantile(ramp(199), 0.95).has_value());
  const std::optional<double> p95 = tail_quantile(ramp(200), 0.95);
  ASSERT_TRUE(p95.has_value());
  EXPECT_NEAR(*p95, 0.95 * 199.0, 1e-9);
}

TEST(PercentileRule, NeedsTenSamplesBeyondTheTail) {
  // 200 samples leave 10 beyond p95 but only 2 beyond p99.
  EXPECT_TRUE(tail_quantile(ramp(200), 0.95).has_value());
  EXPECT_FALSE(tail_quantile(ramp(200), 0.99).has_value());
  EXPECT_TRUE(tail_quantile(ramp(1000), 0.99).has_value());
}

TEST(PercentileRule, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(DueTime, StallIsChargedToEveryLaterFrame) {
  // One server, frames due every 100 ms, 50 ms of work each; frame 2
  // stalls for 1000 ms. The backlog it leaves delays every later frame
  // of the window.
  const double period = 100.0, work = 50.0, stall = 1000.0;
  const int frames = 10;
  std::vector<double> done(frames), start(frames);
  double free_at = 0.0;
  for (int i = 0; i < frames; ++i) {
    start[static_cast<std::size_t>(i)] = std::max(due_ms(0.0, period, i), free_at);
    free_at = start[static_cast<std::size_t>(i)] + (i == 2 ? stall : work);
    done[static_cast<std::size_t>(i)] = free_at;
  }
  for (int i = 0; i < frames; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const double open = open_loop_latency_ms(0.0, period, i, done[ui]);
    const double from_start = done[ui] - start[ui];
    if (i < 2) {
      EXPECT_DOUBLE_EQ(open, work);
    } else if (i > 2) {
      // Measured from its own start the frame looks healthy; measured
      // from its due time it carries the wait behind the stall.
      EXPECT_DOUBLE_EQ(from_start, work);
      EXPECT_GT(open, work + 100.0) << "frame " << i;
    }
  }
  EXPECT_DOUBLE_EQ(open_loop_latency_ms(0.0, period, 3, done[3]),
                   (200.0 + stall + work) - 300.0);
}

TEST(SelfTime, NestedAndOverlappingChildren) {
  // root [0, 100): children a [10, 40) and b [30, 60) overlap;
  // a has a child [15, 20).
  std::vector<SpanRecord> recs(4);
  recs[0] = {"frame.root", 1, -1, 0, 0, 100'000'000};
  recs[1] = {"nn.a", 1, 0, 0, 10'000'000, 40'000'000};
  recs[2] = {"detect.b", 1, 0, 0, 30'000'000, 60'000'000};
  recs[3] = {"vip.c", 1, 1, 0, 15'000'000, 20'000'000};
  const std::vector<double> self = self_times_ms(recs);
  EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 - |[10, 60)|
  EXPECT_DOUBLE_EQ(self[1], 25.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 5.0);
  EXPECT_EQ(layer_of(recs[2].name), "detect");
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  std::vector<SpanRecord> recs(2);
  recs[0] = {"a.p", 0, -1, 0, 0, 10'000'000};
  recs[1] = {"a.c", 0, 0, 1, 5'000'000, 30'000'000};
  EXPECT_DOUBLE_EQ(self_times_ms(recs)[0], 5.0);
}

TEST(SelfTime, TracerRecordsParentsPerThread) {
  Tracer tracer(16);
  Tracer::install(&tracer);
  {
    Span outer("runtime.outer", 7);
    { Span inner("nn.inner", 7); }
    std::thread([] { Span other("vip.other", 8); }).join();
  }
  Tracer::install(nullptr);
  { Span untraced("nn.untraced", 9); }
  const std::vector<SpanRecord> recs = tracer.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].parent, -1);
  EXPECT_EQ(recs[1].parent, 0);   // same thread: nested
  EXPECT_EQ(recs[2].parent, -1);  // another thread: a root
  EXPECT_EQ(recs[1].frame, 7);
  EXPECT_NE(recs[0].tid, recs[2].tid);
  const std::vector<double> self = self_times_ms(recs);
  const double outer_ms = static_cast<double>(recs[0].end_ns - recs[0].start_ns) / 1e6;
  const double inner_ms = static_cast<double>(recs[1].end_ns - recs[1].start_ns) / 1e6;
  EXPECT_NEAR(self[0], outer_ms - inner_ms, 1e-9);
}

TEST(SelfTime, FullTracerCountsOverflow) {
  Tracer tracer(1);
  Tracer::install(&tracer);
  { Span a("x.a", 0); }
  { Span b("x.b", 0); }
  Tracer::install(nullptr);
  EXPECT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.overflow(), 1u);
}

TEST(FailureCounting, EachReasonCountsOncePerFrame) {
  std::vector<FrameOutcome> f(7);
  f[0] = {true, false, false, false, 50.0};    // fine
  f[1] = {false, true, false, false, 0.0};     // dropped
  f[2] = {true, false, true, false, 60.0};     // degraded
  f[3] = {true, false, false, false, 250.0};   // over the deadline
  f[4] = {true, false, false, true, 40.0};     // failed a check
  f[5] = {true, false, true, true, 300.0};     // three reasons, one frame
  f[6] = {true, false, false, false, 200.0};   // exactly on the deadline
  const FailureCount c = count_failures(f, 200.0);
  EXPECT_EQ(c.offered, 7u);
  EXPECT_EQ(c.completed, 6u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.degraded, 2u);
  EXPECT_EQ(c.deadline_missed, 3u);  // the drop, frame 3 and frame 5
  EXPECT_EQ(c.check_failed, 2u);
  EXPECT_EQ(c.failed, 5u);
  EXPECT_EQ(c.op_failed, 4u);
  EXPECT_NEAR(c.failed_pct(), 100.0 * 5.0 / 7.0, 1e-12);
}

TEST(FailureCounting, EmptyRunHasNoFailures) {
  const FailureCount c = count_failures({}, 200.0);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_DOUBLE_EQ(c.failed_pct(), 0.0);
}

}  // namespace
}  // namespace perfbench
