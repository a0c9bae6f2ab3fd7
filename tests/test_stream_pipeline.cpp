#include "runtime/streaming_pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "models/registry.hpp"
#include "runtime/stream_queue.hpp"
#include "runtime/telemetry.hpp"

namespace ocb::runtime {
namespace {

// ---------------------------------------------------------------- queue

TEST(BoundedQueue, FifoWithinCapacity) {
  BoundedQueue<int> q(4, DropPolicy::kBlock);
  EXPECT_EQ(q.push(1), PushOutcome::kAccepted);
  EXPECT_EQ(q.push(2), PushOutcome::kAccepted);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(BoundedQueue, DropOldestEvictsHead) {
  BoundedQueue<int> q(2, DropPolicy::kDropOldest);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.push(3), PushOutcome::kReplacedOldest);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.pop().value(), 2);  // 1 was evicted
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, DropNewestRejectsIncoming) {
  BoundedQueue<int> q(2, DropPolicy::kDropNewest);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.push(3), PushOutcome::kRejected);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.pop().value(), 1);  // survivors untouched
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(2, DropPolicy::kBlock);
  q.push(7);
  q.close();
  EXPECT_EQ(q.push(8), PushOutcome::kRejected);
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, BlockingHandoffAcrossThreads) {
  BoundedQueue<int> q(1, DropPolicy::kBlock);
  constexpr int kItems = 200;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.push(i);  // blocks when full
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) EXPECT_EQ(*v, expected++);
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_LE(q.high_water(), 1u);
}

TEST(BoundedQueue, ZeroCapacityIsRejected) {
  // A zero-deep queue can never hand a frame across threads; the
  // constructor must refuse it rather than deadlock kBlock producers
  // or silently drop everything under the shedding policies.
  EXPECT_THROW(BoundedQueue<int>(0, DropPolicy::kBlock), Error);
  EXPECT_THROW(BoundedQueue<int>(0, DropPolicy::kDropOldest), Error);
  EXPECT_THROW(BoundedQueue<int>(0, DropPolicy::kDropNewest), Error);
  // Same guard at the builder level.
  PipelineBuilder builder;
  EXPECT_THROW(builder.queue_capacity(0), Error);
}

TEST(BoundedQueue, DropNewestUnderProducerConsumerContention) {
  // Live producer/consumer race on a 2-deep shedding queue: whatever
  // interleaving the scheduler picks, no item may be both delivered
  // and counted dropped, none may vanish unaccounted, and survivors
  // must stay in FIFO order.
  BoundedQueue<int> q(2, DropPolicy::kDropNewest);
  constexpr int kItems = 2000;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      if (q.push(i) == PushOutcome::kAccepted)
        accepted.fetch_add(1);
      else
        rejected.fetch_add(1);
      if (i % 64 == 0) std::this_thread::yield();
    }
    q.close();
  });
  std::vector<int> received;
  while (auto v = q.pop()) {
    received.push_back(*v);
    if (received.size() % 3 == 0) std::this_thread::yield();
  }
  producer.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kItems);
  EXPECT_EQ(received.size(), static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(q.dropped(), static_cast<std::uint64_t>(rejected.load()));
  for (std::size_t i = 1; i < received.size(); ++i)
    ASSERT_LT(received[i - 1], received[i]) << "FIFO order violated";
}

// ------------------------------------------------------------ telemetry

TEST(LatencyRecorder, TracksMomentsAndPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.add(static_cast<double>(i));
  EXPECT_EQ(rec.count(), 1000u);
  EXPECT_DOUBLE_EQ(rec.min(), 1.0);
  EXPECT_DOUBLE_EQ(rec.max(), 1000.0);
  EXPECT_NEAR(rec.mean(), 500.5, 1e-9);
  // Log buckets give ~4% relative resolution.
  EXPECT_NEAR(rec.p50(), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(rec.p95(), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(rec.p99(), 990.0, 990.0 * 0.05);
}

TEST(LatencyRecorder, MergeCombinesSamples) {
  LatencyRecorder a, b;
  a.add(1.0);
  b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

// ------------------------------------------------------------- fixtures

/// Deterministic stage: reports `latency_ms` instantly, and really
/// sleeps `slow_wall_ms` for frame indices in [slow_from, slow_to) to
/// trip the watchdog.
class TestExecutor final : public Executor {
 public:
  TestExecutor(std::string name, double latency_ms, int slow_from = -1,
               int slow_to = -1, double slow_wall_ms = 0.0)
      : name_(std::move(name)),
        latency_ms_(latency_ms),
        slow_from_(slow_from),
        slow_to_(slow_to),
        slow_wall_ms_(slow_wall_ms) {}

  FrameResult run(const FrameContext& ctx) override {
    if (ctx.index >= slow_from_ && ctx.index < slow_to_)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slow_wall_ms_));
    FrameResult r;
    r.latency_ms = latency_ms_;
    r.stage = name_;
    return r;
  }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_;
  double latency_ms_;
  int slow_from_, slow_to_;
  double slow_wall_ms_;
};

PipelineBuilder three_fixed_stages(double a, double b, double c) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("a", a))
      .stage(std::make_unique<TestExecutor>("b", b))
      .stage(std::make_unique<TestExecutor>("c", c));
  return builder;
}

// ------------------------------------------------------------ streaming

TEST(StreamingPipeline, RunsEveryFrameThroughEveryStage) {
  auto pipeline = three_fixed_stages(0.01, 0.02, 0.03)
                      .deadline_ms(1000.0)
                      .queue_capacity(4)
                      .build_streaming();
  SyntheticSource source(500, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_emitted, 500u);
  EXPECT_EQ(report.frames_completed, 500u);
  EXPECT_EQ(report.frames_dropped, 0u);
  EXPECT_EQ(report.deadline_misses, 0u);
  ASSERT_EQ(report.stages.size(), 3u);
  for (const StageTelemetry& s : report.stages) {
    EXPECT_EQ(s.frames_in, 500u);
    EXPECT_EQ(s.frames_out, 500u);
    EXPECT_EQ(s.queue_dropped, 0u);
    EXPECT_EQ(s.timeouts, 0u);
    EXPECT_LE(s.queue_high_water, s.queue_capacity);
  }
  // Sequential service latency = sum of stage latencies.
  EXPECT_NEAR(report.service_ms.mean(), 0.06, 0.06 * 0.05);
}

TEST(StreamingPipeline, SequentialAgreesWithAnalyticComposition) {
  const auto yolo = models::profile_model(models::ModelId::kYoloV8n);
  const auto pose = models::profile_model(models::ModelId::kTrtPose);
  const auto depth = models::profile_model(models::ModelId::kMonodepth2);
  const auto& dev = devsim::device_spec(devsim::DeviceId::kOrinAgx);

  const auto make_builder = [&](std::uint64_t seed_base) {
    PipelineBuilder builder;
    for (const auto& profile : {yolo, pose, depth})
      builder.stage(
          std::make_unique<SimulatedExecutor>(profile, dev, seed_base++));
    return builder;
  };

  const PipelineStats analytic =
      make_builder(1).deadline_ms(1000.0).build().run(500);
  auto streaming =
      make_builder(101).deadline_ms(1000.0).queue_capacity(4).build_streaming();
  SyntheticSource source(500, 30.0);
  const StreamReport report = streaming->run(source);

  // Same composition law, independent jitter draws: distributions must
  // agree well within the 10% acceptance tolerance.
  EXPECT_NEAR(report.service_ms.mean(), analytic.per_frame.mean,
              analytic.per_frame.mean * 0.10);
  EXPECT_NEAR(report.service_ms.p50(), analytic.per_frame.median,
              analytic.per_frame.median * 0.10);
}

TEST(StreamingPipeline, ParallelDisciplineTakesMaxLatency) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("fast", 2.0))
      .stage(std::make_unique<TestExecutor>("slow", 10.0))
      .discipline(Discipline::kParallel)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(200, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 200u);
  EXPECT_NEAR(report.service_ms.mean(), 10.0, 10.0 * 0.05);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].frames_in, 200u);
  EXPECT_EQ(report.stages[1].frames_in, 200u);
}

TEST(StreamingPipeline, ParallelDisciplineRequiresLosslessQueues) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("a", 1.0))
      .discipline(Discipline::kParallel)
      .drop_policy(DropPolicy::kDropOldest);
  EXPECT_THROW(builder.build_streaming(), Error);
}

TEST(StreamingPipeline, DeadlineMissesAreCounted) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("busy", 5.0))
      .deadline_ms(1.0)
      .emulate_occupancy();  // occupy the worker for the 5 modelled ms
  auto pipeline = builder.build_streaming();
  SyntheticSource source(50, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 50u);
  EXPECT_EQ(report.deadline_misses, 50u);  // every frame takes >= 5 ms
  EXPECT_DOUBLE_EQ(report.deadline_miss_rate(), 1.0);
  EXPECT_GE(report.e2e_ms.p50(), 5.0);
}

TEST(StreamingPipeline, DropOldestShedsLoadUnderPressure) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("slow", 4.0))
      .queue_capacity(2)
      .drop_policy(DropPolicy::kDropOldest)
      .deadline_ms(1000.0)
      .emulate_occupancy();
  auto pipeline = builder.build_streaming();
  // Unpaced source floods the 2-deep queue far faster than 4 ms/frame.
  SyntheticSource source(120, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_emitted, 120u);
  EXPECT_GT(report.frames_dropped, 0u);
  EXPECT_LT(report.frames_completed, 120u);
  EXPECT_EQ(report.frames_completed + report.frames_dropped, 120u);
  EXPECT_EQ(report.stages[0].queue_high_water, 2u);
}

TEST(StreamingPipeline, DropNewestKeepsEarliestFrames) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("slow", 4.0))
      .queue_capacity(2)
      .drop_policy(DropPolicy::kDropNewest)
      .deadline_ms(1000.0)
      .emulate_occupancy();
  auto pipeline = builder.build_streaming();
  SyntheticSource source(120, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_GT(report.frames_dropped, 0u);
  EXPECT_EQ(report.frames_completed + report.frames_dropped, 120u);
  // The queue was full of early frames; they survive, newcomers don't.
  EXPECT_EQ(report.stages[0].queue_dropped, report.frames_dropped);
}

TEST(StreamingPipeline, WatchdogDegradesStalledStageAndRecovers) {
  PipelineBuilder builder;
  // Frames 5..7 stall the executor for 60 wall ms against a 15 ms budget.
  builder.stage(std::make_unique<TestExecutor>("stall", 0.5, 5, 8, 60.0))
      .stage_timeout_ms(15.0)
      .degraded_cooldown_frames(4)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(60, 30.0);
  const StreamReport report = pipeline->run(source);

  // Nothing wedged or was lost: every frame flowed through.
  EXPECT_EQ(report.frames_completed, 60u);
  EXPECT_EQ(report.frames_dropped, 0u);
  const StageTelemetry& stage = report.stages[0];
  // The watchdog fired at least once and the stage bypassed frames
  // while degraded...
  EXPECT_GE(stage.timeouts, 1u);
  EXPECT_GT(stage.degraded, 0u);
  EXPECT_GT(report.frames_degraded, 0u);
  // ...then recovered: the tail of the stream ran clean, so only a
  // small fraction of frames were touched.
  EXPECT_LT(stage.degraded, 20u);
}

TEST(StreamingPipeline, PacedSourceHoldsFrameRate) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("fast", 0.1))
      .source_fps(200.0)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(50, 200.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 50u);
  // 50 frames at 200 fps should take ~245 ms of stream time.
  EXPECT_GE(report.wall_ms, 240.0);
  EXPECT_NEAR(report.throughput_fps, 200.0, 40.0);
}

TEST(StreamingPipeline, TimeScaleReplaysFasterThanRealTime) {
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("stage", 10.0))
      .source_fps(50.0)
      .time_scale(0.1)  // 10x faster than the stream clock
      .emulate_occupancy()
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(40, 50.0);

  const auto t0 = std::chrono::steady_clock::now();
  const StreamReport report = pipeline->run(source);
  const double real_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  EXPECT_EQ(report.frames_completed, 40u);
  // Stream clock saw ~800 ms (40 frames at 50 fps); real time ~80 ms.
  EXPECT_GE(report.wall_ms, 700.0);
  EXPECT_LT(real_ms, report.wall_ms * 0.5);
  // Reported latencies stay in stream-clock ms.
  EXPECT_NEAR(report.service_ms.p50(), 10.0, 1.0);
}

TEST(StreamingPipeline, FaultyStageDegradesInsteadOfKillingTheStream) {
  class ThrowingExecutor final : public Executor {
   public:
    FrameResult run(const FrameContext& ctx) override {
      if (ctx.index % 2 == 1) throw Error("injected fault");
      return {1.0, name_, StageStatus::kOk, nullptr};
    }
    const std::string& name() const noexcept override { return name_; }

   private:
    std::string name_ = "faulty";
  };

  PipelineBuilder builder;
  builder.stage(std::make_unique<ThrowingExecutor>())
      .degraded_cooldown_frames(0)  // probe again immediately
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(20, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 20u);
  EXPECT_GT(report.stages[0].degraded, 0u);
  EXPECT_GT(report.frames_degraded, 0u);
}

TEST(StreamingPipeline, ThrowingExecutorQuarantinesReloadsAndRecovers) {
  // An executor that throws for a stretch of frames must not wedge the
  // stage queue: with quarantine enabled the stage is benched, its
  // reload() recovery hook runs at cooldown expiry, and once the fault
  // clears the probe re-admits it and the tail of the stream runs
  // clean (DESIGN.md §14).
  class CrashyExecutor final : public Executor {
   public:
    FrameResult run(const FrameContext& ctx) override {
      ++runs;
      if (ctx.index >= 4 && ctx.index < 8) throw Error("injected fault");
      return {1.0, name_, StageStatus::kOk, nullptr};
    }
    bool reload() override {
      ++reloads;
      return true;
    }
    const std::string& name() const noexcept override { return name_; }
    int runs = 0;
    int reloads = 0;

   private:
    std::string name_ = "crashy";
  };

  auto owned = std::make_unique<CrashyExecutor>();
  CrashyExecutor* executor = owned.get();
  PipelineBuilder builder;
  builder.stage(std::move(owned))
      .quarantine_after(2)
      .degraded_cooldown_frames(2)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(40, 30.0);
  const StreamReport report = pipeline->run(source);

  // Nothing wedged: every frame drained.
  EXPECT_EQ(report.frames_completed, 40u);
  EXPECT_EQ(report.frames_dropped, 0u);
  const StageTelemetry& stage = report.stages[0];
  EXPECT_GE(stage.quarantines, 1u);
  EXPECT_GE(stage.reloads, 1u);
  EXPECT_GT(executor->reloads, 0);
  EXPECT_GT(report.frames_degraded, 0u);
  // Re-admitted: the executor ran real frames again after the fault
  // window (4 pre-fault + at least one post-probe frame).
  EXPECT_GT(executor->runs, 5);
  // ...and the recovery stuck: only a bounded slice was degraded.
  EXPECT_LT(stage.degraded, 20u);
}

TEST(StreamingPipeline, ReportedDegradedStrikesLeadToQuarantine) {
  // Executors signal soft faults (failed checksum, tripped plausibility
  // check) by *reporting* kDegraded rather than throwing. Consecutive
  // reports cross the strike threshold and quarantine the stage; a
  // healthy reload re-admits it.
  class SoftFaultExecutor final : public Executor {
   public:
    FrameResult run(const FrameContext& ctx) override {
      const StageStatus status = (ctx.index >= 3 && ctx.index < 9)
                                     ? StageStatus::kDegraded
                                     : StageStatus::kOk;
      return {1.0, name_, status, nullptr};
    }
    bool reload() override {
      ++reloads;
      return true;
    }
    const std::string& name() const noexcept override { return name_; }
    int reloads = 0;

   private:
    std::string name_ = "soft-fault";
  };

  auto owned = std::make_unique<SoftFaultExecutor>();
  SoftFaultExecutor* executor = owned.get();
  PipelineBuilder builder;
  builder.stage(std::move(owned))
      .quarantine_after(3)
      .degraded_cooldown_frames(2)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(30, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 30u);
  const StageTelemetry& stage = report.stages[0];
  EXPECT_GE(stage.quarantines, 1u);
  EXPECT_GE(stage.reloads, 1u);
  EXPECT_GT(executor->reloads, 0);
  EXPECT_GT(report.frames_degraded, 0u);
}

TEST(StreamingPipeline, FailedReloadNeverRunsTheStage) {
  // No re-admission without a successful reload, even with no cooldown:
  // after the quarantining frame, the executor must not run again until
  // a reload() passes, and a failed reload skips its frame.
  class FlakyReloadExecutor final : public Executor {
   public:
    FrameResult run(const FrameContext& ctx) override {
      log.push_back(ctx.index);
      const StageStatus status =
          ctx.index == 2 ? StageStatus::kDegraded : StageStatus::kOk;
      return {1.0, name_, status, nullptr};
    }
    bool reload() override {
      log.push_back(++reloads > 1 ? kReloadOk : kReloadFail);
      return reloads > 1;
    }
    const std::string& name() const noexcept override { return name_; }
    enum : int { kReloadFail = -1, kReloadOk = -2 };
    std::vector<int> log;  ///< frames run, and reload outcomes, in order
    int reloads = 0;

   private:
    std::string name_ = "flaky-reload";
  };

  auto owned = std::make_unique<FlakyReloadExecutor>();
  FlakyReloadExecutor* executor = owned.get();
  PipelineBuilder builder;
  builder.stage(std::move(owned))
      .quarantine_after(1)
      .degraded_cooldown_frames(0)
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(10, 30.0);
  const StreamReport report = pipeline->run(source);

  // Frame 2 quarantines; frame 3's probe fails (skipped), frame 4 is the
  // fresh max(1, cooldown) bypass, frame 5's probe passes and runs.
  const std::vector<int> expected = {
      0, 1, 2, FlakyReloadExecutor::kReloadFail,
      FlakyReloadExecutor::kReloadOk, 5, 6, 7, 8, 9};
  EXPECT_EQ(executor->log, expected);
  EXPECT_EQ(report.frames_completed, 10u);
  EXPECT_EQ(report.stages[0].quarantines, 1u);
  EXPECT_EQ(report.stages[0].reloads, 2u);
  EXPECT_EQ(report.stages[0].degraded, 3u);  // frame 2 flagged, 3-4 skipped
}

TEST(StreamingPipeline, DegradedReportsPassThroughWithoutQuarantineOptIn) {
  // quarantine_after = 0 (the default) preserves the pre-quarantine
  // contract: a stage may report kDegraded forever without being
  // benched, and its frames still count as completed.
  class AlwaysDegradedExecutor final : public Executor {
   public:
    FrameResult run(const FrameContext&) override {
      return {1.0, name_, StageStatus::kDegraded, nullptr};
    }
    const std::string& name() const noexcept override { return name_; }

   private:
    std::string name_ = "grumbler";
  };

  PipelineBuilder builder;
  builder.stage(std::make_unique<AlwaysDegradedExecutor>())
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(25, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_completed, 25u);
  EXPECT_EQ(report.stages[0].quarantines, 0u);
  EXPECT_EQ(report.stages[0].reloads, 0u);
  EXPECT_EQ(report.stages[0].degraded, 0u);
  EXPECT_EQ(report.frames_degraded, 0u);
}

TEST(StreamingPipeline, WatchdogProbeDuringShutdownDoesNotWedge) {
  // The last frames of the stream stall the stage past its budget, so
  // the watchdog fires and the degraded cooldown is still pending when
  // the source closes the queues. Shutdown must drain cleanly — every
  // frame accounted for, no deadlock between the watchdog wait and the
  // closing queue cascade — even though the stage never gets to finish
  // its recovery probe.
  PipelineBuilder builder;
  builder.stage(std::make_unique<TestExecutor>("tail-stall", 0.5, 17, 20,
                                               60.0))
      .stage_timeout_ms(10.0)
      .degraded_cooldown_frames(16)  // longer than the remaining stream
      .deadline_ms(1000.0);
  auto pipeline = builder.build_streaming();
  SyntheticSource source(20, 30.0);
  const StreamReport report = pipeline->run(source);

  EXPECT_EQ(report.frames_emitted, 20u);
  EXPECT_EQ(report.frames_completed + report.frames_dropped, 20u);
  EXPECT_GE(report.stages[0].timeouts, 1u);
  EXPECT_GT(report.frames_degraded, 0u);
}

TEST(StreamingPipeline, TelemetryIsIndependentAcrossConsecutiveRuns) {
  // Regression guard: per-run stage state (frame counts, latency
  // recorders, degraded flags) must reset between run() calls on the
  // same pipeline — a second stream must not inherit or accumulate the
  // first stream's telemetry.
  auto pipeline = three_fixed_stages(0.5, 1.0, 1.5)
                      .deadline_ms(1000.0)
                      .queue_capacity(4)
                      .build_streaming();
  SyntheticSource first(80, 30.0);
  const StreamReport a = pipeline->run(first);
  SyntheticSource second(30, 30.0);
  const StreamReport b = pipeline->run(second);

  EXPECT_EQ(a.frames_completed, 80u);
  EXPECT_EQ(b.frames_completed, 30u);
  ASSERT_EQ(b.stages.size(), 3u);
  for (const StageTelemetry& s : b.stages) {
    EXPECT_EQ(s.frames_in, 30u);   // not 110
    EXPECT_EQ(s.frames_out, 30u);
    EXPECT_EQ(s.queue_dropped, 0u);
    EXPECT_LE(s.latency.count(), 30u);
  }
  // Same stage chain → same per-frame service distribution.
  EXPECT_NEAR(b.service_ms.mean(), a.service_ms.mean(),
              a.service_ms.mean() * 0.05);
}

TEST(StreamReport, TextAndJsonRendering) {
  auto pipeline =
      three_fixed_stages(1.0, 2.0, 3.0).deadline_ms(100.0).build_streaming();
  SyntheticSource source(25, 30.0);
  const StreamReport report = pipeline->run(source);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("25/25 frames completed"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"frames_completed\":25"), std::string::npos);
}

}  // namespace
}  // namespace ocb::runtime
