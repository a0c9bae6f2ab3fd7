#include "runtime/streaming_pipeline.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/thread_annotations.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/health_gate.hpp"

namespace ocb::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// One-shot completion latch for the watchdog: the sink signals it,
/// the watchdog polls it with a timeout. Annotated so the clang
/// thread-safety leg proves the flag is never touched without the lock.
class DoneLatch {
 public:
  void signal() OCB_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

  /// Waits up to `period`; returns true once signalled.
  template <typename Rep, typename Period>
  bool wait_for(const std::chrono::duration<Rep, Period>& period)
      OCB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cv_.wait_for(mu_, period,
                        [this]() OCB_REQUIRES(mu_) { return done_; });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool done_ OCB_GUARDED_BY(mu_) = false;
};

void sleep_wall_ms(double ms) {
  if (ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// A frame travelling the sequential chain.
struct StreamTask {
  int index = 0;
  double emit_ms = 0.0;     ///< stream-clock ms at source emit
  double service_ms = 0.0;  ///< accumulated stage work
  bool degraded = false;    ///< any stage was degraded/skipped for it
  Frame frame;
};

/// One stage's verdict on one frame (parallel fan-out mode).
struct StageOut {
  int index = 0;
  double emit_ms = 0.0;
  double latency_ms = 0.0;
  bool degraded = false;
};

/// Per-run state of one stage. Fields below the atomics are private
/// to the stage's worker thread and read only after the worker joins.
struct StageRuntime {
  Executor* executor = nullptr;
  std::unique_ptr<BoundedQueue<StreamTask>> in;
  std::unique_ptr<BoundedQueue<StageOut>> out;  // parallel mode only

  std::atomic<double> busy_since_ms{-1.0};  // wall clock; < 0 when idle
  std::atomic<bool> timed_out{false};       // set by the watchdog, per run
  std::atomic<std::uint64_t> timeouts{0};

  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t degraded_frames = 0;
  HealthGate gate;
  LatencyRecorder latency;
};

}  // namespace

StreamingPipeline::StreamingPipeline(
    std::vector<std::unique_ptr<Executor>> stages, StreamConfig config)
    : stages_(std::move(stages)), config_(config) {
  OCB_CHECK_MSG(!stages_.empty(), "pipeline needs at least one stage");
  OCB_CHECK_MSG(config_.queue_capacity > 0, "queue capacity must be positive");
  OCB_CHECK_MSG(config_.time_scale > 0.0, "time scale must be positive");
  OCB_CHECK_MSG(config_.discipline == Discipline::kSequential ||
                    config_.drop_policy == DropPolicy::kBlock,
                "parallel discipline requires DropPolicy::kBlock (the "
                "frame join cannot wait on a dropped frame)");
}

StreamingPipeline::~StreamingPipeline() = default;

StreamReport StreamingPipeline::run(FrameSource& source, int max_frames) {
  const StreamConfig& cfg = config_;
  const bool sequential = cfg.discipline == Discipline::kSequential;
  const std::size_t n = stages_.size();
  const Clock::time_point start = Clock::now();
  const auto wall_ms = [start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const auto stream_ms = [&wall_ms, &cfg] {
    return wall_ms() / cfg.time_scale;
  };

  std::vector<StageRuntime> stages(n);
  for (std::size_t i = 0; i < n; ++i) {
    stages[i].executor = stages_[i].get();
    stages[i].gate =
        HealthGate(cfg.degraded_cooldown_frames, cfg.quarantine_after);
    stages[i].in = std::make_unique<BoundedQueue<StreamTask>>(
        cfg.queue_capacity, cfg.drop_policy);
    if (!sequential)
      stages[i].out = std::make_unique<BoundedQueue<StageOut>>(
          cfg.queue_capacity, DropPolicy::kBlock);
  }
  // Completed frames leave the chain through a lossless queue: frames
  // that survived every stage are never shed at the sink.
  BoundedQueue<StreamTask> sink_queue(cfg.queue_capacity, DropPolicy::kBlock);

  // Runs one frame through a stage's executor under its HealthGate
  // (DESIGN.md §14): a benched stage bypasses its executor, and a
  // quarantined one must pass a reload() probe before it runs again.
  const auto process = [&](StageRuntime& st, const StreamTask& task,
                           double& latency_out) -> StageStatus {
    latency_out = 0.0;
    const HealthGate::Admit admit = st.gate.admit();
    if (admit == HealthGate::Admit::kBypass ||
        (admit == HealthGate::Admit::kProbe &&
         !st.gate.probe_result(safe_reload(*st.executor)))) {
      ++st.degraded_frames;
      return StageStatus::kSkipped;
    }
    FrameContext ctx;
    ctx.index = task.index;
    ctx.timestamp_ms = task.emit_ms;
    ctx.image = task.frame.image.empty() ? nullptr : &task.frame.image;

    const double t0 = wall_ms();
    st.timed_out.store(false);
    st.busy_since_ms.store(t0);
    FrameResult result;
    bool threw = false;
    try {
      result = st.executor->run(ctx);
    } catch (const std::exception&) {
      threw = true;  // a faulty stage degrades; it must not kill the stream
    }
    st.busy_since_ms.store(-1.0);
    const double elapsed = wall_ms() - t0;

    // A throw or a watchdog timeout benches the stage for the cooldown.
    // A throw or a *reported* kDegraded (failed weight checksum, tripped
    // plausibility check) is a health strike; with quarantine off the
    // reported status passes through as kOk, the pre-quarantine contract.
    const bool counted = st.gate.record(
        {threw || st.timed_out.load(),
         threw || result.status == StageStatus::kDegraded});
    if (counted) ++st.degraded_frames;
    if (!threw) {
      latency_out = result.latency_ms;
      st.latency.add(latency_out);
      if (cfg.emulate_occupancy)
        sleep_wall_ms(latency_out * cfg.time_scale - elapsed);
    }
    return counted ? StageStatus::kDegraded : StageStatus::kOk;
  };

  // --- launch source, stage workers and watchdog on the pool ---------
  const bool watchdog_on = cfg.stage_timeout_ms > 0.0;
  DoneLatch done;

  ThreadPool pool(1 + n + (watchdog_on ? 1 : 0));
  std::vector<std::future<void>> tasks;

  std::uint64_t emitted = 0;  // written by the source task, read after join
  tasks.push_back(pool.submit([&] {
    const double interval_wall =
        cfg.source_fps > 0.0 ? 1000.0 / cfg.source_fps * cfg.time_scale : 0.0;
    for (std::uint64_t i = 0;
         max_frames <= 0 || i < static_cast<std::uint64_t>(max_frames); ++i) {
      std::optional<Frame> frame = source.next();
      if (!frame) break;
      if (interval_wall > 0.0)
        sleep_wall_ms(static_cast<double>(i) * interval_wall - wall_ms());
      StreamTask task;
      task.index = static_cast<int>(i);
      task.emit_ms = stream_ms();
      task.frame = std::move(*frame);
      if (sequential) {
        stages[0].in->push(std::move(task));
      } else {
        for (std::size_t s = 0; s + 1 < n; ++s) stages[s].in->push(task);
        stages[n - 1].in->push(std::move(task));
      }
      ++emitted;
    }
    for (std::size_t s = 0; s < (sequential ? 1 : n); ++s)
      stages[s].in->close();
  }));

  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back(pool.submit([&, i] {
      StageRuntime& st = stages[i];
      while (std::optional<StreamTask> task = st.in->pop()) {
        ++st.frames_in;
        double latency = 0.0;
        const StageStatus status = process(st, *task, latency);
        if (sequential) {
          task->service_ms += latency;
          task->degraded |= status != StageStatus::kOk;
          BoundedQueue<StreamTask>& next =
              i + 1 < n ? *stages[i + 1].in : sink_queue;
          if (next.push(std::move(*task)) != PushOutcome::kRejected)
            ++st.frames_out;
        } else {
          StageOut out;
          out.index = task->index;
          out.emit_ms = task->emit_ms;
          out.latency_ms = latency;
          out.degraded = status != StageStatus::kOk;
          if (st.out->push(out) != PushOutcome::kRejected) ++st.frames_out;
        }
      }
      if (sequential) {
        if (i + 1 < n)
          stages[i + 1].in->close();
        else
          sink_queue.close();
      } else {
        st.out->close();
      }
    }));
  }

  if (watchdog_on) {
    tasks.push_back(pool.submit([&] {
      const auto period = std::chrono::duration<double, std::milli>(
          std::max(0.1, cfg.watchdog_period_ms * cfg.time_scale));
      const double budget_wall = cfg.stage_timeout_ms * cfg.time_scale;
      while (!done.wait_for(period)) {
        const double now = wall_ms();
        for (StageRuntime& st : stages) {
          const double since = st.busy_since_ms.load();
          if (since >= 0.0 && now - since > budget_wall &&
              !st.timed_out.exchange(true))
            st.timeouts.fetch_add(1);
        }
      }
    }));
  }

  // --- sink (this thread): join, account, record ---------------------
  StreamReport report;
  report.deadline_ms = cfg.deadline_ms;
  const auto account = [&](double emit_ms, double service, bool degraded) {
    const double e2e = stream_ms() - emit_ms;
    report.e2e_ms.add(e2e);
    report.service_ms.add(service);
    ++report.frames_completed;
    if (e2e > cfg.deadline_ms) ++report.deadline_misses;
    if (degraded) ++report.frames_degraded;
  };

  if (sequential) {
    while (std::optional<StreamTask> task = sink_queue.pop())
      account(task->emit_ms, task->service_ms, task->degraded);
  } else {
    for (;;) {
      std::optional<StageOut> first = stages[0].out->pop();
      if (!first) break;
      double service = first->latency_ms;
      bool degraded = first->degraded;
      for (std::size_t i = 1; i < n; ++i) {
        std::optional<StageOut> next = stages[i].out->pop();
        OCB_CHECK_MSG(next && next->index == first->index,
                      "parallel join out of sync");
        service = std::max(service, next->latency_ms);
        degraded |= next->degraded;
      }
      account(first->emit_ms, service, degraded);
    }
  }

  done.signal();
  for (std::future<void>& task : tasks) task.get();

  // --- fold telemetry ------------------------------------------------
  report.frames_emitted = emitted;
  report.wall_ms = stream_ms();
  for (StageRuntime& st : stages) {
    StageTelemetry t;
    t.name = st.executor->name();
    t.frames_in = st.frames_in;
    t.frames_out = st.frames_out;
    t.queue_dropped = st.in->dropped();
    t.degraded = st.degraded_frames;
    t.timeouts = st.timeouts.load();
    t.quarantines = st.gate.quarantines();
    t.reloads = st.gate.reloads();
    t.queue_high_water = st.in->high_water();
    t.queue_capacity = st.in->capacity();
    t.latency = st.latency;
    report.frames_dropped += t.queue_dropped;
    report.stages.push_back(std::move(t));
  }
  if (report.wall_ms > 0.0)
    report.throughput_fps =
        static_cast<double>(report.frames_completed) * 1000.0 / report.wall_ms;

  // No-lost-frames accounting: every emitted frame either reached the
  // sink or was shed at exactly one queue (sequential), and the
  // parallel fan-out is lossless by construction (kBlock queues). A
  // violation here means a frame vanished inside the runtime.
  if (sequential) {
    OCB_CHECK_MSG(
        report.frames_completed + report.frames_dropped ==
            report.frames_emitted,
        "streaming shutdown lost frames: emitted " +
            std::to_string(report.frames_emitted) + ", completed " +
            std::to_string(report.frames_completed) + ", dropped " +
            std::to_string(report.frames_dropped));
  } else {
    OCB_CHECK_MSG(report.frames_dropped == 0 &&
                      report.frames_completed == report.frames_emitted,
                  "parallel fan-out must be lossless");
  }
  return report;
}

}  // namespace ocb::runtime
