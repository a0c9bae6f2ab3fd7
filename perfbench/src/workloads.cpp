#include "workloads.hpp"

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "runtime/model_server.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/streaming_pipeline.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace ocb;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Process-level counters taken around a measured phase.
struct PhaseClock {
  Clock::time_point start = Clock::now();
  double cpu0 = cpu_seconds();
  std::uint64_t tasks0 = ThreadPool::global().tasks_dispatched();

  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  void finish(Measurement& m) const {
    m.wall_s = elapsed_s();
    m.cpu_s = cpu_seconds() - cpu0;
    m.pool_tasks =
        static_cast<double>(ThreadPool::global().tasks_dispatched() - tasks0);
  }
};

// --- deploy_closed: the chain, called directly, one frame in flight ----

Measurement measure_direct(Engines& engines, const Inputs& inputs,
                           double seconds) {
  Measurement m;
  ModelInputs scratch;
  const PhaseClock phase;
  for (int i = 0; phase.elapsed_s() < seconds; ++i) {
    const Clock::time_point t0 = Clock::now();
    DetectResult det;
    {
      Span span("bench.frame", i);
      det = run_chain(engines, inputs, m.vip, pool_frame(inputs, i).image, i,
                      scratch);
    }
    FrameOutcome f;
    f.completed = true;
    f.check_failed = !det.yolo_ok;
    f.latency_ms = ms_between(t0, Clock::now());
    m.frames.push_back(f);
    m.decoded += det.decoded;
    m.kept += det.kept.size();
  }
  phase.finish(m);
  return m;
}

// --- feed_5fps: open loop through runtime::StreamingPipeline ----------

/// Replays the frame pool as a live camera: each frame carries its own
/// copy of the pixels, as a capture buffer would.
class PoolSource final : public runtime::FrameSource {
 public:
  PoolSource(const Inputs& inputs, int frames)
      : inputs_(inputs), frames_(frames) {}

  std::optional<runtime::Frame> next() override {
    if (cursor_ >= frames_) return std::nullopt;
    const PoolFrame& p = pool_frame(inputs_, cursor_);
    runtime::Frame f;
    f.image = p.image;
    f.spec = p.spec;
    f.timestamp_s = frame_time_s(cursor_);
    f.index = cursor_++;
    return f;
  }

 private:
  const Inputs& inputs_;
  int frames_;
  int cursor_ = 0;
};

/// One pipeline stage: a slice of the chain run on the stage's worker.
/// Exceptions are caught here and recorded as a failed check, so the
/// runtime never bypasses a stage and every frame that is not dropped
/// reaches the alert stage.
class StageExecutor final : public runtime::Executor {
 public:
  using Body = std::function<void(const runtime::FrameContext&)>;
  StageExecutor(std::string name, const char* span, Body body,
                std::vector<double>& stage_ms, std::vector<char>& failed)
      : name_(std::move(name)),
        span_(span),
        body_(std::move(body)),
        stage_ms_(stage_ms),
        failed_(failed) {}

  runtime::FrameResult run(const runtime::FrameContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    try {
      Span span(span_, ctx.index);
      body_(ctx);
    } catch (const std::exception&) {
      failed_[static_cast<std::size_t>(ctx.index)] = 1;
    }
    runtime::FrameResult r;
    r.stage = name_;
    r.latency_ms = ms_between(t0, Clock::now());
    stage_ms_[static_cast<std::size_t>(ctx.index)] += r.latency_ms;
    return r;
  }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_;
  const char* span_;
  Body body_;
  std::vector<double>& stage_ms_;
  std::vector<char>& failed_;
};

Measurement measure_stream(const WorkloadSpec& spec, Engines& engines,
                           const Inputs& inputs, double seconds) {
  Measurement m;
  const double period_ms = 1000.0 / spec.fps;
  const int frames = std::max(1, static_cast<int>(seconds * spec.fps));
  const auto n = static_cast<std::size_t>(frames);

  // Per-frame records, indexed by frame id. Each frame visits the
  // stages in order through the runtime's queues, which order the
  // writes of one stage before the reads of the next.
  std::vector<double> stage_ms(n, 0.0), done_ms(n, -1.0);
  std::vector<char> failed(n, 0);
  m.lag_ms.reserve(n);  // appended by the detect stage, one per frame it saw
  // In-flight working set: at most 4 queues of 4 plus one frame per
  // stage and the sink's queue are alive, well below the ring size.
  constexpr std::size_t kRing = 32;
  std::vector<ModelInputs> ring_inputs(kRing);
  std::vector<DetectResult> ring_det(kRing);
  const auto slot = [](int frame) { return static_cast<std::size_t>(frame) % kRing; };

  Clock::time_point origin;
  std::vector<std::unique_ptr<runtime::Executor>> stages;
  stages.push_back(std::make_unique<StageExecutor>(
      "detect", "runtime.stage.detect",
      [&](const runtime::FrameContext& ctx) {
        const int i = ctx.index;
        m.lag_ms.push_back(ctx.timestamp_ms - period_ms * static_cast<double>(i));
        ModelInputs& in = ring_inputs[slot(i)];
        prepare_detector_inputs(*ctx.image, engines, i, in);
        const std::vector<Tensor>& yolo =
            run_model(engines, kYolo11n, in.tensors[kYolo11n], i);
        const std::vector<Tensor>& mini =
            run_model(engines, kMiniYolo, in.tensors[kMiniYolo], i);
        ring_det[slot(i)] =
            post_detect(*inputs.detector, mini[0], in.mini_box, yolo,
                        ctx.image->width(), ctx.image->height(), i);
      },
      stage_ms, failed));
  stages.push_back(std::make_unique<StageExecutor>(
      "pose", "runtime.stage.pose",
      [&](const runtime::FrameContext& ctx) {
        ModelInputs& in = ring_inputs[slot(ctx.index)];
        prepare_pose_input(*ctx.image, engines, ctx.index, in);
        run_model(engines, kTrtPose, in.tensors[kTrtPose], ctx.index);
      },
      stage_ms, failed));
  stages.push_back(std::make_unique<StageExecutor>(
      "depth", "runtime.stage.depth",
      [&](const runtime::FrameContext& ctx) {
        ModelInputs& in = ring_inputs[slot(ctx.index)];
        prepare_depth_input(*ctx.image, engines, ctx.index, in);
        run_model(engines, kMonodepth2, in.tensors[kMonodepth2], ctx.index);
      },
      stage_ms, failed));
  stages.push_back(std::make_unique<StageExecutor>(
      "vip", "runtime.stage.vip",
      [&](const runtime::FrameContext& ctx) {
        const int i = ctx.index;
        const DetectResult& det = ring_det[slot(i)];
        m.vip.step(inputs.svm, pool_frame(inputs, i), det.kept,
                   frame_time_s(i), i);
        if (!det.yolo_ok) failed[static_cast<std::size_t>(i)] = 1;
        m.decoded += det.decoded;
        m.kept += det.kept.size();
        done_ms[static_cast<std::size_t>(i)] = ms_between(origin, Clock::now());
      },
      stage_ms, failed));

  runtime::PipelineBuilder builder;
  for (auto& s : stages) builder.stage(std::move(s));
  const std::unique_ptr<runtime::StreamingPipeline> pipeline =
      builder.discipline(runtime::Discipline::kSequential)
          .queue_capacity(4)
          .drop_policy(runtime::DropPolicy::kDropOldest)
          .deadline_ms(kDeadlineMs)
          .source_fps(spec.fps)
          .build_streaming();

  PoolSource source(inputs, frames);
  const PhaseClock phase;
  origin = Clock::now();
  const runtime::StreamReport report = pipeline->run(source, frames);
  phase.finish(m);

  for (std::size_t i = 0; i < n; ++i) {
    FrameOutcome f;
    f.completed = done_ms[i] >= 0.0;
    f.dropped = !f.completed;
    f.check_failed = failed[i] != 0;
    if (f.completed) {
      f.latency_ms = open_loop_latency_ms(0.0, period_ms, static_cast<int>(i),
                                          done_ms[i]);
      m.queue_wait_ms.push_back(f.latency_ms - stage_ms[i]);
    }
    m.frames.push_back(f);
  }
  for (const runtime::StageTelemetry& st : report.stages)
    m.queue_hwm = std::max(m.queue_hwm, st.queue_high_water);
  m.runtime_dropped = report.frames_dropped;
  m.runtime_degraded = report.frames_degraded;
  return m;
}

// --- replay_batched: closed loop through runtime::ModelServer ----------

/// Opens a span around every batch the server dispatches to one model;
/// the span carries the batch's first frame id.
class TracedBatchRunner final : public runtime::BatchRunner {
 public:
  TracedBatchRunner(std::unique_ptr<runtime::BatchRunner> inner,
                    const char* span)
      : inner_(std::move(inner)), span_(span) {}

  BatchOutput run(const std::vector<runtime::ServeRequest>& batch) override {
    Span span(span_, batch.front().frame);
    return inner_->run(batch);
  }
  bool healthy() override { return inner_->healthy(); }
  bool reload() override { return inner_->reload(); }

 private:
  std::unique_ptr<runtime::BatchRunner> inner_;
  const char* span_;
};

runtime::ServePriority priority_of(int model) {
  switch (model) {
    case kYolo11n:
    case kMiniYolo: return runtime::ServePriority::kCritical;
    case kTrtPose: return runtime::ServePriority::kHigh;
    default: return runtime::ServePriority::kNormal;
  }
}

Measurement measure_serve(const WorkloadSpec& spec, Engines& engines,
                          const Inputs& inputs, double seconds) {
  static constexpr std::array<const char*, kModelCount> kSpan = {
      "nn.run_batch.yolo11n", "nn.run_batch.miniyolo",
      "nn.run_batch.trt_pose", "nn.run_batch.monodepth2"};
  Measurement m;

  struct InFlight {
    int frame = 0;
    Clock::time_point start;
    LetterboxInfo mini_box;
    std::array<std::future<runtime::ServeResult>, kModelCount> results;
  };

  const PhaseClock phase;
  {
    runtime::ServerConfig sc;
    sc.workers = 1;
    runtime::ModelServer server(sc);
    std::array<int, kModelCount> handle{};
    for (int model = 0; model < kModelCount; ++model) {
      runtime::ServedModelConfig c;
      c.name = model_key(model);
      c.priority = priority_of(model);
      c.max_batch = spec.max_batch;
      c.queue_capacity = static_cast<std::size_t>(2 * spec.in_flight);
      c.admission = runtime::DropPolicy::kBlock;
      // Long enough that a group's back-to-back submissions always
      // coalesce into one full batch.
      c.batch_window_ms = 20.0;
      handle[static_cast<std::size_t>(model)] = server.add_model(
          c, std::make_unique<TracedBatchRunner>(
                 std::make_unique<runtime::EngineBatchRunner>(
                     engines.at(model), spec.max_batch,
                     production_request(spec.max_batch).fusion),
                 kSpan[static_cast<std::size_t>(model)]));
    }

    // Frames travel in groups of `in_flight`: all are prepared first and
    // their requests submitted back to back, so every model's batch
    // fills to max_batch and the batch mix does not depend on timing.
    std::vector<InFlight> group(static_cast<std::size_t>(spec.in_flight));
    int next = 0;
    while (phase.elapsed_s() < seconds) {
      std::vector<ModelInputs> in(group.size());
      for (std::size_t g = 0; g < group.size(); ++g) {
        InFlight& f = group[g];
        f.frame = next++;
        f.start = Clock::now();
        const Image& image = pool_frame(inputs, f.frame).image;
        prepare_detector_inputs(image, engines, f.frame, in[g]);
        prepare_pose_input(image, engines, f.frame, in[g]);
        prepare_depth_input(image, engines, f.frame, in[g]);
        f.mini_box = in[g].mini_box;
      }
      for (std::size_t g = 0; g < group.size(); ++g)
        for (int model = 0; model < kModelCount; ++model) {
          const auto mi = static_cast<std::size_t>(model);
          runtime::ServeRequest r;
          r.frame = group[g].frame;
          r.input = std::make_shared<const Tensor>(std::move(in[g].tensors[mi]));
          group[g].results[mi] = server.submit(handle[mi], std::move(r));
        }

      // Results are consumed in frame order.
      for (InFlight& f : group) {
        std::array<runtime::ServeResult, kModelCount> res;
        {
          Span span("runtime.serve_wait", f.frame);
          for (int model = 0; model < kModelCount; ++model)
            res[static_cast<std::size_t>(model)] =
                f.results[static_cast<std::size_t>(model)].get();
        }
        FrameOutcome out;
        for (const runtime::ServeResult& r : res) {
          m.server_queue_ms.push_back(r.queue_ms);
          out.dropped |= r.outcome == runtime::ServeOutcome::kDropped;
          out.degraded |= r.outcome == runtime::ServeOutcome::kDegraded;
        }
        out.completed = !out.dropped && !out.degraded;
        if (out.completed) {
          const auto& yolo = *static_cast<const std::vector<Tensor>*>(
              res[kYolo11n].payload.get());
          const auto& mini = *static_cast<const std::vector<Tensor>*>(
              res[kMiniYolo].payload.get());
          const PoolFrame& frame = pool_frame(inputs, f.frame);
          const DetectResult det =
              post_detect(*inputs.detector, mini[0], f.mini_box, yolo,
                          frame.image.width(), frame.image.height(), f.frame);
          m.vip.step(inputs.svm, frame, det.kept, frame_time_s(f.frame),
                     f.frame);
          out.check_failed = !det.yolo_ok;
          m.decoded += det.decoded;
          m.kept += det.kept.size();
        }
        out.latency_ms = ms_between(f.start, Clock::now());
        m.frames.push_back(out);
      }
    }
    server.drain();
    const runtime::ServerReport report = server.report();
    std::uint64_t batches = 0, batched = 0;
    for (const runtime::ModelServeTelemetry& t : report.models) {
      batches += t.batches;
      batched += t.batched_frames;
      m.runtime_degraded += t.degraded;
      m.runtime_dropped += t.dropped;
      m.model_mean_batch.push_back(t.mean_batch());
    }
    m.mean_batch = batches ? static_cast<double>(batched) /
                                 static_cast<double>(batches)
                           : 0.0;
  }  // the server's worker joins here, so its spans are complete
  phase.finish(m);
  return m;
}

}  // namespace

std::vector<double> Measurement::latencies() const {
  std::vector<double> v;
  for (const FrameOutcome& f : frames)
    if (f.completed) v.push_back(f.latency_ms);
  return v;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kSpecs = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "deploy_closed";
    v[0].mode = Mode::kDirect;
    v[0].scale = 1.0;
    v[0].frame_w = 640;
    v[0].frame_h = 480;
    v[0].pool_frames = 8;
    v[0].setup_reps = 3;
    v[0].gate_frames = 1;  // an unprepared engine at scale 1.0 is slow
    v[0].why =
        "deployment input sizes, one frame in flight, no runtime: kernel "
        "work in nn/tensor dominates the frame";
    v[1].name = "feed_5fps";
    v[1].mode = Mode::kStream;
    v[1].scale = 0.25;
    v[1].frame_w = 320;
    v[1].frame_h = 240;
    v[1].pool_frames = 40;
    v[1].setup_reps = 5;
    v[1].fps = 5.0;
    v[1].why =
        "open-loop 5 FPS camera through the streaming runtime at scale 0.25: "
        "pre/post-processing and queueing are a visible share";
    v[2].name = "replay_batched";
    v[2].mode = Mode::kServe;
    v[2].scale = 0.25;
    v[2].frame_w = 320;
    v[2].frame_h = 240;
    v[2].pool_frames = 40;
    v[2].max_batch = 4;
    v[2].setup_reps = 5;
    v[2].in_flight = 4;
    v[2].why =
        "video replay through ModelServer micro-batching (run_batch, max 4, "
        "4 frames in flight): batch and scheduler paths";
    return v;
  }();
  return kSpecs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Measurement measure(const WorkloadSpec& spec, Engines& engines,
                    const Inputs& inputs, double seconds) {
  switch (spec.mode) {
    case Mode::kDirect: return measure_direct(engines, inputs, seconds);
    case Mode::kStream: return measure_stream(spec, engines, inputs, seconds);
    case Mode::kServe: return measure_serve(spec, engines, inputs, seconds);
  }
  return {};
}

}  // namespace perfbench
