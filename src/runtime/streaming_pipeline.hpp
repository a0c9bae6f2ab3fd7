// Streaming concurrent pipeline runtime.
//
// Where the analytic Pipeline adds or maxes stage latencies on paper,
// StreamingPipeline actually moves frames: the source and every stage
// run as long-lived tasks on a ThreadPool, connected by bounded queues
// whose backpressure policy (block / drop-oldest / drop-newest)
// decides what happens when a stage falls behind a 30 FPS feed. A
// watchdog flags a run that overruns its timeout and the stage's
// HealthGate benches it for a cooldown of bypassed frames, so a
// stalled model slows the stream instead of wedging it. Per-stage and
// end-to-end telemetry (frames in/out/dropped, queue high-water marks,
// p50/p95/p99 latency, deadline misses) is folded into a StreamReport.
//
// Disciplines:
//  * kSequential — a chain: stage i's output queue feeds stage i+1;
//    frames pipeline, so throughput tracks the slowest stage while
//    per-frame service latency is the sum of stage latencies.
//  * kParallel — a fan-out: every stage consumes its own copy of each
//    frame and the sink joins results in frame order; service latency
//    is the max across stages. Requires lossless (kBlock) queues so
//    the join never waits on a dropped frame.
#pragma once

#include <memory>
#include <vector>

#include "runtime/frame_source.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stream_queue.hpp"
#include "runtime/telemetry.hpp"

namespace ocb::runtime {

/// Runtime knobs; assembled by PipelineBuilder.
struct StreamConfig {
  Discipline discipline = Discipline::kSequential;
  std::size_t queue_capacity = 4;
  DropPolicy drop_policy = DropPolicy::kBlock;
  double deadline_ms = 1000.0 / 30.0;  ///< per-frame end-to-end budget
  double stage_timeout_ms = 0.0;       ///< watchdog budget; 0 disables
  double watchdog_period_ms = 2.0;     ///< watchdog poll interval
  int degraded_cooldown_frames = 8;    ///< bypassed frames after a fault
  /// Health-based quarantine (DESIGN.md §14): a stage whose executor
  /// throws or *reports* kDegraded (failed checksum, tripped plausibility
  /// check) this many consecutive times is quarantined; after the
  /// cooldown a frame runs only if Executor::reload() passes. 0 disables
  /// (reported kDegraded passes through as kOk).
  int quarantine_after = 0;
  bool emulate_occupancy = false;      ///< sleep stages for modelled latency
  double time_scale = 1.0;             ///< real seconds per stream second
  double source_fps = 0.0;             ///< 0 = emit as fast as accepted
};

class StreamingPipeline {
 public:
  StreamingPipeline(std::vector<std::unique_ptr<Executor>> stages,
                    StreamConfig config);
  ~StreamingPipeline();

  StreamingPipeline(const StreamingPipeline&) = delete;
  StreamingPipeline& operator=(const StreamingPipeline&) = delete;

  /// Drive up to `max_frames` frames (<= 0: until the source is
  /// exhausted) from `source` through the stage chain on worker
  /// threads. Blocks until every in-flight frame has drained, then
  /// returns the run's telemetry. May be called again on a fresh (or
  /// reset) source; telemetry is per run.
  StreamReport run(FrameSource& source, int max_frames = 0);

  const StreamConfig& config() const noexcept { return config_; }
  std::size_t stage_count() const noexcept { return stages_.size(); }

 private:
  std::vector<std::unique_ptr<Executor>> stages_;
  StreamConfig config_;
};

}  // namespace ocb::runtime
