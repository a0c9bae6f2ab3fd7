// The benchmark's workloads and their measured phase.
//
//  deploy_closed   closed loop, one frame in flight, deployment input
//                  scale, the chain called directly (no runtime layer)
//  feed_5fps       open-loop 5 FPS camera feed at input scale 0.25
//                  through runtime::StreamingPipeline (sequential, one
//                  stage per worker, queues of 4, drop-oldest)
//  replay_batched  recorded-video replay at input scale 0.25 through
//                  runtime::ModelServer (one worker, EngineBatchRunner
//                  with max_batch 4, 4 frames in flight, in-order)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chain.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Mode { kDirect, kStream, kServe };

struct WorkloadSpec {
  std::string name;
  Mode mode = Mode::kDirect;
  double scale = 1.0;       ///< model input scale (1.0: deployment)
  int frame_w = 640;        ///< camera frame size
  int frame_h = 480;
  int pool_frames = 8;      ///< distinct rendered frames, replayed in a loop
  int max_batch = 1;        ///< PlanRequest::max_batch
  int setup_reps = 3;       ///< set-ups per run; setup_s is their median
  double fps = 0.0;         ///< open-loop release rate (kStream)
  int in_flight = 1;        ///< frames in flight (kServe)
  int gate_frames = 2;      ///< first frames the correctness gate replays
  std::string why;          ///< one-line rationale
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// Pixels-to-alert deadline of one frame.
inline constexpr double kDeadlineMs = 200.0;

/// Everything one measured phase records.
struct Measurement {
  std::vector<FrameOutcome> frames;  ///< one per offered frame, in order
  double wall_s = 0.0;
  double cpu_s = 0.0;                ///< process user + system time
  double pool_tasks = 0.0;           ///< ThreadPool::global() dispatches
  /// Open-loop release lag and per-frame queue wait (kStream).
  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;
  std::size_t queue_hwm = 0;
  std::size_t runtime_dropped = 0;
  std::size_t runtime_degraded = 0;
  /// Admission → dispatch per request, and mean batch size (kServe).
  std::vector<double> server_queue_ms;
  double mean_batch = 0.0;
  std::vector<double> model_mean_batch;  ///< per model (kServe)
  std::size_t decoded = 0;               ///< MiniYolo::decode candidates
  std::size_t kept = 0;                  ///< detections after top-1
  VipState vip;

  std::vector<double> latencies() const;
};

/// Runs the workload for `seconds` on prepared engines.
Measurement measure(const WorkloadSpec& spec, Engines& engines,
                    const Inputs& inputs, double seconds);

}  // namespace perfbench
