// The pixels-to-alert chain, one call per repository module boundary.
//
//   camera frame
//   → image:   letterbox / resize / normalise into each model's input
//   → nn:      Engine::run (or run_batch) on the production plan for
//              YOLOv11-n, the trained MiniYolo, trt_pose and Monodepth2
//   → detect:  MiniYolo::decode, filter_confidence, nms, top-1,
//              unletterbox_box (YOLOv11-n's untrained output is checked,
//              not decoded)
//   → vip:     VestTracker, ObstacleDetector, PlausibilityChecker,
//              FallSvm, AlertManager
//
// Every call into a module sits inside a Span named "<module>.<call>",
// so the traced run can attribute a frame's time to the layers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/letterbox.hpp"
#include "inputs.hpp"
#include "nn/engine.hpp"
#include "vip/alerts.hpp"
#include "vip/obstacle.hpp"
#include "vip/plausibility.hpp"
#include "vip/tracker.hpp"

namespace perfbench {

enum Model : int { kYolo11n = 0, kMiniYolo, kTrtPose, kMonodepth2 };
inline constexpr int kModelCount = 4;

/// Short key used in metric and span names ("yolo11n", ...).
const char* model_key(int model) noexcept;

/// Detector confidence of the VIP chain (vip::NavigatorConfig's).
inline constexpr float kDetectorConfidence = 0.45f;

/// fp32 with every FusionConfig flag on: the production plan.
ocb::nn::PlanRequest production_request(int max_batch);

/// Set-up counters of one Engines construction.
struct SetupReport {
  double prepare_s = 0.0;            ///< prepare() time, all engines
  std::uint64_t cache_hits = 0;      ///< PlanCache traffic of prepare()
  std::uint64_t cache_misses = 0;
  std::size_t arena_bytes = 0;       ///< sum of arena_peak_bytes_after
};

/// The chain's four engines, built, loaded and prepared.
class Engines {
 public:
  /// Builds the graphs at `scale` (MiniYolo keeps its trained input
  /// size), exports the detector's trained weights and prepares every
  /// engine with production_request(max_batch).
  Engines(const ocb::models::MiniYolo& detector, double scale, int max_batch);

  ocb::nn::Engine& at(int model) { return *engines_[model]; }
  const ocb::nn::Engine& at(int model) const { return *engines_[model]; }
  const SetupReport& setup() const noexcept { return setup_; }

 private:
  std::array<std::unique_ptr<ocb::nn::Engine>, kModelCount> engines_;
  SetupReport setup_;
};

/// Graph of one chain model at `scale`.
ocb::nn::Graph build_graph(int model, const ocb::models::MiniYolo& detector,
                           double scale);
/// Weight seed of one chain model's engine.
std::uint64_t engine_seed(int model) noexcept;

/// One frame's model inputs.
struct ModelInputs {
  std::array<ocb::Tensor, kModelCount> tensors;
  ocb::LetterboxInfo yolo_box;
  ocb::LetterboxInfo mini_box;
};

// --- image -----------------------------------------------------------
/// Letterboxes the frame into the YOLOv11-n and MiniYolo inputs.
void prepare_detector_inputs(const ocb::Image& frame, const Engines& engines,
                             int frame_id, ModelInputs& out);
/// Letterboxes and ImageNet-normalises the frame into trt_pose's input.
void prepare_pose_input(const ocb::Image& frame, const Engines& engines,
                        int frame_id, ModelInputs& out);
/// Resizes the frame into Monodepth2's input.
void prepare_depth_input(const ocb::Image& frame, const Engines& engines,
                         int frame_id, ModelInputs& out);

// --- nn --------------------------------------------------------------
const std::vector<ocb::Tensor>& run_model(Engines& engines, int model,
                                          const ocb::Tensor& input,
                                          int frame_id);

// --- detect ----------------------------------------------------------
struct DetectResult {
  std::vector<ocb::Detection> kept;  ///< top-1 vest, frame coordinates
  std::size_t decoded = 0;           ///< candidates MiniYolo::decode gave
  bool yolo_ok = true;               ///< YOLOv11-n output well formed
};

DetectResult post_detect(const ocb::models::MiniYolo& detector,
                         const ocb::Tensor& mini_logits,
                         const ocb::LetterboxInfo& mini_box,
                         const std::vector<ocb::Tensor>& yolo_outputs,
                         int frame_w, int frame_h, int frame_id);

// --- vip -------------------------------------------------------------
struct AlertRecord {
  int frame = 0;
  ocb::vip::AlertKind kind = ocb::vip::AlertKind::kVipLost;
  std::string message;
  bool operator==(const AlertRecord&) const = default;
};

/// Application state carried from frame to frame.
class VipState {
 public:
  /// One frame of the application layer; frames must arrive in order.
  void step(const ocb::vip::FallSvm& svm, const PoolFrame& oracle,
            const std::vector<ocb::Detection>& detections, double now_s,
            int frame_id);

  const std::vector<AlertRecord>& alerts() const noexcept { return log_; }
  std::size_t frames() const noexcept { return frames_; }
  std::size_t locked_frames() const noexcept { return locked_; }
  std::size_t implausible_frames() const noexcept { return implausible_; }
  std::size_t suppressed() const noexcept { return alerts_.suppressed(); }

 private:
  void raise(ocb::vip::AlertKind kind, const std::string& message,
             double now_s, int frame_id);

  ocb::vip::VestTracker tracker_;
  ocb::vip::AlertManager alerts_;
  ocb::vip::PlausibilityChecker plausibility_;
  bool was_locked_ = false;
  std::vector<AlertRecord> log_;
  std::size_t frames_ = 0;
  std::size_t locked_ = 0;
  std::size_t implausible_ = 0;
};

/// Whole chain for one frame, in order, on the calling thread.
DetectResult run_chain(Engines& engines, const Inputs& inputs, VipState& vip,
                       const ocb::Image& frame, int frame_id,
                       ModelInputs& scratch);

/// Timestamp of frame `frame_id` on the camera timeline, in seconds.
inline double frame_time_s(int frame_id) {
  return static_cast<double>(frame_id) / kVideoFps;
}

/// The pool frame (oracles included) that frame `frame_id` shows.
inline const PoolFrame& pool_frame(const Inputs& inputs, int frame_id) {
  return inputs.pool[static_cast<std::size_t>(frame_id) % inputs.pool.size()];
}

}  // namespace perfbench
