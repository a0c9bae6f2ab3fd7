#include "chain.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "detect/nms.hpp"
#include "image/transform.hpp"
#include "models/registry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace ocb;

/// Candidates below this never reach the confidence filter; it keeps
/// decode's output (the denominator of detect.kept_ratio) bounded.
constexpr float kDecodeFloor = 0.05f;
/// MiniYolo::decode's own NMS threshold (single-scale grid).
constexpr float kNmsIou = 0.35f;

constexpr std::array<float, 3> kImagenetMean = {0.485f, 0.456f, 0.406f};
constexpr std::array<float, 3> kImagenetStd = {0.229f, 0.224f, 0.225f};

/// Copies a planar image into a (1, C, H, W) tensor, optionally
/// normalising each channel as (x - mean) / std.
void to_tensor(const Image& img, Tensor& out, bool imagenet) {
  const Shape shape{1, img.channels(), img.height(), img.width()};
  if (out.shape() != shape) out = Tensor(shape);
  const std::size_t plane =
      static_cast<std::size_t>(img.width()) * static_cast<std::size_t>(img.height());
  for (int c = 0; c < img.channels(); ++c) {
    const float* src = img.plane(c);
    float* dst = out.data() + static_cast<std::size_t>(c) * plane;
    if (!imagenet) {
      std::copy(src, src + plane, dst);
      continue;
    }
    const float mean = kImagenetMean[static_cast<std::size_t>(c % 3)];
    const float inv = 1.0f / kImagenetStd[static_cast<std::size_t>(c % 3)];
    for (std::size_t i = 0; i < plane; ++i) dst[i] = (src[i] - mean) * inv;
  }
}

/// True when the outputs are non-empty and every value is finite.
bool outputs_finite(const std::vector<Tensor>& outputs) {
  if (outputs.empty()) return false;
  for (const Tensor& t : outputs) {
    if (t.numel() == 0) return false;
    for (const float v : t.span())
      if (!std::isfinite(v)) return false;
  }
  return true;
}

const nn::FeatShape& input_shape(const Engines& engines, int model) {
  const nn::Graph& g = engines.at(model).graph();
  return g.shape(0);
}

}  // namespace

const char* model_key(int model) noexcept {
  switch (model) {
    case kYolo11n: return "yolo11n";
    case kMiniYolo: return "miniyolo";
    case kTrtPose: return "trt_pose";
    case kMonodepth2: return "monodepth2";
  }
  return "?";
}

nn::PlanRequest production_request(int max_batch) {
  nn::PlanRequest request;
  request.max_batch = max_batch;
  request.precision = nn::Precision::kFp32;
  request.fusion.fuse_residual = true;
  request.fusion.fuse_concat = true;
  request.fusion.plan_memory = true;
  return request;
}

std::uint64_t engine_seed(int model) noexcept {
  return 101 + static_cast<std::uint64_t>(model);
}

nn::Graph build_graph(int model, const models::MiniYolo& detector,
                      double scale) {
  switch (model) {
    case kYolo11n: return models::build_model(models::ModelId::kYoloV11n, scale);
    case kMiniYolo: return detector.export_graph();
    case kTrtPose: return models::build_model(models::ModelId::kTrtPose, scale);
    case kMonodepth2:
      return models::build_model(models::ModelId::kMonodepth2, scale);
  }
  throw Error("unknown chain model");
}

Engines::Engines(const models::MiniYolo& detector, double scale,
                 int max_batch) {
  const nn::PlanRequest request = production_request(max_batch);
  for (int m = 0; m < kModelCount; ++m) {
    engines_[m] = std::make_unique<nn::Engine>(build_graph(m, detector, scale),
                                               engine_seed(m));
    if (m == kMiniYolo) detector.export_weights(*engines_[m]);
    const auto t0 = std::chrono::steady_clock::now();
    const nn::ExecutionPlan& plan = engines_[m]->prepare(request);
    setup_.prepare_s += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    setup_.cache_hits += plan.cache_hits;
    setup_.cache_misses += plan.cache_misses;
    setup_.arena_bytes += plan.arena_peak_bytes_after;
  }
}

void prepare_detector_inputs(const Image& frame, const Engines& engines,
                             int frame_id, ModelInputs& out) {
  {
    Span span("image.letterbox.yolo11n", frame_id);
    const Image boxed =
        letterbox(frame, input_shape(engines, kYolo11n).h, out.yolo_box);
    to_tensor(boxed, out.tensors[kYolo11n], false);
  }
  Span span("image.letterbox.miniyolo", frame_id);
  const Image boxed =
      letterbox(frame, input_shape(engines, kMiniYolo).h, out.mini_box);
  to_tensor(boxed, out.tensors[kMiniYolo], false);
}

void prepare_pose_input(const Image& frame, const Engines& engines,
                        int frame_id, ModelInputs& out) {
  Span span("image.letterbox.trt_pose", frame_id);
  LetterboxInfo info;
  const Image boxed = letterbox(frame, input_shape(engines, kTrtPose).h, info);
  to_tensor(boxed, out.tensors[kTrtPose], true);
}

void prepare_depth_input(const Image& frame, const Engines& engines,
                         int frame_id, ModelInputs& out) {
  Span span("image.resize.monodepth2", frame_id);
  const nn::FeatShape& s = input_shape(engines, kMonodepth2);
  const Image resized = resize_bilinear(frame, s.w, s.h);
  to_tensor(resized, out.tensors[kMonodepth2], false);
}

const std::vector<Tensor>& run_model(Engines& engines, int model,
                                     const Tensor& input, int frame_id) {
  static constexpr std::array<const char*, kModelCount> kSpan = {
      "nn.run.yolo11n", "nn.run.miniyolo", "nn.run.trt_pose",
      "nn.run.monodepth2"};
  Span span(kSpan[static_cast<std::size_t>(model)], frame_id);
  return engines.at(model).run(input);
}

DetectResult post_detect(const models::MiniYolo& detector,
                         const Tensor& mini_logits,
                         const LetterboxInfo& mini_box,
                         const std::vector<Tensor>& yolo_outputs,
                         int frame_w, int frame_h, int frame_id) {
  DetectResult r;
  {
    Span span("bench.check_yolo11n", frame_id);
    r.yolo_ok = outputs_finite(yolo_outputs);
  }
  std::vector<Detection> dets;
  {
    Span span("detect.decode", frame_id);
    dets = detector.decode(mini_logits, 0, kDecodeFloor);
  }
  r.decoded = dets.size();
  {
    Span span("detect.filter_confidence", frame_id);
    dets = filter_confidence(std::move(dets), kDetectorConfidence);
  }
  {
    Span span("detect.nms", frame_id);
    dets = nms(std::move(dets), kNmsIou);
  }
  {
    Span span("detect.top1", frame_id);
    if (dets.size() > 1) {
      const int best = argmax_confidence(dets);
      dets = {dets[static_cast<std::size_t>(best)]};
    }
  }
  {
    Span span("detect.unletterbox", frame_id);
    for (Detection& d : dets)
      d.box = unletterbox_box(d.box, mini_box)
                  .clipped(static_cast<float>(frame_w),
                           static_cast<float>(frame_h));
  }
  r.kept = std::move(dets);
  return r;
}

void VipState::raise(vip::AlertKind kind, const std::string& message,
                     double now_s, int frame_id) {
  bool emitted = false;
  {
    Span span("vip.alerts", frame_id);
    emitted = alerts_.raise(kind, message, now_s);
  }
  if (emitted) log_.push_back({frame_id, kind, message});
}

void VipState::step(const vip::FallSvm& svm, const PoolFrame& oracle,
                    const std::vector<Detection>& detections, double now_s,
                    int frame_id) {
  ++frames_;
  vip::TrackState track;
  {
    Span span("vip.tracker", frame_id);
    track = tracker_.update(detections);
  }
  if (track.locked) ++locked_;
  if (was_locked_ && !track.locked)
    raise(vip::AlertKind::kVipLost, "lost sight of the VIP", now_s, frame_id);
  if (!was_locked_ && track.locked)
    raise(vip::AlertKind::kVipReacquired, "VIP reacquired", now_s, frame_id);
  was_locked_ = track.locked;
  if (track.locked && track.confidence < 0.55f)
    raise(vip::AlertKind::kLowConfidence, "detection confidence low", now_s,
          frame_id);

  vip::ObstacleConfig obstacle_cfg;
  obstacle_cfg.vip_distance_m = oracle.spec.vip_distance;
  const vip::ObstacleDetector obstacle(obstacle_cfg);
  std::vector<vip::SectorReading> sectors;
  {
    Span span("vip.obstacle", frame_id);
    sectors = obstacle.analyse(oracle.depth);
  }
  {
    Span span("vip.plausibility", frame_id);
    if (!plausibility_.check(detections, oracle.depth, sectors).plausible())
      ++implausible_;
  }
  for (const vip::SectorReading& s : sectors) {
    if (!s.alert) continue;
    std::ostringstream msg;
    msg << "obstacle " << obstacle.sector_name(s.sector) << " at "
        << s.nearest_m << " m";
    raise(vip::AlertKind::kObstacle, msg.str(), now_s, frame_id);
  }
  bool fallen = false;
  {
    Span span("vip.fall_svm", frame_id);
    fallen = svm.is_fallen(oracle.pose);
  }
  if (fallen)
    raise(vip::AlertKind::kFallDetected, "VIP fall detected!", now_s,
          frame_id);
}

DetectResult run_chain(Engines& engines, const Inputs& inputs, VipState& vip,
                       const Image& frame, int frame_id,
                       ModelInputs& scratch) {
  prepare_detector_inputs(frame, engines, frame_id, scratch);
  prepare_pose_input(frame, engines, frame_id, scratch);
  prepare_depth_input(frame, engines, frame_id, scratch);

  // Output views alias each engine's own storage, so both stay valid
  // until that engine runs again.
  const std::vector<Tensor>& yolo =
      run_model(engines, kYolo11n, scratch.tensors[kYolo11n], frame_id);
  const std::vector<Tensor>& mini =
      run_model(engines, kMiniYolo, scratch.tensors[kMiniYolo], frame_id);
  const DetectResult det =
      post_detect(*inputs.detector, mini[0], scratch.mini_box, yolo,
                  frame.width(), frame.height(), frame_id);
  run_model(engines, kTrtPose, scratch.tensors[kTrtPose], frame_id);
  run_model(engines, kMonodepth2, scratch.tensors[kMonodepth2], frame_id);

  vip.step(inputs.svm, pool_frame(inputs, frame_id), det.kept,
           frame_time_s(frame_id), frame_id);
  return det;
}

}  // namespace perfbench
