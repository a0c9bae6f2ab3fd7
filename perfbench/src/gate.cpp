#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {
namespace {

using namespace ocb;

/// Check 2 tolerances: box corners in frame pixels, and confidence.
/// A detection the other path lacks is tolerated only when its
/// confidence sits this close to the threshold.
constexpr float kBoxTolerancePx = 0.05f;
constexpr float kConfTolerance = 1e-3f;

/// max|a - b| / max|b| over all outputs (absolute when b is all zero);
/// infinity on a shape mismatch.
double rel_error(const std::vector<Tensor>& got, const std::vector<Tensor>& want) {
  if (got.size() != want.size()) return INFINITY;
  double diff = 0.0, scale = 0.0;
  for (std::size_t t = 0; t < got.size(); ++t) {
    if (got[t].shape() != want[t].shape()) return INFINITY;
    const float* a = got[t].data();
    const float* b = want[t].data();
    for (std::size_t i = 0; i < got[t].numel(); ++i) {
      const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
      diff = std::isnan(d) ? INFINITY : std::max(diff, d);
      scale = std::max(scale, std::fabs(static_cast<double>(b[i])));
    }
  }
  return scale > 0.0 ? diff / scale : diff;
}

bool near_threshold(const Detection& d) {
  return std::fabs(d.confidence - kDetectorConfidence) <= kConfTolerance;
}

bool same_detections(const std::vector<Detection>& a,
                     const std::vector<Detection>& b) {
  if (a.size() != b.size()) {
    const auto& longer = a.size() > b.size() ? a : b;
    return longer.size() == 1 && near_threshold(longer[0]);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Box& x = a[i].box;
    const Box& y = b[i].box;
    const float box_err = std::max({std::fabs(x.x0 - y.x0), std::fabs(x.y0 - y.y0),
                                    std::fabs(x.x1 - y.x1), std::fabs(x.y1 - y.y1)});
    if (box_err > kBoxTolerancePx ||
        std::fabs(a[i].confidence - b[i].confidence) > kConfTolerance)
      return false;
  }
  return true;
}

void check_engines(const WorkloadSpec& spec, Engines& engines,
                   const Inputs& inputs, GateResult& g) {
  std::vector<ModelInputs> first(static_cast<std::size_t>(spec.gate_frames));
  for (int f = 0; f < spec.gate_frames; ++f) {
    const Image& image = pool_frame(inputs, f).image;
    prepare_detector_inputs(image, engines, f, first[static_cast<std::size_t>(f)]);
    prepare_pose_input(image, engines, f, first[static_cast<std::size_t>(f)]);
    prepare_depth_input(image, engines, f, first[static_cast<std::size_t>(f)]);
  }
  for (int model = 0; model < kModelCount; ++model) {
    nn::Engine reference(build_graph(model, *inputs.detector, spec.scale),
                         engine_seed(model));
    if (model == kMiniYolo) inputs.detector->export_weights(reference);
    std::vector<std::vector<Tensor>> want;
    std::vector<Tensor> batch;
    double worst = 0.0;
    for (const ModelInputs& in : first) {
      const Tensor& x = in.tensors[static_cast<std::size_t>(model)];
      want.push_back(reference.run(x));
      worst = std::max(worst, rel_error(engines.at(model).run(x), want.back()));
      batch.push_back(x);
    }
    if (engines.at(model).max_batch() > 1) {
      const auto outs = engines.at(model).run_batch(batch);
      for (std::size_t f = 0; f < outs.size(); ++f)
        worst = std::max(worst, rel_error(outs[f], want[f]));
    }
    g.worst_rel_err = std::max(g.worst_rel_err, worst);
    if (!(worst <= kRelTolerance)) {
      std::ostringstream msg;
      msg << model_key(model) << ": production plan differs from the "
          << "default plan by " << worst << " (relative, limit "
          << kRelTolerance << ")";
      g.failures.push_back(msg.str());
      for (int f = 0; f < spec.gate_frames; ++f) g.failed_frames.push_back(f);
    }
  }
}

void check_detector(Engines& engines, const Inputs& inputs,
                    const Measurement& m, GateResult& g) {
  const int shown = static_cast<int>(
      std::min(inputs.pool.size(), m.frames.size()));
  for (int p = 0; p < shown; ++p) {
    const Image& image = inputs.pool[static_cast<std::size_t>(p)].image;
    ModelInputs in;
    prepare_detector_inputs(image, engines, p, in);
    const std::vector<Tensor>& mini =
        run_model(engines, kMiniYolo, in.tensors[kMiniYolo], p);
    const DetectResult engine_path =
        post_detect(*inputs.detector, mini[0], in.mini_box, {}, image.width(),
                    image.height(), p);
    const std::vector<Detection> autograd_path =
        inputs.detector->detect(image, kDetectorConfidence, true);
    ++g.detector_frames;
    if (same_detections(engine_path.kept, autograd_path)) continue;
    g.failures.push_back("MiniYolo engine detections differ from "
                         "MiniYolo::detect on pool frame " +
                         std::to_string(p));
    for (std::size_t i = static_cast<std::size_t>(p); i < m.frames.size();
         i += inputs.pool.size())
      g.failed_frames.push_back(static_cast<int>(i));
  }
}

void check_alert_replay(Engines& engines, const Inputs& inputs,
                        const Measurement& m, GateResult& g) {
  for (const FrameOutcome& f : m.frames)
    if (!f.completed) return;  // the replay is defined for lossless runs
  g.alerts_replayed = true;
  VipState replay;
  ModelInputs in;
  for (int i = 0; i < static_cast<int>(m.frames.size()); ++i) {
    const PoolFrame& frame = pool_frame(inputs, i);
    prepare_detector_inputs(frame.image, engines, i, in);
    const std::vector<Tensor>& mini =
        run_model(engines, kMiniYolo, in.tensors[kMiniYolo], i);
    const DetectResult det =
        post_detect(*inputs.detector, mini[0], in.mini_box, {},
                    frame.image.width(), frame.image.height(), i);
    replay.step(inputs.svm, frame, det.kept, frame_time_s(i), i);
  }
  const std::vector<AlertRecord>& got = m.vip.alerts();
  const std::vector<AlertRecord>& want = replay.alerts();
  if (got == want) return;
  const auto [a, b] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  const int from = std::min(a != got.end() ? a->frame : std::numeric_limits<int>::max(),
                            b != want.end() ? b->frame : std::numeric_limits<int>::max());
  g.failures.push_back("alert sequence differs from the single-threaded "
                       "replay from frame " + std::to_string(from));
  for (int i = from; i < static_cast<int>(m.frames.size()); ++i)
    g.failed_frames.push_back(i);
}

}  // namespace

GateResult run_gate(const WorkloadSpec& spec, Engines& engines,
                    const Inputs& inputs, const Measurement& m) {
  GateResult g;
  check_engines(spec, engines, inputs, g);
  check_detector(engines, inputs, m, g);
  if (spec.mode == Mode::kStream) check_alert_replay(engines, inputs, m, g);
  return g;
}

}  // namespace perfbench
