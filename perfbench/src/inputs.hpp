// Input generation: everything the benchmark derives from --seed before
// any timer starts. A pool of camera frames rendered by CameraSource
// (with the scene oracles that stand in for pose and depth semantics),
// the trained MiniYolo vest detector and the trained fall SVM.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/scene.hpp"
#include "image/image.hpp"
#include "models/mini_yolo.hpp"
#include "vip/fall_svm.hpp"

namespace perfbench {

/// Camera frame rate of every workload's frame timeline (the paper's
/// extracted-frame rate).
inline constexpr double kVideoFps = 10.0;

struct PoolFrame {
  ocb::Image image;              ///< rendered camera pixels
  ocb::dataset::SceneSpec spec;  ///< ground truth of the scene
  /// Oracles, as in vip::Navigator: metric depth at frame resolution
  /// (Monodepth2's meaning) and a standing pose (trt_pose's meaning).
  ocb::Image depth;
  ocb::vip::Pose pose;
};

struct Inputs {
  std::vector<PoolFrame> pool;
  std::unique_ptr<ocb::models::MiniYolo> detector;
  ocb::vip::FallSvm svm;
  std::size_t pool_bytes = 0;  ///< memory held by the frame pool
  bool detector_from_cache = false;
};

/// Renders `pool_frames` frames of one clip at `width`×`height` and
/// trains (or loads from `cache_dir`, keyed by seed and `cache_key`)
/// the detector and the fall SVM. Pure function of its arguments.
Inputs generate_inputs(std::uint64_t seed, int width, int height,
                       int pool_frames, const std::string& cache_dir,
                       const std::string& cache_key);

}  // namespace perfbench
