#include "inputs.hpp"

#include <filesystem>
#include <utility>

#include "core/rng.hpp"
#include "dataset/generator.hpp"
#include "dataset/render.hpp"
#include "dataset/sampling.hpp"
#include "models/serialize.hpp"
#include "runtime/frame_source.hpp"
#include "trainer/detector_trainer.hpp"

namespace perfbench {
namespace {

using namespace ocb;

std::unique_ptr<models::MiniYolo> train_detector(std::uint64_t seed) {
  dataset::DatasetConfig dc;
  dc.scale = 0.006;
  dc.image_width = 128;
  dc.image_height = 96;
  dc.seed = hash_combine(seed, 1);
  const dataset::DatasetGenerator generator(dc);
  Rng rng(hash_combine(seed, 2));
  const dataset::SplitResult split =
      dataset::curated_split(generator, 0.5, rng);
  trainer::TrainConfig tc;
  tc.epochs = 20;
  tc.seed = hash_combine(seed, 3);
  const trainer::DetectorTrainer trainer(generator, tc);
  return std::make_unique<models::MiniYolo>(
      trainer.train(models::YoloFamily::kV11, models::YoloSize::kNano,
                    split.train, split.val));
}

vip::FallSvm train_fall_svm(std::uint64_t seed) {
  Rng rng(hash_combine(seed, 4));
  std::vector<vip::Pose> poses;
  std::vector<bool> fallen;
  for (int i = 0; i < 150; ++i) {
    poses.push_back(vip::sample_standing_pose(rng));
    fallen.push_back(false);
    poses.push_back(vip::sample_fallen_pose(rng));
    fallen.push_back(true);
  }
  vip::FallSvm svm;
  svm.train(poses, fallen, rng);
  return svm;
}

}  // namespace

Inputs generate_inputs(std::uint64_t seed, int width, int height,
                       int pool_frames, const std::string& cache_dir,
                       const std::string& cache_key) {
  Inputs in;

  dataset::VideoClip clip;
  clip.id = 0;
  clip.category = dataset::Category::kMixed;
  clip.seed = hash_combine(seed, 5);
  clip.extracted_frames = pool_frames;
  runtime::CameraSource camera(clip, width, height, kVideoFps,
                               hash_combine(seed, 6));
  while (std::optional<runtime::Frame> frame = camera.next()) {
    PoolFrame pf;
    pf.image = std::move(frame->image);
    pf.spec = frame->spec;
    pf.depth = dataset::render_depth(pf.spec, width, height);
    Rng pose_rng(hash_combine(seed, 7 + static_cast<std::uint64_t>(frame->index)));
    pf.pose = vip::sample_standing_pose(pose_rng);
    in.pool_bytes += (pf.image.size() + pf.depth.size()) * sizeof(float);
    in.pool.push_back(std::move(pf));
  }

  const std::filesystem::path path =
      std::filesystem::path(cache_dir) /
      ("miniyolo-v11n-" + cache_key + "-seed" + std::to_string(seed) + ".bin");
  if (!cache_dir.empty() && std::filesystem::exists(path)) {
    in.detector = std::make_unique<models::MiniYolo>(
        models::load_mini_yolo(path.string()));
    in.detector_from_cache = true;
  } else {
    in.detector = train_detector(seed);
    if (!cache_dir.empty()) {
      std::filesystem::create_directories(cache_dir);
      // Write then rename, so a concurrent reader never sees half a file.
      const std::filesystem::path tmp = path.string() + ".tmp";
      models::save_mini_yolo(*in.detector, tmp.string());
      std::filesystem::rename(tmp, path);
    }
  }
  in.svm = train_fall_svm(seed);
  return in;
}

}  // namespace perfbench
