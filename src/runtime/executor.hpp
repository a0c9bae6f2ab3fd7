// Inference executors.
//
// Two implementations behind one interface: HostExecutor runs the real
// CPU engine and measures wall-clock time; SimulatedExecutor draws
// latencies from the device model — the paper's benchmark loop over
// ~1,000 frames is driven through either.
//
// Executors process one frame at a time through `run()`, which carries
// frame identity in and a structured result (latency, status, optional
// payload) out. A single executor instance must only be driven from one
// thread at a time; the streaming runtime assigns each stage its own
// worker accordingly.
#pragma once

#include <memory>
#include <string>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "devsim/simulator.hpp"
#include "nn/engine.hpp"

namespace ocb {
class Image;
}

namespace ocb::runtime {

/// Identity of the frame an executor is asked to process.
struct FrameContext {
  int index = 0;              ///< frame number within the stream
  double timestamp_ms = 0.0;  ///< capture time on the stream clock
  const Image* image = nullptr;  ///< pixels, when the source provides them
};

enum class StageStatus {
  kOk,        ///< processed normally
  kDegraded,  ///< processed, but the stage is in a degraded state
  kSkipped,   ///< bypassed (degraded stage cooling down)
};

/// Outcome of one executor invocation.
struct FrameResult {
  double latency_ms = 0.0;
  std::string stage;  ///< name of the executor that produced this
  StageStatus status = StageStatus::kOk;
  /// Optional stage output (e.g. the raw output tensors) for consumers
  /// downstream of the benchmark loop.
  std::shared_ptr<void> payload;
};

class Executor {
 public:
  virtual ~Executor() = default;
  /// Execute one inference for `ctx` and report the structured result.
  virtual FrameResult run(const FrameContext& ctx) = 0;
  virtual const std::string& name() const noexcept = 0;

  /// Recovery probe the streaming pipeline runs before the first frame
  /// after a quarantined stage's cooldown (StreamConfig::quarantine_after):
  /// rebuild whatever internal state may be corrupt (re-verify weight
  /// panels, reload a model) and report whether the stage may run that
  /// frame. Default: stateless executors are always fit.
  virtual bool reload() { return true; }

  /// Transitional adapter for pre-streaming callers that only want the
  /// per-frame latency in ms.
  double infer_ms() { return run(FrameContext{}).latency_ms; }
};

/// Wall-clock execution of a real graph on the host CPU.
class HostExecutor final : public Executor {
 public:
  HostExecutor(const nn::Graph& graph, std::string name,
               std::uint64_t seed = 1);
  FrameResult run(const FrameContext& ctx) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  nn::Engine engine_;
  Tensor input_;
  std::string name_;
};

/// Latency simulation on a modelled device.
class SimulatedExecutor final : public Executor {
 public:
  SimulatedExecutor(nn::ModelProfile profile, devsim::DeviceSpec device,
                    std::uint64_t seed,
                    devsim::RooflineOptions options = {},
                    devsim::JitterModel jitter = {});
  FrameResult run(const FrameContext& ctx) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  nn::ModelProfile profile_;
  devsim::DeviceSpec device_;
  devsim::RooflineOptions options_;
  devsim::JitterModel jitter_;
  Rng rng_;
  double base_ms_;
  int frame_ = 0;
  std::string name_;
};

/// Run `frames` inferences and summarise the latencies.
Summary benchmark_executor(Executor& executor, int frames);

}  // namespace ocb::runtime
