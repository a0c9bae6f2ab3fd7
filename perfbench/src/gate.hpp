// Correctness gate, run after the measured phase (never timed).
//
//  1. Every engine's production-plan outputs on the first
//     WorkloadSpec::gate_frames frames match
//     the same graph and weights run under an unprepared engine's
//     default plan, within kRelTolerance of the reference's largest
//     magnitude (and run_batch matches too where the workload batches).
//  2. The MiniYolo engine path (letterbox → Engine::run → decode →
//     filter/NMS/top-1 → unletterbox) finds the same vest as
//     MiniYolo::detect, the independent autograd path, on every pool
//     frame the run showed.
//  3. Open-loop streaming only, when no frame was dropped: the alert
//     sequence equals a single-threaded replay of the same frames
//     through the alert path (MiniYolo engine, detect, vip).
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

inline constexpr double kRelTolerance = 1e-4;

struct GateResult {
  std::vector<std::string> failures;  ///< one line each; empty: passed
  std::vector<int> failed_frames;     ///< frames to count as check failures
  double worst_rel_err = 0.0;         ///< engine vs reference, all models
  int detector_frames = 0;            ///< pool frames compared in check 2
  bool alerts_replayed = false;       ///< check 3 ran
  bool ok() const noexcept { return failures.empty(); }
};

GateResult run_gate(const WorkloadSpec& spec, Engines& engines,
                    const Inputs& inputs, const Measurement& m);

}  // namespace perfbench
