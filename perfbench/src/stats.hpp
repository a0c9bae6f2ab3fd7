// Statistics rules of the pixels-to-alert benchmark.
//
// Pure functions, so the benchmark's own tests (perfbench/tests) can pin
// each rule down:
//  * which percentiles a sample set may report,
//  * open-loop due-time accounting (a stall is charged to every frame
//    queued behind it, not only to the frame that stalled),
//  * how a frame's outcome counts towards frames_failed_pct.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(const std::vector<double>& values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Samples needed before a tail percentile is reported at all.
inline constexpr std::size_t kTailMinSamples = 200;
/// Samples that must lie beyond the reported tail percentile.
inline constexpr std::size_t kTailMinBeyond = 10;

/// The q-quantile of `values`, or nothing when fewer than
/// kTailMinSamples values were recorded or fewer than kTailMinBeyond of
/// them fall beyond the quantile's rank.
std::optional<double> tail_quantile(const std::vector<double>& values,
                                    double q);

/// Scheduled capture time of frame `index` in an open-loop feed that
/// starts at `origin_ms` and releases one frame every `period_ms`.
inline double due_ms(double origin_ms, double period_ms, int index) {
  return origin_ms + period_ms * static_cast<double>(index);
}

/// Open-loop latency: completion minus the frame's scheduled capture
/// time. Time spent queued behind a stalled frame is part of it.
inline double open_loop_latency_ms(double origin_ms, double period_ms,
                                   int index, double done_ms) {
  return done_ms - due_ms(origin_ms, period_ms, index);
}

/// What happened to one offered frame.
struct FrameOutcome {
  bool completed = false;     ///< reached the alert stage
  bool dropped = false;       ///< shed by a queue or admission control
  bool degraded = false;      ///< a stage was degraded or skipped for it
  bool check_failed = false;  ///< an output failed a correctness check
  double latency_ms = 0.0;    ///< pixels-to-alert, completed frames only
};

/// Failure accounting over all offered frames. A frame counts once in
/// `failed` however many reasons apply; dropped frames also count as
/// deadline misses (they never produce an alert in time).
struct FailureCount {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t degraded = 0;
  std::size_t deadline_missed = 0;
  std::size_t check_failed = 0;
  std::size_t failed = 0;       ///< any of the above
  std::size_t op_failed = 0;    ///< dropped, degraded or check failure
  double failed_pct() const noexcept {
    return offered ? 100.0 * static_cast<double>(failed) /
                         static_cast<double>(offered)
                   : 0.0;
  }
};

FailureCount count_failures(const std::vector<FrameOutcome>& frames,
                            double deadline_ms);

}  // namespace perfbench
