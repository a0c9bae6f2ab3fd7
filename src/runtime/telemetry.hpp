// Per-stage telemetry for the streaming runtime.
//
// Each stage accumulates counters (frames in/out/dropped, degraded
// frames, watchdog timeouts, queue depth high-water mark) and a
// log-bucketed latency histogram; the pipeline folds them into a
// StreamReport with p50/p95/p99 per stage and end-to-end, rendered as
// an aligned text block or JSON for downstream tooling.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ocb::runtime {

/// Log-bucketed latency histogram (HDR-style): ~4% relative resolution
/// over [1 µs, ~3 min], constant memory, O(1) insert, percentile
/// queries by bucket interpolation. Not thread-safe — each recorder is
/// owned by exactly one thread while samples stream in.
class LatencyRecorder {
 public:
  void add(double ms) noexcept;

  std::size_t count() const noexcept { return count_; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0, 1]; 0 on an empty recorder.
  double percentile(double q) const noexcept;
  double p50() const noexcept { return percentile(0.50); }
  double p95() const noexcept { return percentile(0.95); }
  double p99() const noexcept { return percentile(0.99); }

  /// Fold another recorder's samples into this one.
  void merge(const LatencyRecorder& other) noexcept;

 private:
  static constexpr double kLoMs = 1e-3;     // 1 µs floor
  static constexpr double kGrowth = 1.04;   // ~4% bucket width
  static constexpr std::size_t kBuckets = 480;

  static std::size_t bucket_of(double ms) noexcept;
  static double bucket_mid(std::size_t i) noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One stage's view of a streaming run.
struct StageTelemetry {
  std::string name;
  std::uint64_t frames_in = 0;    ///< frames the worker dequeued
  std::uint64_t frames_out = 0;   ///< frames forwarded downstream
  std::uint64_t queue_dropped = 0;  ///< frames lost at this stage's input queue
  std::uint64_t degraded = 0;     ///< frames flagged/skipped while degraded
  std::uint64_t timeouts = 0;     ///< watchdog firings against this stage
  std::uint64_t quarantines = 0;  ///< health-strike quarantine entries
  std::uint64_t reloads = 0;      ///< executor reload() probes attempted
  std::size_t queue_high_water = 0;
  std::size_t queue_capacity = 0;
  LatencyRecorder latency;        ///< per-frame executor latency (ms)
};

/// JSON rendering shared by StreamReport and ServerReport.
void append_fixed(std::ostringstream& os, double v, int precision = 2);
void append_recorder_json(std::ostringstream& os, const char* key,
                          const LatencyRecorder& rec);
std::string escape_json(const std::string& s);

/// Whole-pipeline summary of a streaming run.
struct StreamReport {
  std::vector<StageTelemetry> stages;

  std::uint64_t frames_emitted = 0;    ///< frames the source produced
  std::uint64_t frames_completed = 0;  ///< frames that reached the sink
  std::uint64_t frames_dropped = 0;    ///< frames lost in queues
  std::uint64_t frames_degraded = 0;   ///< completed frames touched by a degraded stage
  std::uint64_t deadline_misses = 0;   ///< completed frames over the deadline
  double deadline_ms = 0.0;
  double wall_ms = 0.0;           ///< run duration on the stream clock
  double throughput_fps = 0.0;    ///< completed frames per stream second

  LatencyRecorder e2e_ms;      ///< source emit -> sink, queueing included
  LatencyRecorder service_ms;  ///< stage work only (sum or max per discipline)

  double deadline_miss_rate() const noexcept {
    return frames_completed
               ? static_cast<double>(deadline_misses) /
                     static_cast<double>(frames_completed)
               : 0.0;
  }
  double drop_rate() const noexcept {
    return frames_emitted ? static_cast<double>(frames_dropped) /
                                static_cast<double>(frames_emitted)
                          : 0.0;
  }

  /// Aligned human-readable report block.
  std::string to_text() const;
  /// Single JSON object (stages array + pipeline totals).
  std::string to_json() const;
};

}  // namespace ocb::runtime
