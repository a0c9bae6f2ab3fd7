#include "runtime/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace ocb::runtime {

std::size_t LatencyRecorder::bucket_of(double ms) noexcept {
  if (!(ms > kLoMs)) return 0;
  const double idx = std::log(ms / kLoMs) / std::log(kGrowth);
  const auto i = static_cast<std::size_t>(idx);
  return std::min(i, kBuckets - 1);
}

double LatencyRecorder::bucket_mid(std::size_t i) noexcept {
  // Geometric midpoint of [lo*g^i, lo*g^(i+1)).
  return kLoMs * std::pow(kGrowth, static_cast<double>(i) + 0.5);
}

void LatencyRecorder::add(double ms) noexcept {
  if (ms < 0.0) ms = 0.0;
  ++counts_[bucket_of(ms)];
  if (count_ == 0) {
    min_ = max_ = ms;
  } else {
    min_ = std::min(min_, ms);
    max_ = std::max(max_, ms);
  }
  sum_ += ms;
  ++count_;
}

double LatencyRecorder::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (static_cast<double>(seen) > target)
      return std::clamp(bucket_mid(i), min_, max_);
  }
  return max_;
}

void LatencyRecorder::merge(const LatencyRecorder& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

void append_fixed(std::ostringstream& os, double v, int precision) {
  os << std::fixed << std::setprecision(precision) << v;
}

void append_recorder_json(std::ostringstream& os, const char* key,
                          const LatencyRecorder& rec) {
  os << '"' << key << "\":{\"count\":" << rec.count() << ",\"mean_ms\":";
  append_fixed(os, rec.mean(), 3);
  os << ",\"p50_ms\":";
  append_fixed(os, rec.p50(), 3);
  os << ",\"p95_ms\":";
  append_fixed(os, rec.p95(), 3);
  os << ",\"p99_ms\":";
  append_fixed(os, rec.p99(), 3);
  os << ",\"max_ms\":";
  append_fixed(os, rec.max(), 3);
  os << '}';
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string StreamReport::to_text() const {
  std::ostringstream os;
  os << std::fixed;
  os << "pipeline: " << frames_completed << '/' << frames_emitted
     << " frames completed, " << frames_dropped << " dropped ("
     << std::setprecision(1) << drop_rate() * 100.0 << "%), "
     << deadline_misses << " late (deadline " << std::setprecision(1)
     << deadline_ms << " ms, miss rate " << std::setprecision(1)
     << deadline_miss_rate() * 100.0 << "%)\n";
  os << "          throughput " << std::setprecision(1) << throughput_fps
     << " fps over " << std::setprecision(0) << wall_ms << " ms; e2e p50/p95/p99 "
     << std::setprecision(1) << e2e_ms.p50() << '/' << e2e_ms.p95() << '/'
     << e2e_ms.p99() << " ms; service p50 " << std::setprecision(1)
     << service_ms.p50() << " ms\n";
  os << "  stage                        in     out    drop   degr  t/o  "
        "q-hwm     p50     p95     p99  (ms)\n";
  for (const StageTelemetry& s : stages) {
    os << "  " << std::left << std::setw(26) << s.name << std::right
       << std::setw(7) << s.frames_in << std::setw(8) << s.frames_out
       << std::setw(8) << s.queue_dropped << std::setw(7) << s.degraded
       << std::setw(5) << s.timeouts << std::setw(5) << s.queue_high_water
       << '/' << s.queue_capacity << std::setw(8) << std::setprecision(1)
       << s.latency.p50() << std::setw(8) << s.latency.p95() << std::setw(8)
       << s.latency.p99() << '\n';
  }
  return os.str();
}

std::string StreamReport::to_json() const {
  std::ostringstream os;
  os << "{\"frames_emitted\":" << frames_emitted
     << ",\"frames_completed\":" << frames_completed
     << ",\"frames_dropped\":" << frames_dropped
     << ",\"frames_degraded\":" << frames_degraded
     << ",\"deadline_misses\":" << deadline_misses << ",\"deadline_ms\":";
  append_fixed(os, deadline_ms, 3);
  os << ",\"deadline_miss_rate\":";
  append_fixed(os, deadline_miss_rate(), 4);
  os << ",\"wall_ms\":";
  append_fixed(os, wall_ms, 1);
  os << ",\"throughput_fps\":";
  append_fixed(os, throughput_fps, 2);
  os << ',';
  append_recorder_json(os, "e2e", e2e_ms);
  os << ',';
  append_recorder_json(os, "service", service_ms);
  os << ",\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageTelemetry& s = stages[i];
    if (i) os << ',';
    os << "{\"name\":\"" << escape_json(s.name)
       << "\",\"frames_in\":" << s.frames_in
       << ",\"frames_out\":" << s.frames_out
       << ",\"queue_dropped\":" << s.queue_dropped
       << ",\"degraded\":" << s.degraded << ",\"timeouts\":" << s.timeouts
       << ",\"quarantines\":" << s.quarantines << ",\"reloads\":" << s.reloads
       << ",\"queue_high_water\":" << s.queue_high_water
       << ",\"queue_capacity\":" << s.queue_capacity << ',';
    append_recorder_json(os, "latency", s.latency);
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace ocb::runtime
