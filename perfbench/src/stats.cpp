#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "core/stats.hpp"

namespace perfbench {

double quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : ocb::percentile(values, q);
}

std::optional<double> tail_quantile(const std::vector<double>& values,
                                    double q) {
  const std::size_t n = values.size();
  if (n < kTailMinSamples) return std::nullopt;
  // Samples strictly above the quantile's rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  if (n - std::min(rank, n) < kTailMinBeyond) return std::nullopt;
  return quantile(values, q);
}

FailureCount count_failures(const std::vector<FrameOutcome>& frames,
                            double deadline_ms) {
  FailureCount c;
  c.offered = frames.size();
  for (const FrameOutcome& f : frames) {
    const bool late = !f.completed || f.latency_ms > deadline_ms;
    c.completed += f.completed;
    c.dropped += f.dropped;
    c.degraded += f.degraded;
    c.deadline_missed += late;
    c.check_failed += f.check_failed;
    const bool op = f.dropped || f.degraded || f.check_failed;
    c.op_failed += op;
    c.failed += op || late;
  }
  return c;
}

}  // namespace perfbench
