#include "runtime/health_gate.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace ocb::runtime {

HealthGate::HealthGate(int cooldown, int quarantine_after)
    : cooldown_(cooldown), quarantine_after_(quarantine_after) {
  OCB_CHECK_MSG(cooldown >= 0, "cooldown must be >= 0");
  OCB_CHECK_MSG(quarantine_after >= 0, "quarantine threshold must be >= 0");
}

HealthGate::Admit HealthGate::admit() noexcept {
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return Admit::kBypass;
  }
  return quarantined_ ? Admit::kProbe : Admit::kRun;
}

bool HealthGate::probe_result(bool reload_ok) {
  OCB_CHECK_MSG(quarantined_ && cooldown_left_ == 0,
                "probe_result without a pending probe");
  ++reloads_;
  quarantined_ = !reload_ok;
  probation_ = reload_ok;
  if (!reload_ok) cooldown_left_ = std::max(1, cooldown_);
  return reload_ok;
}

bool HealthGate::record(Run run) noexcept {
  bool quarantine_now = false;
  if (quarantine_after_ > 0) {
    if (!run.unhealthy) {
      strikes_ = 0;
    } else if (probation_ || ++strikes_ >= quarantine_after_) {
      // Enough consecutive strikes, or any strike on the first run
      // after a passed probe, quarantines.
      strikes_ = 0;
      quarantined_ = quarantine_now = true;
      ++quarantines_;
    }
    probation_ = false;
  }
  if (run.faulted || quarantine_now) cooldown_left_ = cooldown_;
  return run.faulted || (quarantine_after_ > 0 && run.unhealthy);
}

}  // namespace ocb::runtime
