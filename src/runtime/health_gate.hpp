// The one health state machine (DESIGN.md §14): degrade → cooldown →
// probe → quarantine → reload → re-admit, driven by every streaming
// stage and every served model. Pure state — no locks, clocks, threads
// or I/O; each caller serialises its own access (the stage worker, or
// the server mutex). Call admit() before every frame or batch,
// probe_result() after the reload() a kProbe asked for, and record()
// after every real run.
#pragma once

#include <cstdint>
#include <exception>

namespace ocb::runtime {

class HealthGate {
 public:
  enum class Admit {
    kRun,     ///< run the model
    kBypass,  ///< skip it (consumes one cooldown slot)
    kProbe,   ///< quarantined: reload(), then report via probe_result()
  };

  /// What one real run did.
  struct Run {
    bool faulted = false;    ///< threw or timed out
    bool unhealthy = false;  ///< threw, reported kDegraded, or !healthy()
  };

  HealthGate() = default;  ///< never benches: a plain pass-through
  /// `cooldown`: bypasses after a fault or quarantine. `quarantine_after`:
  /// consecutive unhealthy runs that quarantine; 0 ignores health.
  HealthGate(int cooldown, int quarantine_after);

  Admit admit() noexcept;
  /// A passed probe re-admits; a failed one bypasses this frame or batch
  /// and starts a fresh cooldown of max(1, cooldown). Returns reload_ok.
  bool probe_result(bool reload_ok);
  /// Whether the run counted against the model: it faulted, or it was
  /// unhealthy with quarantine enabled.
  bool record(Run run) noexcept;

  std::uint64_t quarantines() const noexcept { return quarantines_; }
  std::uint64_t reloads() const noexcept { return reloads_; }

 private:
  int cooldown_ = 0;
  int quarantine_after_ = 0;
  int cooldown_left_ = 0;
  int strikes_ = 0;           ///< consecutive unhealthy runs
  bool quarantined_ = false;  ///< next admission is a reload probe
  bool probation_ = false;    ///< probe passed; no run recorded since
  std::uint64_t quarantines_ = 0;
  std::uint64_t reloads_ = 0;
};

/// `target.reload()` under the same fault isolation as a run: a
/// throwing reload is a failed probe, not a dead stage or worker.
template <typename Reloadable>
bool safe_reload(Reloadable& target) {
  try {
    return target.reload();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace ocb::runtime
