// Exhaustive model check of HealthGate (DESIGN.md §14), the one health
// state machine behind StreamingPipeline stages and ModelServer models.
//
// Every event sequence up to length 8 over {run ok, run unhealthy, run
// threw, run timed out, reload ok, reload fail} is driven through the
// gate exactly as both runtimes drive it — admit() until it stops
// bypassing, then probe_result() or record() — for every
// quarantine_after × cooldown in {0,1,2,3}². An event the gate did not
// ask for (a reload outcome when it says run, a run outcome when it
// says probe) changes nothing. A shadow derived from the events alone
// checks after every step:
//  * no kRun while quarantined without a passed probe since entry;
//  * consecutive kBypass <= max(1, cooldown): exactly `cooldown` after a
//    fault or quarantine, exactly max(1, cooldown) after a failed probe;
//  * strikes reset on a healthy run: quarantine comes exactly when
//    quarantine_after consecutive unhealthy runs accumulate, or on the
//    first unhealthy run after a passed probe;
//  * quarantine_after == 0 never probes and counts no quarantine or
//    reload;
//  * quarantines() and reloads() match the events.
#include "runtime/health_gate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

namespace ocb::runtime {
namespace {

using Admit = HealthGate::Admit;

enum class Event {
  kRunOk,
  kRunUnhealthy,
  kRunThrew,
  kRunTimedOut,
  kReloadOk,
  kReloadFail,
};

constexpr Event kEvents[] = {Event::kRunOk,      Event::kRunUnhealthy,
                             Event::kRunThrew,   Event::kRunTimedOut,
                             Event::kReloadOk,   Event::kReloadFail};
constexpr const char* kEventNames[] = {"ok", "unhealthy", "threw",
                                       "timeout", "reload-ok", "reload-fail"};
constexpr int kMaxLength = 8;

bool is_reload(Event e) {
  return e == Event::kReloadOk || e == Event::kReloadFail;
}

/// What the events alone say about the gate.
struct Shadow {
  bool benched = false;      ///< quarantined, no passed probe since
  bool fresh_probe = false;  ///< a probe passed, no run recorded since
  int unhealthy_streak = 0;  ///< since the last healthy run or quarantine
  int owed_bypasses = 0;     ///< set by the last fault/quarantine/failed probe
  std::uint64_t quarantine_count = 0;
  std::uint64_t reload_count = 0;
};

class ModelChecker {
 public:
  ModelChecker(int quarantine_after, int cooldown)
      : quarantine_after_(quarantine_after), cooldown_(cooldown) {}

  /// Walks every sequence; returns the first violation (empty if none).
  std::string run() {
    walk(HealthGate(cooldown_, quarantine_after_), Shadow{}, 0);
    return violation_;
  }
  std::uint64_t sequences() const { return sequences_; }

 private:
  void walk(const HealthGate& gate, const Shadow& shadow, int depth) {
    if (depth == kMaxLength || !violation_.empty()) return;
    for (Event e : kEvents) {
      trail_[depth] = e;
      HealthGate next_gate = gate;
      Shadow next_shadow = shadow;
      ++sequences_;
      if (!step(next_gate, next_shadow, e, depth + 1)) return;
      walk(next_gate, next_shadow, depth + 1);
    }
  }

  bool fail(const std::string& what, int length) {
    violation_ = "quarantine_after=" + std::to_string(quarantine_after_) +
                 " cooldown=" + std::to_string(cooldown_) + " after [";
    for (int i = 0; i < length; ++i)
      violation_ += std::string(i ? " " : "") +
                    kEventNames[static_cast<int>(trail_[i])];
    violation_ += "]: " + what;
    return false;
  }

  bool step(HealthGate& gate, Shadow& s, Event e, int length) {
    int bypasses = 0;
    Admit admit;
    while ((admit = gate.admit()) == Admit::kBypass) {
      if (++bypasses > std::max(1, cooldown_))
        return fail("more than max(1, cooldown) consecutive bypasses",
                    length);
    }
    if (bypasses != s.owed_bypasses)
      return fail("bypassed " + std::to_string(bypasses) + ", expected " +
                      std::to_string(s.owed_bypasses),
                  length);
    s.owed_bypasses = 0;

    if (admit == Admit::kProbe) {
      if (!s.benched) return fail("probe while not quarantined", length);
      if (is_reload(e)) {
        const bool ok = e == Event::kReloadOk;
        if (gate.probe_result(ok) != ok)
          return fail("probe_result did not echo the reload", length);
        ++s.reload_count;
        if (ok) {
          s.benched = false;
          s.fresh_probe = true;
        } else {
          s.owed_bypasses = std::max(1, cooldown_);
        }
      }
    } else {
      if (s.benched)
        return fail("kRun while quarantined without a passed probe", length);
      if (!is_reload(e)) {
        HealthGate::Run run;
        run.faulted = e == Event::kRunThrew || e == Event::kRunTimedOut;
        run.unhealthy = e == Event::kRunThrew || e == Event::kRunUnhealthy;
        const bool counted = gate.record(run);
        if (counted != (run.faulted ||
                        (quarantine_after_ > 0 && run.unhealthy)))
          return fail("record() verdict", length);
        bool quarantine = false;
        if (quarantine_after_ > 0) {
          if (!run.unhealthy) {
            s.unhealthy_streak = 0;
          } else if (s.fresh_probe ||
                     ++s.unhealthy_streak >= quarantine_after_) {
            quarantine = true;
            s.unhealthy_streak = 0;
            s.benched = true;
            ++s.quarantine_count;
          }
          s.fresh_probe = false;
        }
        if (run.faulted || quarantine) s.owed_bypasses = cooldown_;
      }
    }

    if (gate.quarantines() != s.quarantine_count)
      return fail("quarantines() = " + std::to_string(gate.quarantines()) +
                      ", events say " + std::to_string(s.quarantine_count),
                  length);
    if (gate.reloads() != s.reload_count)
      return fail("reloads() = " + std::to_string(gate.reloads()) +
                      ", events say " + std::to_string(s.reload_count),
                  length);
    if (quarantine_after_ == 0 &&
        (gate.quarantines() != 0 || gate.reloads() != 0))
      return fail("quarantine_after == 0 counted a quarantine or reload",
                  length);
    return true;
  }

  int quarantine_after_;
  int cooldown_;
  Event trail_[kMaxLength] = {};
  std::uint64_t sequences_ = 0;
  std::string violation_;
};

TEST(HealthGate, ExhaustiveModelCheck) {
  std::uint64_t total = 0;
  for (int quarantine_after = 0; quarantine_after <= 3; ++quarantine_after) {
    for (int cooldown = 0; cooldown <= 3; ++cooldown) {
      ModelChecker checker(quarantine_after, cooldown);
      const std::string violation = checker.run();
      EXPECT_TRUE(violation.empty()) << violation;
      total += checker.sequences();
    }
  }
  // sum of 6^k for k = 1..8, per configuration
  EXPECT_EQ(total, 16u * 2015538u);
  std::printf("HealthGate model check: %llu event sequences (length <= %d, "
              "16 configurations)\n",
              static_cast<unsigned long long>(total), kMaxLength);
}

TEST(HealthGate, QuarantineProbeCycle) {
  // quarantine_after = 2, cooldown = 2: two strikes quarantine; two
  // bypasses; a failed probe bypasses max(1, cooldown) more; a passed
  // probe re-admits; a strike on the first run after it re-quarantines.
  HealthGate gate(2, 2);
  EXPECT_EQ(gate.admit(), Admit::kRun);
  EXPECT_TRUE(gate.record({false, true}));   // strike 1
  EXPECT_EQ(gate.admit(), Admit::kRun);
  EXPECT_FALSE(gate.record({false, false})); // healthy: strikes reset
  EXPECT_EQ(gate.admit(), Admit::kRun);
  EXPECT_TRUE(gate.record({false, true}));   // strike 1 again
  EXPECT_EQ(gate.admit(), Admit::kRun);
  EXPECT_TRUE(gate.record({false, true}));   // strike 2: quarantined
  EXPECT_EQ(gate.quarantines(), 1u);
  EXPECT_EQ(gate.admit(), Admit::kBypass);
  EXPECT_EQ(gate.admit(), Admit::kBypass);
  EXPECT_EQ(gate.admit(), Admit::kProbe);
  EXPECT_FALSE(gate.probe_result(false));    // failed: bypass again
  EXPECT_EQ(gate.admit(), Admit::kBypass);
  EXPECT_EQ(gate.admit(), Admit::kBypass);
  EXPECT_EQ(gate.admit(), Admit::kProbe);
  EXPECT_TRUE(gate.probe_result(true));
  EXPECT_EQ(gate.reloads(), 2u);
  EXPECT_EQ(gate.quarantines(), 1u);         // a failed probe is no new entry
  EXPECT_TRUE(gate.record({false, true}));   // unhealthy on probation
  EXPECT_EQ(gate.quarantines(), 2u);
  EXPECT_EQ(gate.admit(), Admit::kBypass);
}

TEST(HealthGate, QuarantineOffOnlyBenchesFaults) {
  HealthGate gate(1, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.admit(), Admit::kRun);
    EXPECT_FALSE(gate.record({false, true}));  // reported kDegraded passes
  }
  EXPECT_TRUE(gate.record({true, false}));     // timeout
  EXPECT_EQ(gate.admit(), Admit::kBypass);
  EXPECT_EQ(gate.admit(), Admit::kRun);
  EXPECT_EQ(gate.quarantines(), 0u);
  EXPECT_EQ(gate.reloads(), 0u);
}

TEST(HealthGate, RejectsNegativeKnobs) {
  EXPECT_ANY_THROW(HealthGate(-1, 0));
  EXPECT_ANY_THROW(HealthGate(0, -1));
}

}  // namespace
}  // namespace ocb::runtime
