#include "src/service/degradation.h"

#include <algorithm>

namespace pjsched::service {

namespace {

// Enter/exit utilization thresholds per rung; each exit lies strictly
// below its enter (the hysteresis band).
constexpr double kShedNewEnter = 0.70;
constexpr double kShedNewExit = 0.45;
constexpr double kShedQueuedEnter = 0.85;
constexpr double kShedQueuedExit = 0.60;
constexpr double kRejectEnter = 0.95;
constexpr double kRejectExit = 0.70;

static_assert(kShedNewExit < kShedNewEnter &&
                  kShedQueuedExit < kShedQueuedEnter &&
                  kRejectExit < kRejectEnter &&
                  kShedNewEnter < kShedQueuedEnter &&
                  kShedQueuedEnter < kRejectEnter &&
                  kShedNewExit <= kShedQueuedExit &&
                  kShedQueuedExit <= kRejectExit,
              "each exit lies below its enter, and both rise with the rungs");

/// Highest rung whose enter threshold the utilization reaches.
Rung target_up(double u) {
  if (u >= kRejectEnter) return Rung::kRejectTenant;
  if (u >= kShedQueuedEnter) return Rung::kShedQueued;
  if (u >= kShedNewEnter) return Rung::kShedNew;
  return Rung::kNormal;
}

/// Highest rung whose *exit* threshold the utilization still sustains.
Rung target_down(double u) {
  if (u >= kRejectExit) return Rung::kRejectTenant;
  if (u >= kShedQueuedExit) return Rung::kShedQueued;
  if (u >= kShedNewExit) return Rung::kShedNew;
  return Rung::kNormal;
}

}  // namespace

Rung DegradationLadder::on_sample(double utilization, bool stalled) {
  ++samples_;
  if (rung_ == Rung::kDrain) return rung_;
  const double u = std::clamp(utilization, 0.0, 1.0);

  if (stalled) {
    // A wedged pool is unambiguous overload: escalate one rung now (capped
    // below drain) rather than waiting out the up-hold.  Recovery still
    // goes through the hysteretic down path once progress resumes.
    ++stall_escalations_;
    up_streak_ = down_streak_ = 0;
    if (rung_ < Rung::kRejectTenant) {
      rung_ = static_cast<Rung>(static_cast<std::uint8_t>(rung_) + 1);
      ++transitions_;
    }
    return rung_;
  }

  const Rung up = target_up(u);
  const Rung down = target_down(u);
  if (up > rung_) {
    down_streak_ = 0;
    if (++up_streak_ >= kUpHold) {
      // Jump straight to the indicated rung: a spike past two enter
      // thresholds should not serve a hold at every intermediate rung.
      rung_ = up;
      ++transitions_;
      up_streak_ = 0;
    }
  } else if (down < rung_) {
    up_streak_ = 0;
    if (++down_streak_ >= kDownHold) {
      // Step down one rung at a time: recovery re-earns each rung.
      rung_ = static_cast<Rung>(static_cast<std::uint8_t>(rung_) - 1);
      ++transitions_;
      down_streak_ = 0;
    }
  } else {
    // Inside the hysteresis band of the current rung: hold position.
    up_streak_ = down_streak_ = 0;
  }
  return rung_;
}

}  // namespace pjsched::service
