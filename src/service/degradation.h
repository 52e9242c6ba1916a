// The overload degradation ladder: the daemon's explicit answer to "what
// do we give up, in what order, when the arrival process misbehaves".
//
//   normal        -> everything admitted (fair shedding only when a shard
//                    is literally full)
//   shed-new      -> new arrivals from tenants over their fair share are
//                    shed at ingest
//   shed-queued   -> additionally, queued backlog of over-share tenants is
//                    trimmed back to fair share every maintenance tick
//   reject-tenant -> the most-over-share tenant is rejected outright until
//                    the ladder de-escalates
//   drain         -> terminal: nothing new is accepted, queues drain out
//
// The ladder is driven by two signals: queue utilization (aggregate queued
// records / capacity) and the pool watchdog's stall flag.  Escalation and
// de-escalation are hysteretic — each rung has an enter threshold and a
// strictly lower exit threshold (fixed, in degradation.cc), and both
// directions require the signal to hold for kUpHold / kDownHold
// consecutive samples — so a square-wave load whose period is shorter than
// the hold, or whose low phase sits inside the hysteresis band, cannot make
// the ladder oscillate.
//
// Deterministic and externally synchronized: on_sample is a pure function
// of the sample history; the TenantRouter calls it under its own lock.  No
// wall-clock, no randomness — campaigns replay bit-for-bit.
#pragma once

#include <cstdint>

namespace pjsched::service {

enum class Rung : std::uint8_t {
  kNormal = 0,
  kShedNew = 1,
  kShedQueued = 2,
  kRejectTenant = 3,
  kDrain = 4,
};

inline const char* to_string(Rung r) {
  switch (r) {
    case Rung::kNormal: return "normal";
    case Rung::kShedNew: return "shed-new";
    case Rung::kShedQueued: return "shed-queued";
    case Rung::kRejectTenant: return "reject-tenant";
    case Rung::kDrain: return "drain";
  }
  return "?";
}

class DegradationLadder {
 public:
  /// Consecutive samples at/above an enter threshold before escalating.
  static constexpr unsigned kUpHold = 2;
  /// Consecutive samples below the current rung's exit threshold before
  /// stepping down one rung (recovery is deliberately slower than attack).
  static constexpr unsigned kDownHold = 8;

  /// One evaluation.  `utilization` is the queue-depth signal in [0, 1]
  /// (values above 1 are clamped); `stalled` is the watchdog signal — a
  /// stalled sample escalates one rung immediately (a wedged pool is
  /// overload the depth signal cannot see), still subject to the normal
  /// hysteretic recovery on the way down.  Returns the rung after the
  /// sample.
  Rung on_sample(double utilization, bool stalled);

  /// Enters the terminal drain rung (shutdown); on_sample then always
  /// returns kDrain.
  void begin_drain() {
    if (rung_ != Rung::kDrain) ++transitions_;
    rung_ = Rung::kDrain;
  }

  Rung rung() const { return rung_; }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t samples() const { return samples_; }
  std::uint64_t stall_escalations() const { return stall_escalations_; }

 private:
  Rung rung_ = Rung::kNormal;
  unsigned up_streak_ = 0;
  unsigned down_streak_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t stall_escalations_ = 0;
};

}  // namespace pjsched::service
