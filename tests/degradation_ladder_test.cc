// State-transition tests for the overload degradation ladder
// (src/service/degradation.*): hysteresis bands, the fixed hold counts
// (kUpHold = 2, kDownHold = 8), stall escalation, the terminal drain rung —
// and the no-oscillation property under square-wave load that the
// hysteresis exists to provide.
#include "src/service/degradation.h"

#include <gtest/gtest.h>

#include <vector>

namespace pjsched::service {
namespace {

constexpr int kDownHold = static_cast<int>(DegradationLadder::kDownHold);

/// Feeds `n` identical samples; returns the final rung.
Rung feed(DegradationLadder& ladder, double u, int n, bool stalled = false) {
  Rung r = ladder.rung();
  for (int i = 0; i < n; ++i) r = ladder.on_sample(u, stalled);
  return r;
}

TEST(DegradationLadder, EscalatesOnlyAfterUpHold) {
  DegradationLadder ladder;
  EXPECT_EQ(ladder.rung(), Rung::kNormal);
  // One sample above the enter threshold is not enough (kUpHold = 2)...
  EXPECT_EQ(ladder.on_sample(0.75, false), Rung::kNormal);
  // ...a dip resets the streak...
  EXPECT_EQ(ladder.on_sample(0.10, false), Rung::kNormal);
  EXPECT_EQ(ladder.on_sample(0.75, false), Rung::kNormal);
  // ...and two consecutive do it.
  EXPECT_EQ(ladder.on_sample(0.75, false), Rung::kShedNew);
}

TEST(DegradationLadder, SpikeJumpsStraightToIndicatedRung) {
  DegradationLadder ladder;
  // Utilization pinned at 0.99 indicates reject-tenant; after the up-hold
  // the ladder goes there directly instead of laddering through shed-new
  // and shed-queued one hold at a time.
  EXPECT_EQ(feed(ladder, 0.99, 2), Rung::kRejectTenant);
  EXPECT_EQ(ladder.transitions(), 1u);
}

TEST(DegradationLadder, RecoveryStepsDownOneRungAtATime) {
  DegradationLadder ladder;
  feed(ladder, 0.99, 2);
  ASSERT_EQ(ladder.rung(), Rung::kRejectTenant);
  // Fully idle: each kDownHold streak sheds exactly one rung, and one
  // sample fewer sheds none.
  EXPECT_EQ(feed(ladder, 0.0, kDownHold - 1), Rung::kRejectTenant);
  EXPECT_EQ(feed(ladder, 0.0, 1), Rung::kShedQueued);
  EXPECT_EQ(feed(ladder, 0.0, kDownHold), Rung::kShedNew);
  EXPECT_EQ(feed(ladder, 0.0, kDownHold), Rung::kNormal);
  EXPECT_EQ(feed(ladder, 0.0, 50), Rung::kNormal);  // floor is stable
}

TEST(DegradationLadder, HysteresisBandHoldsPosition) {
  DegradationLadder ladder;
  feed(ladder, 0.75, 2);
  ASSERT_EQ(ladder.rung(), Rung::kShedNew);
  // 0.50 is below shed-new's enter (0.70) but above its exit (0.45):
  // inside the band the ladder neither escalates nor recovers, ever.
  EXPECT_EQ(feed(ladder, 0.50, 1000), Rung::kShedNew);
  EXPECT_EQ(ladder.transitions(), 1u);
}

TEST(DegradationLadder, SquareWaveLoadDoesNotOscillate) {
  // A square wave alternating each sample between "over enter" and "inside
  // the band" can never complete an up_hold or down_hold streak, so after
  // the initial escalation the rung must stay put: transitions() stays 1
  // across thousands of samples.
  DegradationLadder ladder;
  feed(ladder, 0.75, 2);
  ASSERT_EQ(ladder.rung(), Rung::kShedNew);
  for (int i = 0; i < 5000; ++i)
    ladder.on_sample(i % 2 == 0 ? 0.75 : 0.50, false);
  EXPECT_EQ(ladder.rung(), Rung::kShedNew);
  EXPECT_EQ(ladder.transitions(), 1u);

  // Even a wave whose low phase dips below exit cannot flap if that phase
  // is shorter than the hold: kDownHold - 1 lows, then one high, repeated.
  DegradationLadder wave;
  feed(wave, 0.75, 2);
  std::vector<Rung> seen;
  for (int i = 0; i < 4000; ++i) {
    const double u = i % kDownHold == kDownHold - 1 ? 0.75 : 0.10;
    seen.push_back(wave.on_sample(u, false));
  }
  for (Rung r : seen) EXPECT_EQ(r, Rung::kShedNew);
  EXPECT_EQ(wave.transitions(), 1u);
}

TEST(DegradationLadder, StallEscalatesImmediatelyAndCapsBelowDrain) {
  DegradationLadder ladder;
  // No utilization pressure at all: the watchdog alone drives it up, one
  // rung per stalled sample, capped at reject-tenant (drain is shutdown's
  // decision, not the watchdog's).
  EXPECT_EQ(ladder.on_sample(0.0, true), Rung::kShedNew);
  EXPECT_EQ(ladder.on_sample(0.0, true), Rung::kShedQueued);
  EXPECT_EQ(ladder.on_sample(0.0, true), Rung::kRejectTenant);
  EXPECT_EQ(ladder.on_sample(0.0, true), Rung::kRejectTenant);
  EXPECT_EQ(ladder.stall_escalations(), 4u);
  // Recovery still hysteretic afterwards.
  EXPECT_EQ(feed(ladder, 0.0, kDownHold - 1), Rung::kRejectTenant);
  EXPECT_EQ(feed(ladder, 0.0, 1), Rung::kShedQueued);
}

TEST(DegradationLadder, DrainIsTerminal) {
  DegradationLadder ladder;
  ladder.begin_drain();
  EXPECT_EQ(ladder.rung(), Rung::kDrain);
  EXPECT_EQ(feed(ladder, 0.0, 100), Rung::kDrain);
  EXPECT_EQ(feed(ladder, 1.0, 100, /*stalled=*/true), Rung::kDrain);
  ladder.begin_drain();  // idempotent
  EXPECT_EQ(ladder.rung(), Rung::kDrain);
}

TEST(DegradationLadder, UtilizationAboveOneIsClamped) {
  DegradationLadder ladder;
  EXPECT_EQ(feed(ladder, 42.0, 2), Rung::kRejectTenant);
}

}  // namespace
}  // namespace pjsched::service
