// The simulation engines' shared floating-point formulas, each at exactly
// one program point.
//
// Both engines promise bit-identical results against their reference paths
// (fast vs exact, streamed vs materialized — pinned by the cross-check
// tests), and those equivalences only hold while every flow/clock formula
// is evaluated by ONE expression.  A second inlined copy of a formula in an
// engine is a drift risk the moment either site is edited — two
// syntactically equal expressions can diverge by a single reassociation or
// a fused multiply-add.  The determinism audit
// (tools/analysis/determinism_audit.py, rule dup-fp-formula) enforces that
// the expressions below appear only in this header; -ffp-contract=off on
// the sim library (src/CMakeLists.txt) keeps the compiler from contracting
// them into FMA forms that round differently across targets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pjsched::sim {

/// Absolute tolerance for completion-coordinate and event-due comparisons.
/// One value for both engines: the step engine's boundary rounding and the
/// event engine's work-clock tolerance must agree for the cross-checks to
/// see the same completion sets.
inline constexpr double kSimEps = 1e-9;

/// Real time until the node with completion coordinate `coord` finishes,
/// given the virtual work clock at `W` advancing at speed `s` (event
/// engine; C = W + r keying is described at the top of event_engine.cc).
inline double completion_dt(double coord, double W, double s) {
  return (coord - W) / s;
}

/// True once completion coordinate `coord` is within tolerance of the work
/// clock `W` — the node is done.
inline bool coord_due(double coord, double W) {
  return coord - W <= kSimEps;
}

/// True once an event scheduled at real time `when` is due at sim clock
/// `t` (arrival admission, machine events).
inline bool event_due(double when, double t) { return when <= t + kSimEps; }

/// First step boundary at or after real time `t` with step length 1/s:
/// step T spans [T/s, (T+1)/s).  The epsilon forgives times that sit
/// exactly on a boundary but arrived through a rounded division.
inline std::uint64_t time_to_step(double t, double s) {
  return static_cast<std::uint64_t>(std::ceil(t * s - 1e-9));
}

/// Real time of step boundary `step` with step length 1/s (step engine:
/// interval endpoints and completion times).
inline double step_time(std::uint64_t step, double s) {
  return static_cast<double>(step) / s;
}

/// Fully-parallelizable relaxation of a job (paper Section 6): `work_units`
/// units of work become one sequential task of length W / m on a single
/// speed-1 machine (OPT is the 1-speed adversary).  Shared by the streamed
/// lower bounds (core/bounds) and the OPT comparator scheduler
/// (sched/opt_bound) so the two round identically — the stream-run tests
/// pin opt_sim == the OPT scheduler's max flow bit for bit.
inline double relaxed_job_length(double work_units, double m) {
  return work_units / m;
}

/// FIFO single-machine frontier advance over relaxed jobs (the simulated
/// OPT bound): the machine finishes its backlog at `frontier`, idles until
/// `arrival` if early, then runs the new job for `length`.
inline double fifo_frontier_advance(double frontier, double arrival,
                                    double length) {
  return std::max(frontier, arrival) + length;
}

}  // namespace pjsched::sim
