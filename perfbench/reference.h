// Pinned outputs of the default seed (kDefaultSeed in bench.h).  Every
// value here is deterministic: a speed-only change to the program must
// reproduce them bit for bit, a policy change moves them on purpose.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

struct SimReference {
  double max_flow_ms;
  std::uint32_t argmax;
  double bound_ms;
  std::uint64_t steal_attempts;
  std::uint64_t steal_success;
  std::uint64_t admissions;
  std::uint64_t macro_jumps;
  std::uint64_t decision_points;
  std::uint64_t fast_decisions;
  std::uint64_t arena_slots;
  std::uint64_t peak_live_jobs;
  std::uint64_t trace_intervals;

  bool operator==(const SimReference&) const = default;
};

/// The initializer that pins `r`, for re-pinning after a policy change.
inline std::string to_string(const SimReference& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{%.17g, %u, %.17g, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu}",
                r.max_flow_ms, r.argmax, r.bound_ms,
                static_cast<unsigned long long>(r.steal_attempts),
                static_cast<unsigned long long>(r.steal_success),
                static_cast<unsigned long long>(r.admissions),
                static_cast<unsigned long long>(r.macro_jumps),
                static_cast<unsigned long long>(r.decision_points),
                static_cast<unsigned long long>(r.fast_decisions),
                static_cast<unsigned long long>(r.arena_slots),
                static_cast<unsigned long long>(r.peak_live_jobs),
                static_cast<unsigned long long>(r.trace_intervals));
  return buf;
}

/// replay-steal16 at --seconds `seconds`: the step engine's steal-16-first
/// schedule and BWF's weighted schedule of the replayed instance on the
/// pool's two workers (times in open-loop wall ms), and the former's p99
/// flow.
struct ReplayReference {
  int seconds;
  SimReference steal;
  SimReference bwf;
  double model_p99_ms;
};
inline constexpr ReplayReference kReplayReference{
    10,
    {18.166595366916617, 2163, 18.00786504849512, 141982, 69184, 4540, 128934,
     0, 0, 18, 18, 0},
    {778.72499870863555, 2163, 656, 0, 0, 0, 0, 97616, 97616, 16, 16, 159715},
    10.270223062775365};

}  // namespace perfbench
