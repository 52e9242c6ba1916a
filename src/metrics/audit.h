// Schedule auditing: replays an execution trace against the instance and
// the machine model and verifies every invariant a legal schedule must
// satisfy.  Used by the test suite to validate both simulation engines on
// every property-test instance.
//
// Checks performed:
//   1. Interval sanity: start < end, processor/job/node ids in range.
//   2. No processor runs two nodes at once.
//   3. No node runs on two processors at once (it may migrate after a
//      preemption, but never overlaps itself).
//   4. Each node receives exactly its processing time of work:
//      sum of (end - start) * speed == work (within tolerance).
//   5. Precedence: a node never starts before all its predecessors' last
//      intervals end.
//   6. Non-clairvoyance of arrivals: no node of a job runs before the job
//      arrives.
//   7. Completion bookkeeping: there is one reported completion time per
//      job, and each equals the end of its job's last interval (within
//      tolerance).
#pragma once

#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/sim/trace.h"

namespace pjsched::metrics {

struct AuditReport {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }

  /// All errors joined with newlines (empty when ok).
  std::string to_string() const;
};

/// Audits `trace` as an execution of `instance` on `machine` that reported
/// `completion` (c_i by job id, as StreamRunResult::completion).
/// `tolerance` is the absolute slack allowed in work/time comparisons (the
/// engines' arithmetic is exact to ~1e-9).
AuditReport audit_schedule(const core::Instance& instance,
                           const core::MachineConfig& machine,
                           const sim::Trace& trace,
                           const std::vector<core::Time>& completion,
                           double tolerance = 1e-6);

}  // namespace pjsched::metrics
