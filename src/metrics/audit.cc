#include "src/metrics/audit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace pjsched::metrics {

std::string AuditReport::to_string() const {
  std::ostringstream oss;
  for (const std::string& e : errors) oss << e << '\n';
  return oss.str();
}

namespace {

std::string describe(const sim::WorkInterval& iv) {
  std::ostringstream oss;
  oss << "job " << iv.job << " node " << iv.node << " proc " << iv.proc
      << " [" << iv.start << ", " << iv.end << ")";
  return oss.str();
}

}  // namespace

AuditReport audit_schedule(const core::Instance& instance,
                           const core::MachineConfig& machine,
                           const sim::Trace& trace,
                           const std::vector<core::Time>& completion,
                           double tolerance) {
  AuditReport report;
  const std::size_t n = instance.size();

  // --- 1. Interval sanity. ---
  for (const sim::WorkInterval& iv : trace.intervals()) {
    if (!(iv.start < iv.end))
      report.fail("empty/negative interval: " + describe(iv));
    if (iv.proc >= machine.processors)
      report.fail("processor out of range: " + describe(iv));
    if (iv.job >= n) {
      report.fail("job out of range: " + describe(iv));
      continue;
    }
    if (iv.node >= instance.jobs[iv.job].graph.node_count())
      report.fail("node out of range: " + describe(iv));
  }
  if (completion.size() != n)  // check 7 indexes completions by job id
    report.fail(std::to_string(completion.size()) + " completion times for " +
                std::to_string(n) + " jobs");
  if (!report.ok) return report;  // ids unsafe to index below

  // --- 2. Per-processor exclusivity. ---
  {
    std::vector<std::vector<const sim::WorkInterval*>> per_proc(
        machine.processors);
    for (const sim::WorkInterval& iv : trace.intervals())
      per_proc[iv.proc].push_back(&iv);
    for (auto& ivs : per_proc) {
      std::sort(ivs.begin(), ivs.end(), [](const auto* a, const auto* b) {
        return a->start < b->start;
      });
      for (std::size_t i = 1; i < ivs.size(); ++i)
        if (ivs[i]->start < ivs[i - 1]->end - tolerance)
          report.fail("processor overlap: " + describe(*ivs[i - 1]) + " vs " +
                      describe(*ivs[i]));
    }
  }

  // Group intervals by (job, node).
  std::map<std::pair<core::JobId, dag::NodeId>,
           std::vector<const sim::WorkInterval*>>
      per_node;
  for (const sim::WorkInterval& iv : trace.intervals())
    per_node[{iv.job, iv.node}].push_back(&iv);

  // First start / last end per node, for precedence checks.
  std::map<std::pair<core::JobId, dag::NodeId>, std::pair<double, double>>
      node_span;

  for (auto& [key, ivs] : per_node) {
    std::sort(ivs.begin(), ivs.end(),
              [](const auto* a, const auto* b) { return a->start < b->start; });
    // --- 3. No node self-overlap across processors. ---
    for (std::size_t i = 1; i < ivs.size(); ++i)
      if (ivs[i]->start < ivs[i - 1]->end - tolerance)
        report.fail("node self-overlap: " + describe(*ivs[i - 1]) + " vs " +
                    describe(*ivs[i]));
    // --- 4. Exact work delivery. ---
    double delivered = 0.0;
    for (const auto* iv : ivs) delivered += (iv->end - iv->start);
    delivered *= machine.speed;
    const double want = static_cast<double>(
        instance.jobs[key.first].graph.work_of(key.second));
    if (std::abs(delivered - want) > tolerance + 1e-9 * want) {
      std::ostringstream oss;
      oss << "work mismatch for job " << key.first << " node " << key.second
          << ": delivered " << delivered << ", want " << want;
      report.fail(oss.str());
    }
    node_span[key] = {ivs.front()->start, ivs.back()->end};
  }

  // Every node of every job must appear (jobs all complete in a valid run).
  for (core::JobId j = 0; j < n; ++j) {
    const dag::Dag& g = instance.jobs[j].graph;
    for (dag::NodeId v = 0; v < g.node_count(); ++v)
      if (per_node.find({j, v}) == per_node.end()) {
        std::ostringstream oss;
        oss << "job " << j << " node " << v << " never executed";
        report.fail(oss.str());
      }
  }
  if (!report.ok) return report;

  for (core::JobId j = 0; j < n; ++j) {
    const core::JobSpec& job = instance.jobs[j];
    const dag::Dag& g = job.graph;
    double job_last_end = 0.0;
    for (dag::NodeId v = 0; v < g.node_count(); ++v) {
      const auto [first_start, last_end] = node_span[{j, v}];
      job_last_end = std::max(job_last_end, last_end);
      // --- 5. Precedence. ---
      for (dag::NodeId p : g.predecessors(v)) {
        const double pred_end = node_span[{j, p}].second;
        if (first_start < pred_end - tolerance) {
          std::ostringstream oss;
          oss << "precedence violation: job " << j << " node " << v
              << " starts at " << first_start << " before predecessor " << p
              << " ends at " << pred_end;
          report.fail(oss.str());
        }
      }
      // --- 6. Arrival respected. ---
      if (first_start < job.arrival - tolerance) {
        std::ostringstream oss;
        oss << "job " << j << " node " << v << " starts at " << first_start
            << " before arrival " << job.arrival;
        report.fail(oss.str());
      }
    }
    // --- 7. Completion bookkeeping. ---
    if (std::abs(completion[j] - job_last_end) > tolerance) {
      std::ostringstream oss;
      oss << "job " << j << " completion " << completion[j]
          << " != last execution end " << job_last_end;
      report.fail(oss.str());
    }
  }

  return report;
}

}  // namespace pjsched::metrics
