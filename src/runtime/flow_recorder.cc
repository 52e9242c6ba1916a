#include "src/runtime/flow_recorder.h"

#include <algorithm>

namespace pjsched::runtime {

FlowRecorder::FlowRecorder(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

void FlowRecorder::record(const Job& job, std::size_t shard) {
  record(job.flow_seconds(), job.weight(), job.outcome(), shard);
}

void FlowRecorder::record(double flow_seconds, double weight,
                          JobOutcome outcome, std::size_t shard) {
  Shard& s = shards_[shard % shards_.size()];
  MutexLock lock(s.mu);
  switch (outcome) {
    case JobOutcome::kRunning:  // defensive: treat as completed
    case JobOutcome::kCompleted:
      ++s.counts.completed;
      // Arrival 0 / completion `flow_seconds` records the flow itself; the
      // argmax id is never read, so every record takes id 0.
      s.flows.record(0, 0.0, weight, flow_seconds);
      break;
    case JobOutcome::kFailed:
      ++s.counts.failed;
      break;
    case JobOutcome::kDeadlineExpired:
      ++s.counts.deadline_expired;
      break;
  }
}

std::size_t FlowRecorder::count() const {
  return static_cast<std::size_t>(outcome_counts().total());
}

FlowRecorder::OutcomeCounts FlowRecorder::outcome_counts() const {
  OutcomeCounts total;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    total.completed += s.counts.completed;
    total.failed += s.counts.failed;
    total.deadline_expired += s.counts.deadline_expired;
  }
  return total;
}

std::vector<double> FlowRecorder::flows_seconds() const {
  std::vector<double> merged;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    const std::vector<double>& kept = s.flows.reservoir();
    merged.insert(merged.end(), kept.begin(), kept.end());
  }
  return merged;
}

double FlowRecorder::max_flow_seconds() const {
  double best = 0.0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    best = std::max(best, s.flows.max_flow());
  }
  return best;
}

double FlowRecorder::max_weighted_flow_seconds() const {
  double best = 0.0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    best = std::max(best, s.flows.max_weighted_flow());
  }
  return best;
}

metrics::Summary FlowRecorder::summary() const {
  std::vector<double> kept;
  std::size_t count = 0;
  double min = 0.0, max = 0.0, sum = 0.0;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    const metrics::StreamingFlowStats& f = s.flows;
    kept.insert(kept.end(), f.reservoir().begin(), f.reservoir().end());
    if (f.count() == 0) continue;
    min = count == 0 ? f.min_flow() : std::min(min, f.min_flow());
    max = std::max(max, f.max_flow());
    sum += f.mean_flow() * static_cast<double>(f.count());
    count += f.count();
  }
  metrics::Summary out = metrics::summarize(kept);
  // Past a shard's reservoir `kept` is a sample: count, min, max and mean
  // then come from the exact per-shard statistics, while the stddev and
  // the quantiles stay estimates.
  if (count > kept.size()) {
    out.count = count;
    out.min = min;
    out.max = max;
    out.mean = sum / static_cast<double>(count);
  }
  return out;
}

}  // namespace pjsched::runtime
