#include "src/metrics/streaming_stats.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace pjsched::metrics {

StreamingFlowStats::StreamingFlowStats(const Options& options)
    : rng_(options.seed) {
  if (options.reservoir == 0)
    throw std::invalid_argument("StreamingFlowStats: reservoir must be >= 1");
  samples_.capacity_limit_ = options.reservoir;
  completion_.assign(options.per_job, core::kNoTime);
  job_flow_.assign(options.per_job, core::kNoTime);
}

void StreamingFlowStats::record(core::JobId id, double arrival, double weight,
                                double completion) {
  if (completion < arrival)
    throw std::logic_error("StreamingFlowStats: completion precedes arrival");
  const double flow = completion - arrival;
  const double weighted = weight * flow;
  if (!completion_.empty()) {
    completion_.at(id) = completion;
    job_flow_[id] = flow;
  }

  if (count_ == 0) {
    min_flow_ = flow;
    argmax_flow_ = id;
    max_weighted_flow_ = weighted;
  } else {
    if (flow < min_flow_) min_flow_ = flow;
    // Strictly-greater, or equal with a smaller id: the job an id-order
    // scan picks (it keeps the first strict maximum, i.e. the smallest id
    // among exact ties) regardless of the completion order jobs are
    // recorded in.
    if (weighted > max_weighted_flow_ ||
        (weighted == max_weighted_flow_ && id < argmax_flow_)) {
      max_weighted_flow_ = weighted;
      argmax_flow_ = id;
    }
  }
  if (flow > max_flow_) max_flow_ = flow;
  if (completion > makespan_) makespan_ = completion;
  sum_flow_ += flow;

  ++count_;
  const double delta = flow - welford_mean_;
  welford_mean_ += delta / static_cast<double>(count_);
  welford_m2_ += delta * (flow - welford_mean_);

  // Vitter's Algorithm R: keep the first `capacity` samples, then replace a
  // uniformly random resident with probability capacity / count.
  if (samples_.values.size() < samples_.capacity_limit_) {
    samples_.values.push_back(flow);
  } else {
    const std::uint64_t j = rng_.uniform_int(count_);
    if (j < samples_.capacity_limit_) samples_.values[j] = flow;
  }
}

double StreamingFlowStats::mean_flow() const {
  return count_ == 0 ? 0.0 : sum_flow_ / static_cast<double>(count_);
}

Summary StreamingFlowStats::summary() const {
  Summary s;
  if (count_ == 0) return s;
  s.count = count_;
  s.min = min_flow_;
  s.max = max_flow_;
  s.mean = mean_flow();
  s.stddev = std::sqrt(welford_m2_ / static_cast<double>(count_));
  // Same selection sequence as summarize(): one scratch vector permuted in
  // place by successive quantile_select calls.  When the reservoir still
  // holds every sample the two scratches are multiset-identical, so the
  // quantiles are bit-for-bit equal.
  std::vector<double> scratch = samples_.values;
  s.p50 = quantile_select(scratch, 0.50);
  s.p90 = quantile_select(scratch, 0.90);
  s.p99 = quantile_select(scratch, 0.99);
  return s;
}

core::StreamRunResult StreamingFlowStats::result(
    std::string scheduler_name, const core::EngineStats& stats) const {
  core::StreamRunResult out;
  out.scheduler_name = std::move(scheduler_name);
  out.jobs = count();
  out.max_flow = max_flow();
  out.max_weighted_flow = max_weighted_flow();
  out.mean_flow = mean_flow();
  out.makespan = makespan();
  out.argmax_flow = argmax_flow();
  out.flow = summary();
  out.flow_quantiles_exact = quantiles_exact();
  out.completion = completion_;
  out.job_flow = job_flow_;
  out.stats = stats;
  return out;
}

}  // namespace pjsched::metrics
