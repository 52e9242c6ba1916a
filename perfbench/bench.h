// Shared plumbing of the benchmark binary: options, the per-run outcome a
// workload hands back, span scopes, and host probes (host.cc).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/arith.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The default workload seed: its outputs are pinned in reference.h.
inline constexpr std::uint64_t kDefaultSeed = 20160711;
/// Held out: never used while tuning; reserved for verifying later claims.
inline constexpr std::uint64_t kHeldOutSeed = 9001;

/// Every metric a run prints, in print order.  Untraced runs print the
/// end-to-end list; traced runs print the per-layer list, with 0 for a
/// layer that does not run in the workload.  BENCHMARK.json names the same
/// metrics (run.py checks that they agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
inline constexpr MetricSpec kEndToEnd[] = {
    {"jobs_per_s", "jobs/s"},
    {"overhead_us_per_job", "us"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};
inline constexpr MetricSpec kPerLayer[] = {
    {"max_flow_ms", "ms"},
    {"ratio", "1"},
    {"bwf_max_weighted_flow_ms", "ms"},
    {"bwf_ratio", "1"},
    {"p50_ms", "ms"},
    {"mean_ms", "ms"},
    {"p99_ms", "ms"},
    {"failed_share", "1"},
    {"workload.self_s", "s"},
    {"workload.jobs", "count"},
    {"workload.nodes", "count"},
    {"sim.self_s", "s"},
    {"sim.allocs_per_job", "1"},
    {"sim.peak_live_jobs", "count"},
    {"sim.arena_slots", "count"},
    {"sim.busy_share", "1"},
    {"sim.steal_attempts", "count"},
    {"sim.steal_success", "count"},
    {"sim.admissions", "count"},
    {"sim.macro_jumps", "count"},
    {"sim.decision_points", "count"},
    {"sim.fast_share", "1"},
    {"sim.trace_intervals", "count"},
    {"sim.trace_intervals_per_job", "1"},
    {"core.bounds_self_s", "s"},
    {"core.bound_ms", "ms"},
    {"core.weighted_bound_ms", "ms"},
    {"metrics.samples", "count"},
    {"runtime.submit_s", "s"},
    {"runtime.tasks_executed", "count"},
    {"runtime.steal_attempts", "count"},
    {"runtime.steal_success", "count"},
    {"runtime.admissions", "count"},
    {"runtime.task_slab_blocks", "count"},
    {"runtime.task_remote_frees", "count"},
    {"sim.model_p99_ms", "ms"},
    {"runtime.model_gap", "1"},
    {"service.write_s", "s"},
    {"service.records_per_batch", "1"},
    {"service.parse_ns", "ns"},
    {"service.admit_ns", "ns"},
    {"service.router_peak_depth", "count"},
    {"service.shed", "count"},
    {"service.p99_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"bench.trace_overhead", "1"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
};

/// What one workload run hands back to main().
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;  ///< operations (jobs) attempted
  std::uint64_t failed = 0;     ///< failed, expired, shed, rejected or lost
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;  ///< as measured; main() orders them
  /// Pool workers plus load threads the workload ran;
  /// stamped next to nproc.
  unsigned threads = 1;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an output check; a failed one fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// operator new calls so far; counts only while an AllocCounting lives.
std::uint64_t allocations();
void set_alloc_counting(bool on);

/// Counts operator new calls for its lifetime.  Workloads hold one over
/// their traced pass only, so every untraced figure, including the
/// baseline of bench.trace_overhead, runs without the shared counter.
class AllocCounting {
 public:
  AllocCounting() { set_alloc_counting(true); }
  ~AllocCounting() { set_alloc_counting(false); }
  AllocCounting(const AllocCounting&) = delete;
  AllocCounting& operator=(const AllocCounting&) = delete;
};

/// RAII span on a possibly-null tracer (null = untraced: no clock reads).
/// `call` names the wrapped call and must be a string literal.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, const char* call, std::uint32_t job = 0)
      : t_(tracer) {
    if (t_ != nullptr) t_->open(layer, call, job, now_ns(), allocations());
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(now_ns(), allocations());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// Host probes (host.cc).
/// Process CPU time (user + system, all threads), seconds.
double process_cpu_seconds();
/// The calling thread's CPU time, seconds.
double thread_cpu_seconds();
/// VmHWM of this process in MB (0 if unreadable).
double peak_rss_mb();
/// Jiffies the hypervisor stole from this host (/proc/stat, all CPUs) and
/// total jiffies; the run reports the delta's share.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuJiffies read_cpu_jiffies();
std::string cpu_model();

Outcome run_replay(const Options& options, Tracer* tracer);
Outcome run_daemon(const Options& options, Tracer* tracer);

}  // namespace perfbench
