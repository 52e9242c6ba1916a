// The streamed path's O(live jobs) contract, checked by counting.
//
// The paper's Section 6 study runs 100,000 jobs per Figure-2 point; a
// streamed run must hold state for the live jobs only, whatever the
// instance length.  Each curve below streams the bing workload at 1000 qps
// on 16 processors (utilization ~0.69, so the live set is O(1) in the
// instance length) at 10^4 and 10^5 jobs, and checks:
//
//  * no job is lost;
//  * at most kAllocsPerJob operator new calls per job.  Building a job's
//    DAG costs 7 calls (its six arrays and one scratch buffer), the
//    engines' bookkeeping up to 1.5 more: 7.0-8.5 calls per job, flat
//    across decades, and the budget leaves ~15% over that.  One more call
//    per engine loop iteration (~6 per job in the event engine, ~10 in
//    the step engine) exceeds it, as does one per node completed (~34
//    nodes per job here);
//  * the engines' job arena holds one slot per peak live job
//    (arena_slots == peak_live_jobs), and the peak live count grows at
//    most kMaxGrowth-fold over the decade;
//  * the run's peak RSS stays under kRssCeilingKb and grows at most
//    kMaxGrowth-fold over the decade.  A healthy streamed run needs a few
//    MB at any decade; keeping each retired job's DAG costs ~150 MB at
//    10^5 jobs.
//
// Each point runs in a child process of its own (fork + wait4), so the
// child's ru_maxrss is that run's peak RSS and one point's heap never
// flatters or burdens the next.  Nothing here writes under /proc, and the
// test starts no thread, so fork copies a single-threaded process.  Under
// ASAN or TSAN the shadow memory and the allocator's quarantine dominate
// RSS, so the RSS checks compile out there; every count check stays.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>

#include "src/core/bounds.h"
#include "src/core/run.h"
#include "src/workload/distributions.h"
#include "src/workload/streaming_source.h"
#include "tests/alloc_counter.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCALING_TEST_SANITIZED
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCALING_TEST_SANITIZED
#endif
#endif

namespace pjsched {
namespace {

constexpr std::size_t kSmall = 10'000;
constexpr std::size_t kLarge = 100'000;
constexpr unsigned kProcessors = 16;
constexpr double kAllocsPerJob = 10.0;
constexpr double kMaxGrowth = 4.0;
constexpr long kRssCeilingKb = 192 * 1024;

enum class Curve { kEventFifo, kStepAdmitFirst, kStreamedBounds };

/// What one child reports about its run.
struct Point {
  std::uint64_t jobs = 0;
  std::uint64_t allocations = 0;
  std::uint64_t peak_live_jobs = 0;
  std::uint64_t arena_slots = 0;
  long max_rss_kb = 0;  ///< the child's ru_maxrss, filled in by the parent
};

/// The child's work: one streamed run, its allocations counted.
Point run_point(Curve curve, std::size_t jobs) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.qps = 1000.0;
  cfg.seed = 5;

  Point p;
  const std::uint64_t before = testutil::thread_allocations;
  workload::GeneratedJobSource source(dist, cfg);
  if (curve == Curve::kStreamedBounds) {
    p.jobs = core::stream_lower_bounds(source, kProcessors).jobs;
  } else {
    // Admit-first, not steal-16-first: at speed 1 each admission waits on
    // k failed steals, so steal-16's global queue grows with the instance
    // (Theorem 4.1 needs (k+1+eps) speed).  Admit-first is stable here.
    core::SchedulerSpec spec;
    spec.kind = curve == Curve::kEventFifo ? core::SchedulerKind::kFifo
                                           : core::SchedulerKind::kAdmitFirst;
    spec.seed = 7;
    const core::StreamRunResult res =
        core::run_scheduler_streamed(source, spec, {kProcessors, 1.0});
    p.jobs = res.jobs;
    p.peak_live_jobs = res.stats.peak_live_jobs;
    p.arena_slots = res.stats.arena_slots;
  }
  p.allocations = testutil::thread_allocations - before;
  return p;
}

/// Runs one point in a child process and collects its report and peak RSS.
void measure(Curve curve, std::size_t jobs, Point* out) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  std::fflush(nullptr);  // the child must not flush the parent's buffers
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    int code = 1;  // the report did not reach the parent
    try {
      const Point p = run_point(curve, jobs);
      if (write(fds[1], &p, sizeof p) == static_cast<ssize_t>(sizeof p))
        code = 0;
    } catch (...) {
      code = 2;  // the run threw
    }
    _exit(code);
  }
  close(fds[1]);
  const ssize_t got = read(fds[0], out, sizeof *out);
  close(fds[0]);
  int status = 0;
  rusage usage{};
  ASSERT_EQ(wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child for " << jobs << " jobs failed, status " << status;
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof *out));
  out->max_rss_kb = usage.ru_maxrss;
}

void check_point(Curve curve, std::size_t jobs, const Point& p) {
  SCOPED_TRACE(testing::Message() << jobs << " jobs");
  const double per_job =
      static_cast<double>(p.allocations) / static_cast<double>(jobs);
  const auto live = static_cast<unsigned long long>(p.peak_live_jobs);
  std::printf("%zu jobs: %.2f allocs/job, peak live %llu, peak RSS %ld kB\n",
              jobs, per_job, live, p.max_rss_kb);
  EXPECT_EQ(p.jobs, jobs);
  EXPECT_LE(per_job, kAllocsPerJob);
  if (curve != Curve::kStreamedBounds) {
    EXPECT_GT(p.peak_live_jobs, 0u);
    EXPECT_EQ(p.arena_slots, p.peak_live_jobs);
  }
#ifndef SCALING_TEST_SANITIZED
  EXPECT_LE(p.max_rss_kb, kRssCeilingKb);
#endif
}

void check_curve(Curve curve) {
  Point small, large;
  ASSERT_NO_FATAL_FAILURE(measure(curve, kSmall, &small));
  ASSERT_NO_FATAL_FAILURE(measure(curve, kLarge, &large));
  check_point(curve, kSmall, small);
  check_point(curve, kLarge, large);
  EXPECT_LE(static_cast<double>(large.peak_live_jobs),
            kMaxGrowth * static_cast<double>(small.peak_live_jobs));
#ifndef SCALING_TEST_SANITIZED
  EXPECT_LE(static_cast<double>(large.max_rss_kb),
            kMaxGrowth * static_cast<double>(small.max_rss_kb))
      << "peak RSS " << small.max_rss_kb << " -> " << large.max_rss_kb
      << " kB";
#endif
}

TEST(ScalingTest, EventEngineFifoHoldsLiveJobsOnly) {
  check_curve(Curve::kEventFifo);
}

TEST(ScalingTest, StepEngineAdmitFirstHoldsLiveJobsOnly) {
  check_curve(Curve::kStepAdmitFirst);
}

TEST(ScalingTest, StreamedBoundsHoldConstantState) {
  check_curve(Curve::kStreamedBounds);
}

}  // namespace
}  // namespace pjsched
