// Tests for the real-runtime instance replayer (src/runtime/replayer.h)
// and the simulator's weighted-admission work-stealing extension.
#include "src/runtime/replayer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/dag/builders.h"
#include "src/sched/work_stealing.h"
#include "src/workload/instance_io.h"
#include "tests/test_util.h"

namespace pjsched {
namespace {

TEST(ReplayerTest, ReplaysEveryJob) {
  runtime::ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 1});
  auto inst = testutil::make_instance({
      {0.0, dag::parallel_for_dag(4, 2)},
      {5.0, dag::serial_chain(3, 2)},
      {10.0, dag::star(3)},
  });
  runtime::ReplayOptions opts;
  opts.ns_per_unit = 5000.0;  // 5 us per unit: fast but measurable
  const auto report = runtime::replay_instance(pool, inst, opts);
  EXPECT_EQ(report.flow_seconds.count, 3u);
  EXPECT_GT(report.flow_seconds.max, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_EQ(report.pool_stats.admissions, 3u);
}

TEST(ReplayerTest, FlowAtLeastSpanSpin) {
  // Job with span P must spin at least P * ns_per_unit of wall time.
  runtime::ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 2});
  auto inst = testutil::make_instance({{0.0, dag::serial_chain(4, 25)}});
  runtime::ReplayOptions opts;
  opts.ns_per_unit = 10000.0;  // 100 units * 10 us = 1 ms minimum
  const auto report = runtime::replay_instance(pool, inst, opts);
  EXPECT_GE(report.flow_seconds.max, 0.0005);
}

TEST(ReplayerTest, WeightedFlowTracked) {
  runtime::ThreadPool pool({.workers = 2, .steal_k = 0, .seed = 3});
  core::Instance inst;
  inst.jobs.push_back({0.0, 8.0, dag::single_node(10)});
  runtime::ReplayOptions opts;
  opts.ns_per_unit = 1000.0;
  const auto report = runtime::replay_instance(pool, inst, opts);
  EXPECT_GE(report.max_weighted_flow_seconds,
            report.flow_seconds.max * 7.99);
}

TEST(ReplayerTest, BadOptionsRejected) {
  runtime::ThreadPool pool({.workers = 1, .steal_k = 0, .seed = 4});
  auto inst = testutil::make_instance({{0.0, dag::single_node(1)}});
  runtime::ReplayOptions opts;
  opts.ns_per_unit = 0.0;
  EXPECT_THROW(runtime::replay_instance(pool, inst, opts),
               std::invalid_argument);
  opts = {};
  opts.arrival_scale = -1.0;
  EXPECT_THROW(runtime::replay_instance(pool, inst, opts),
               std::invalid_argument);
}

// --- Replay-file loading (typed errors) ---

class ReplayFileTest : public ::testing::Test {
 protected:
  std::string write_fixture(const std::string& name,
                            const std::string& text) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
  }

  std::string valid_text() {
    return workload::instance_to_text(testutil::make_instance({
        {0.0, dag::parallel_for_dag(4, 2)},
        {5.0, dag::serial_chain(3, 2)},
    }));
  }
};

TEST_F(ReplayFileTest, LoadsAWellFormedFile) {
  const auto path = write_fixture("replay_ok.inst", valid_text());
  const core::Instance inst = runtime::load_replay_instance(path);
  EXPECT_EQ(inst.size(), 2u);
  EXPECT_DOUBLE_EQ(inst.jobs[1].arrival, 5.0);
}

TEST_F(ReplayFileTest, MissingFileIsAnIoError) {
  try {
    runtime::load_replay_instance(::testing::TempDir() + "no_such.inst");
    FAIL() << "expected ReplayFileError";
  } catch (const runtime::ReplayFileError& e) {
    EXPECT_EQ(e.kind(), runtime::ReplayFileError::Kind::kIo);
  }
}

TEST_F(ReplayFileTest, TruncatedFileIsDetectedAtEveryCutPoint) {
  // A short read can cut the file anywhere — mid-token, between records,
  // or right before the trailer.  Every proper prefix must surface as
  // Kind::kTruncated (never load, never be misreported as corrupt).
  const std::string full = valid_text();
  for (std::size_t cut : {full.size() - 2, full.size() - 8, full.size() / 2,
                          full.size() / 4, std::size_t{10}}) {
    const auto path =
        write_fixture("replay_trunc.inst", full.substr(0, cut));
    try {
      runtime::load_replay_instance(path);
      FAIL() << "expected ReplayFileError at cut " << cut;
    } catch (const runtime::ReplayFileError& e) {
      EXPECT_EQ(e.kind(), runtime::ReplayFileError::Kind::kTruncated)
          << "cut=" << cut << " what=" << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
}

TEST_F(ReplayFileTest, CorruptTokenIsDistinguishedFromTruncation) {
  std::string text = valid_text();
  const auto pos = text.find("job 5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "job x");  // non-numeric arrival mid-file
  const auto path = write_fixture("replay_corrupt.inst", text);
  try {
    runtime::load_replay_instance(path);
    FAIL() << "expected ReplayFileError";
  } catch (const runtime::ReplayFileError& e) {
    EXPECT_EQ(e.kind(), runtime::ReplayFileError::Kind::kCorrupt);
  }
}

TEST_F(ReplayFileTest, NonFiniteArrivalIsCorrupt) {
  std::string text = valid_text();
  const auto pos = text.find("job 5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "job nan");
  const auto path = write_fixture("replay_nan.inst", text);
  try {
    runtime::load_replay_instance(path);
    FAIL() << "expected ReplayFileError";
  } catch (const runtime::ReplayFileError& e) {
    EXPECT_EQ(e.kind(), runtime::ReplayFileError::Kind::kCorrupt);
  }
}

TEST_F(ReplayFileTest, TrailingGarbageIsCorrupt) {
  const auto path = write_fixture("replay_trailing.inst",
                                  valid_text() + "job 9 1\n");
  try {
    runtime::load_replay_instance(path);
    FAIL() << "expected ReplayFileError";
  } catch (const runtime::ReplayFileError& e) {
    EXPECT_EQ(e.kind(), runtime::ReplayFileError::Kind::kCorrupt);
  }
  // Comments after the trailer are fine (write_instance never emits them,
  // but hand-annotated fixtures do).
  const auto ok = write_fixture("replay_comment.inst",
                                valid_text() + "# replayed 2026-08-08\n");
  EXPECT_EQ(runtime::load_replay_instance(ok).size(), 2u);
}

// --- Weighted-admission work stealing (extension) ---

TEST(WeightedAdmissionTest, NameReflectsExtension) {
  sched::WorkStealingScheduler admit_first(0, 1, true), steal8(8, 1, true);
  EXPECT_EQ(testutil::run_name(admit_first), "admit-first-bwf");
  EXPECT_EQ(testutil::run_name(steal8), "steal-8-first-bwf");
}

TEST(WeightedAdmissionTest, HeaviestQueuedJobAdmittedFirst) {
  // One worker, three jobs queued at t=0 with distinct weights: the
  // weighted variant admits heaviest-first, FIFO admits in order.
  core::Instance inst;
  inst.jobs.push_back({0.0, 1.0, dag::single_node(4)});
  inst.jobs.push_back({0.0, 9.0, dag::single_node(4)});
  inst.jobs.push_back({0.0, 3.0, dag::single_node(4)});

  sched::WorkStealingScheduler weighted(0, 1, true);
  const auto w = weighted.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(w.completion[1], 4.0);   // weight 9 first
  EXPECT_DOUBLE_EQ(w.completion[2], 8.0);   // weight 3 second
  EXPECT_DOUBLE_EQ(w.completion[0], 12.0);  // weight 1 last

  sched::WorkStealingScheduler fifo_adm(0, 1, false);
  const auto f = fifo_adm.run(inst, {1, 1.0});
  EXPECT_DOUBLE_EQ(f.completion[0], 4.0);
  EXPECT_DOUBLE_EQ(f.completion[1], 8.0);
  EXPECT_DOUBLE_EQ(f.completion[2], 12.0);
}

TEST(WeightedAdmissionTest, ImprovesWeightedObjectiveUnderBacklog) {
  // Stream of light jobs plus a late heavy job: weighted admission pulls
  // the heavy job ahead of the backlog.
  core::Instance inst;
  for (int i = 0; i < 30; ++i)
    inst.jobs.push_back(
        {static_cast<core::Time>(i), 1.0, dag::single_node(8)});
  inst.jobs.push_back({30.0, 50.0, dag::single_node(8)});

  sched::WorkStealingScheduler plain(0, 7, false);
  sched::WorkStealingScheduler weighted(0, 7, true);
  const auto p = plain.run(inst, {2, 1.0});
  const auto w = weighted.run(inst, {2, 1.0});
  EXPECT_LT(w.max_weighted_flow, p.max_weighted_flow);
}

TEST(WeightedAdmissionTest, EquivalentToFifoWhenWeightsEqual) {
  auto inst = testutil::random_instance(17, 20, 30.0);
  sched::WorkStealingScheduler plain(2, 5, false);
  sched::WorkStealingScheduler weighted(2, 5, true);
  const auto p = plain.run(inst, {3, 1.0});
  const auto w = weighted.run(inst, {3, 1.0});
  EXPECT_EQ(p.completion, w.completion);
}

}  // namespace
}  // namespace pjsched
