// Tests for instance (de)serialization (src/workload/instance_io.h).
#include "src/workload/instance_io.h"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "src/dag/builders.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "tests/test_util.h"

namespace pjsched::workload {
namespace {

TEST(InstanceIoTest, RoundTripHandInstance) {
  auto inst = testutil::make_weighted_instance({
      {0.0, 1.0, dag::serial_chain(3, 2)},
      {1.5, 4.0, dag::parallel_for_dag(4, 5)},
      {7.25, 0.5, dag::star(3)},
  });
  const auto back = instance_from_text(instance_to_text(inst));
  ASSERT_EQ(back.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.jobs[i].arrival, inst.jobs[i].arrival);
    EXPECT_DOUBLE_EQ(back.jobs[i].weight, inst.jobs[i].weight);
    EXPECT_EQ(back.jobs[i].graph.total_work(), inst.jobs[i].graph.total_work());
    EXPECT_EQ(back.jobs[i].graph.critical_path(),
              inst.jobs[i].graph.critical_path());
    EXPECT_EQ(back.jobs[i].graph.edge_count(), inst.jobs[i].graph.edge_count());
  }
}

TEST(InstanceIoTest, RoundTripGeneratedInstance) {
  const auto dist = bing_distribution();
  GeneratorConfig cfg;
  cfg.num_jobs = 40;
  cfg.weight_classes = {1.0, 8.0};
  const auto inst = generate_instance(dist, cfg);
  const auto back = instance_from_text(instance_to_text(inst));
  ASSERT_EQ(back.size(), inst.size());
  EXPECT_EQ(back.total_work(), inst.total_work());
  EXPECT_EQ(back.max_critical_path(), inst.max_critical_path());
  // Bit for bit: a saved instance replays as the generated one.
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(back.jobs[i].arrival, inst.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(back.jobs[i].weight, inst.jobs[i].weight) << "job " << i;
  }
}

TEST(InstanceIoTest, WriterRestoresTheStreamFormat) {
  GeneratorConfig cfg;
  cfg.num_jobs = 5;
  std::ostringstream out;
  out << std::fixed << std::setprecision(2);
  write_instance(out, generate_instance(bing_distribution(), cfg));
  out.str("");
  out << 1.0 / 3.0;
  EXPECT_EQ(out.str(), "0.33");
}

TEST(InstanceIoTest, CommentsTolerated) {
  const std::string text =
      "# saved workload\n"
      "instance 1\n"
      "job 2.5 3.0   # arrival, weight\n"
      "dag 1 0\n"
      "node 0 7\n"
      "end\n"
      "endinstance\n";
  const auto inst = instance_from_text(text);
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_DOUBLE_EQ(inst.jobs[0].arrival, 2.5);
  EXPECT_DOUBLE_EQ(inst.jobs[0].weight, 3.0);
  EXPECT_EQ(inst.jobs[0].graph.total_work(), 7u);
}

TEST(InstanceIoTest, MalformedInputsRejected) {
  EXPECT_THROW(instance_from_text(""), std::invalid_argument);
  EXPECT_THROW(instance_from_text("instanse 1"), std::invalid_argument);
  EXPECT_THROW(instance_from_text("instance 0\nendinstance\n"),
               std::invalid_argument);
  EXPECT_THROW(instance_from_text("instance 1\nendinstance\n"),
               std::invalid_argument);  // missing job
  EXPECT_THROW(
      instance_from_text("instance 1\njob x 1\ndag 1 0\nnode 0 1\nend\n"
                         "endinstance\n"),
      std::invalid_argument);  // bad arrival
  EXPECT_THROW(
      instance_from_text("instance 1\njob 0 1\ndag 1 0\nnode 0 1\nend\n"),
      std::invalid_argument);  // missing endinstance
  EXPECT_THROW(
      instance_from_text("instance 1\njob -1 1\ndag 1 0\nnode 0 1\nend\n"
                         "endinstance\n"),
      std::invalid_argument);  // negative arrival fails validate()
}

TEST(InstanceIoTest, NonFiniteOrSignedNumbersRejected) {
  // Each line replaces the one job record of a valid file.
  for (const char* job : {
           "job nan 1\ndag 1 0\nnode 0 1\nend\n",
           "job inf 1\ndag 1 0\nnode 0 1\nend\n",
           "job 0 inf\ndag 1 0\nnode 0 1\nend\n",
           "job 0 nan\ndag 1 0\nnode 0 1\nend\n",
           "job 0 1\ndag 1 0\nnode 0 -5\nend\n",
       }) {
    const std::string text =
        std::string("instance 1\n") + job + "endinstance\n";
    EXPECT_THROW(instance_from_text(text), std::invalid_argument) << job;
  }
  EXPECT_THROW(
      instance_from_text("instance -1\njob 0 1\ndag 1 0\nnode 0 1\nend\n"
                         "endinstance\n"),
      std::invalid_argument);
}

TEST(InstanceIoTest, UnsealedOrInvalidInstanceRejectedOnWrite) {
  core::Instance bad;
  EXPECT_THROW(instance_to_text(bad), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched::workload
