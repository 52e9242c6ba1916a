// Tests for online-instance generation (src/workload/generator.h).
#include "src/workload/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "src/dag/builders.h"

namespace pjsched::workload {
namespace {

/// FNV-1a over 64-bit words, each fed as its eight bytes, low byte first.
class Digest {
 public:
  void word(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  /// Every field a sealed DAG exposes.
  void dag(const dag::Dag& d) {
    word(d.node_count());
    word(d.edge_count());
    for (dag::NodeId v = 0; v < d.node_count(); ++v) {
      word(d.work_of(v));
      word(d.out_degree(v));
      for (const dag::NodeId s : d.successors(v)) word(s);
      word(d.in_degree(v));
      for (const dag::NodeId p : d.predecessors(v)) word(p);
    }
    word(d.sources().size());
    for (const dag::NodeId s : d.sources()) word(s);
    word(d.total_work());
    word(d.critical_path());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Every DAG field, arrival and weight of 2,000 generated jobs per case: a
// change to how jobs are built or sampled moves a digest.
TEST(GeneratorDigestTest, GeneratedInstancesArePinned) {
  const DiscreteWorkDistribution bing = bing_distribution();
  const DiscreteWorkDistribution finance = finance_distribution();
  const LognormalWorkDistribution lognormal =
      default_lognormal_distribution();
  const struct {
    const WorkDistribution* dist;
    std::size_t grains;
    std::uint64_t digest;
  } kPinned[] = {
      {&bing, 1, 0x170dddef74d3c84dULL},
      {&bing, 7, 0xa4510dd174d98895ULL},
      {&bing, 32, 0x5b3febed5f5310beULL},
      {&finance, 1, 0x6f05df512bedd8baULL},
      {&finance, 7, 0x8a7a1878984039b4ULL},
      {&finance, 32, 0xd41f997a267f5425ULL},
      {&lognormal, 1, 0xaf21c5362892db34ULL},
      {&lognormal, 7, 0xdbadac9dbc76853bULL},
      {&lognormal, 32, 0x28a5dd7a43669215ULL},
  };
  for (const auto& pin : kPinned) {
    GeneratorConfig cfg;
    cfg.num_jobs = 2000;
    cfg.qps = 1000.0;
    cfg.grains = pin.grains;
    cfg.seed = 30 + pin.grains;
    cfg.weight_classes = {1.0, 4.0};
    const core::Instance inst = generate_instance(*pin.dist, cfg);
    Digest digest;
    for (const core::JobSpec& job : inst.jobs) {
      digest.real(job.arrival);
      digest.real(job.weight);
      digest.dag(job.graph);
    }
    EXPECT_EQ(digest.value(), pin.digest)
        << pin.dist->name() << " grains=" << pin.grains << ": 0x"
        << std::hex << digest.value();
  }
}

TEST(GeneratorDigestTest, ClosedFormBuildersArePinned) {
  Digest digest;
  for (const dag::Work w : {1u, 7u}) digest.dag(dag::single_node(w));
  for (const std::size_t length : {1u, 2u, 9u})
    digest.dag(dag::serial_chain(length, 3));
  for (const std::size_t children : {1u, 5u, 64u})
    digest.dag(dag::star(children));
  digest.dag(dag::parallel_for_dag(5, 4, 2, 3));
  EXPECT_EQ(digest.value(), 0x921df2f18a862615ULL)
      << "0x" << std::hex << digest.value();
}

TEST(ParallelForJobTest, ShapeAndWork) {
  // 10 ms at 10 units/ms = 100 units: root 1 + bodies 98 + join 1.
  const dag::Dag d = make_parallel_for_job(10.0, 8, 10.0);
  EXPECT_EQ(d.total_work(), 100u);
  EXPECT_EQ(d.node_count(), 10u);  // root + 8 grains + join
  // Even split: 98 = 8*12 + 2, grains are 12 or 13.
  EXPECT_EQ(d.critical_path(), 1u + 13u + 1u);
}

TEST(ParallelForJobTest, TinyJobsBecomeSingleNodes) {
  const dag::Dag d = make_parallel_for_job(0.1, 8, 10.0);  // 1 unit
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.total_work(), 1u);
}

TEST(ParallelForJobTest, GrainsCappedByWork) {
  // 5 units of body work cannot fill 32 grains; no zero-work nodes appear.
  const dag::Dag d = make_parallel_for_job(0.7, 32, 10.0);  // 7 units
  EXPECT_EQ(d.total_work(), 7u);
  for (dag::NodeId v = 0; v < d.node_count(); ++v)
    EXPECT_GE(d.work_of(v), 1u);
}

TEST(GeneratorTest, ProducesRequestedJobCount) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.num_jobs = 137;
  const auto inst = generate_instance(dist, cfg);
  EXPECT_EQ(inst.size(), 137u);
  EXPECT_NO_THROW(inst.validate());
}

TEST(GeneratorTest, ArrivalsIncreaseAndScaleWithUnits) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.num_jobs = 50;
  cfg.qps = 100.0;
  cfg.units_per_ms = 10.0;
  const auto inst = generate_instance(dist, cfg);
  for (std::size_t i = 1; i < inst.jobs.size(); ++i)
    EXPECT_GT(inst.jobs[i].arrival, inst.jobs[i - 1].arrival);
  // Mean gap 10 ms = 100 units.
  const double mean_gap =
      inst.jobs.back().arrival / static_cast<double>(inst.size());
  EXPECT_NEAR(mean_gap, 100.0, 30.0);
}

TEST(GeneratorTest, JobWorkMatchesDistribution) {
  // Point distribution at 5 ms -> every job has exactly 50 units of work.
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.num_jobs = 20;
  cfg.units_per_ms = 10.0;
  const auto inst = generate_instance(dist, cfg);
  for (const auto& job : inst.jobs) EXPECT_EQ(job.graph.total_work(), 50u);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  const auto dist = bing_distribution();
  GeneratorConfig cfg;
  cfg.num_jobs = 60;
  cfg.seed = 123;
  const auto a = generate_instance(dist, cfg);
  const auto b = generate_instance(dist, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].graph.total_work(), b.jobs[i].graph.total_work());
  }
}

TEST(GeneratorTest, SeedChangesInstance) {
  const auto dist = bing_distribution();
  GeneratorConfig cfg;
  cfg.num_jobs = 60;
  cfg.seed = 1;
  const auto a = generate_instance(dist, cfg);
  cfg.seed = 2;
  const auto b = generate_instance(dist, cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.jobs[i].arrival != b.jobs[i].arrival) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, WeightClassesSampled) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.num_jobs = 200;
  cfg.weight_classes = {1.0, 4.0, 16.0};
  const auto inst = generate_instance(dist, cfg);
  std::set<double> seen;
  for (const auto& job : inst.jobs) seen.insert(job.weight);
  EXPECT_EQ(seen, (std::set<double>{1.0, 4.0, 16.0}));
}

TEST(GeneratorTest, BadConfigRejected) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.num_jobs = 0;
  EXPECT_THROW(generate_instance(dist, cfg), std::invalid_argument);
  cfg = {};
  cfg.units_per_ms = 0.0;
  EXPECT_THROW(generate_instance(dist, cfg), std::invalid_argument);
  cfg = {};
  cfg.weight_classes = {};
  EXPECT_THROW(generate_instance(dist, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched::workload
