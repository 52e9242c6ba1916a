// Tests for the MMPP arrival process, the arrivals-driven instance
// generator and the SLO metric.
#include <gtest/gtest.h>

#include "src/metrics/stats.h"
#include "src/workload/arrivals.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace pjsched::workload {
namespace {

TEST(MmppArrivalsTest, StrictlyIncreasing) {
  MmppArrivals arr(2000.0, 100.0, 50.0, sim::Rng(1));
  double prev = -1.0;
  for (int i = 0; i < 2000; ++i) {
    const double t = arr.next_ms();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MmppArrivalsTest, AverageRateMatches) {
  // Symmetric sojourns: long-run rate = (burst + calm) / 2.
  MmppArrivals arr(1600.0, 400.0, 20.0, sim::Rng(2));
  const auto times = take_arrivals(arr, 60000);
  const double measured_qps =
      static_cast<double>(times.size()) / (times.back() / 1000.0);
  EXPECT_NEAR(measured_qps, 1000.0, 60.0);
}

TEST(MmppArrivalsTest, BurstierThanPoissonAtSameRate) {
  // Compare squared coefficient of variation of inter-arrival gaps: MMPP
  // with a strong burst/calm split must exceed Poisson's CV^2 = 1.
  const auto cv2 = [](const std::vector<double>& times) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i)
      gaps.push_back(times[i] - times[i - 1]);
    const auto s = metrics::summarize(gaps);
    return (s.stddev * s.stddev) / (s.mean * s.mean);
  };
  MmppArrivals bursty(3000.0, 200.0, 100.0, sim::Rng(3));
  PoissonArrivals poisson(1600.0, sim::Rng(3));
  auto bt = take_arrivals(bursty, 30000);
  auto pt = take_arrivals(poisson, 30000);
  EXPECT_GT(cv2(bt), 1.5);
  EXPECT_NEAR(cv2(pt), 1.0, 0.15);
}

TEST(MmppArrivalsTest, BadParamsRejected) {
  EXPECT_THROW(MmppArrivals(0.0, 1.0, 1.0, sim::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(MmppArrivals(1.0, -1.0, 1.0, sim::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(MmppArrivals(1.0, 1.0, 0.0, sim::Rng(1)),
               std::invalid_argument);
}

TEST(GeneratorWithArrivalsTest, OneJobPerArrival) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  GeneratorConfig cfg;
  cfg.units_per_ms = 10.0;
  const auto inst =
      generate_instance_with_arrivals(dist, cfg, {0.0, 3.0, 12.5});
  ASSERT_EQ(inst.size(), 3u);
  EXPECT_DOUBLE_EQ(inst.jobs[0].arrival, 0.0);
  EXPECT_DOUBLE_EQ(inst.jobs[1].arrival, 30.0);
  EXPECT_DOUBLE_EQ(inst.jobs[2].arrival, 125.0);
  EXPECT_NO_THROW(inst.validate());
}

TEST(GeneratorWithArrivalsTest, EmptyArrivalsRejected) {
  const DiscreteWorkDistribution dist("d", {{5.0, 1.0}});
  EXPECT_THROW(generate_instance_with_arrivals(dist, {}, {}),
               std::invalid_argument);
}

// --- SLO metrics ---

TEST(SloTest, TightestSlo) {
  std::vector<double> flows;
  for (int i = 1; i <= 100; ++i) flows.push_back(static_cast<double>(i));
  EXPECT_NEAR(metrics::tightest_slo(flows, 0.01), 99.01, 0.02);
  EXPECT_DOUBLE_EQ(metrics::tightest_slo(flows, 0.0), 100.0);
  EXPECT_THROW(metrics::tightest_slo({}, 0.1), std::invalid_argument);
  EXPECT_THROW(metrics::tightest_slo(flows, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched::workload
