// Tests for arrival processes (src/workload/arrivals.h).
#include "src/workload/arrivals.h"

#include <gtest/gtest.h>

namespace pjsched::workload {
namespace {

TEST(PoissonArrivalsTest, StrictlyIncreasing) {
  PoissonArrivals arr(100.0, sim::Rng(1));
  double prev = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = arr.next_ms();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PoissonArrivalsTest, MeanInterArrivalMatchesQps) {
  // QPS 200 -> mean gap 5 ms.
  PoissonArrivals arr(200.0, sim::Rng(2));
  const auto times = take_arrivals(arr, 20000);
  const double mean_gap = times.back() / static_cast<double>(times.size());
  EXPECT_NEAR(mean_gap, 5.0, 0.2);
}

TEST(PoissonArrivalsTest, DeterministicGivenRng) {
  PoissonArrivals a(50.0, sim::Rng(7));
  PoissonArrivals b(50.0, sim::Rng(7));
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.next_ms(), b.next_ms());
}

TEST(PoissonArrivalsTest, BadQpsRejected) {
  EXPECT_THROW(PoissonArrivals(0.0, sim::Rng(1)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-5.0, sim::Rng(1)), std::invalid_argument);
}

TEST(TakeArrivalsTest, Count) {
  PoissonArrivals arr(100.0, sim::Rng(1));
  EXPECT_EQ(take_arrivals(arr, 17).size(), 17u);
}

}  // namespace
}  // namespace pjsched::workload
