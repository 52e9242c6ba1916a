// Tests of the benchmark's own arithmetic: quantiles, shares and span
// self times.  run.py runs this binary after every build and refuses to
// benchmark when it fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench/arith.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "arith_test:%d: FAILED: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

/// Nanoseconds -> seconds as the tracer reports them.
bool near_ns(double seconds, double ns) { return std::fabs(seconds - ns * 1e-9) <= 1e-18; }

using perfbench::Layer;
using perfbench::Tracer;

void test_quantiles() {
  // Position q * (n - 1) over the sorted sample, interpolated linearly.
  const std::vector<double> v = {40, 10, 30, 20};  // sorted: 10 20 30 40
  EXPECT(near(perfbench::quantile(v, 0.0), 10));
  EXPECT(near(perfbench::quantile(v, 1.0), 40));
  EXPECT(near(perfbench::median(v), 25));                // pos 1.5
  EXPECT(near(perfbench::quantile(v, 0.99), 39.7));      // pos 2.97
  EXPECT(near(perfbench::quantile({7.5}, 0.99), 7.5));
  EXPECT(near(perfbench::median({3, 1, 2}), 2));
  bool threw = false;
  try {
    perfbench::quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_shares() {
  EXPECT(near(perfbench::share(1, 4), 0.25));
  EXPECT(near(perfbench::share(3, 0), 0.0));  // nothing attempted
  EXPECT(near(perfbench::relative_change(90, 100), -0.1));
  EXPECT(near(perfbench::relative_change(5, 0), 0.0));
}

void test_self_time() {
  // root [0, 100) holds child A [10, 40) and child B [50, 60); A holds a
  // grandchild [20, 25).  Self: root 100 - 40 = 60, A 30 - 5 = 25.
  Tracer t;
  t.open(Layer::kSim, "run", 0, 0, /*allocs=*/0);
  t.open(Layer::kWorkload, "take", 1, 10, 2);
  t.open(Layer::kCore, "inner", 1, 20, 3);
  t.close(25, 7);  // inner: 4 allocations
  t.close(40, 8);  // take: 6 allocations, 4 of them in inner
  t.open(Layer::kWorkload, "take", 2, 50, 8);
  t.close(60, 9);
  t.close(100, 20);  // run: 20 allocations, 7 in children
  EXPECT(near_ns(t.self_seconds(Layer::kSim), 60));
  EXPECT(near_ns(t.self_seconds(Layer::kWorkload), 25 + 10));
  EXPECT(near_ns(t.self_seconds(Layer::kCore), 5));
  EXPECT(near_ns(t.call_self_seconds("take"), 35));
  EXPECT(t.call_self_seconds("never") == 0.0);
  EXPECT(t.self_allocations(Layer::kSim) == 13);
  EXPECT(t.self_allocations(Layer::kWorkload) == 2 + 1);
  EXPECT(t.self_allocations(Layer::kCore) == 4);

  // Retained spans keep their parents and jobs.
  EXPECT(t.retained().size() == 4);
  EXPECT(t.retained()[0].parent == t.retained()[1].id);  // inner in take
  EXPECT(t.retained()[1].job == 1);
  EXPECT(t.retained()[3].parent == 0);  // run is a root
}

void test_retain_cap() {
  Tracer t(/*retain_cap=*/2);
  for (int i = 0; i < 5; ++i) {
    t.open(Layer::kRuntime, "submit", 0, i * 10);
    t.close(i * 10 + 3);
  }
  EXPECT(t.retained().size() == 2);
  EXPECT(t.dropped() == 3);
  // Dropped spans still count towards the totals.
  EXPECT(near_ns(t.self_seconds(Layer::kRuntime), 15));
  bool threw = false;
  try {
    t.close(99);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  test_quantiles();
  test_shares();
  test_self_time();
  test_retain_cap();
  if (failures == 0) std::fprintf(stderr, "arith_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
