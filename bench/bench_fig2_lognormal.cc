// Reproduces Figure 2(c): max flow time on the synthetic log-normal
// workload at QPS 800 / 1000 / 1200 under simulated OPT, steal-16-first,
// admit-first (and FIFO for reference).
#include "bench/fig2_common.h"

int main(int argc, char** argv) {
  using namespace pjsched;
  const auto args = bench::parse_args(argc, argv, benchfig2::kDefaultJobs);
  const auto dist = workload::default_lognormal_distribution();
  benchfig2::run_fig2(dist, {800.0, 1000.0, 1200.0}, args, "Figure 2(c)");
  return 0;
}
