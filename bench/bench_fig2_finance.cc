// Reproduces Figure 2(b): max flow time on the option-pricing finance
// workload at QPS 800 / 900 / 1000 under simulated OPT, steal-16-first,
// admit-first (and FIFO for reference).
#include "bench/fig2_common.h"

int main(int argc, char** argv) {
  using namespace pjsched;
  const auto args = bench::parse_args(argc, argv, benchfig2::kDefaultJobs);
  const auto dist = workload::finance_distribution();
  benchfig2::run_fig2(dist, {800.0, 900.0, 1000.0}, args, "Figure 2(b)");
  return 0;
}
