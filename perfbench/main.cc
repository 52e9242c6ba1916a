// perfbench: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints a stamp line (build, compiler, host, steal share over the run)
// and, as the last line, the result object the runner forwards:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write their spans to --spans.  A failed output
// check prints correct=false and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload replay-steal16|daemon-tenants --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spans_path;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || options.seconds < 1 ||
          options.seconds > 600)
        return usage(argv[0]);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      options.trace = value == "1";
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  // The top-level build defaults to RelWithDebInfo; numbers from anything
  // but Release are not comparable with the recorded ones.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to run a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Outcome (*run)(const Options&, Tracer*) = nullptr;
  if (options.workload == "replay-steal16") run = &run_replay;
  if (options.workload == "daemon-tenants") run = &run_daemon;
  if (run == nullptr) return usage(argv[0]);

  Tracer tracer;
  const CpuJiffies jiffies0 = read_cpu_jiffies();
  Outcome outcome;
  try {
    outcome = run(options, options.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 4;
  }
  const CpuJiffies jiffies1 = read_cpu_jiffies();
  const double steal_share =
      share(static_cast<double>(jiffies1.steal - jiffies0.steal),
            static_cast<double>(jiffies1.total - jiffies0.total));

  const std::uint64_t failed = outcome.failed + outcome.check_failures.size();
  if (options.trace) {
    outcome.add("failed_share",
                share(static_cast<double>(failed),
                      static_cast<double>(outcome.attempted)),
                "1");
    if (!spans_path.empty() && !tracer.write(spans_path))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   spans_path.c_str());
  } else {
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (const std::string& f : outcome.check_failures)
    std::fprintf(stderr, "perfbench: output check failed: %s\n", f.c_str());

  // Order the metrics as the list says; a layer that did not run reads 0.
  // A missing end-to-end metric, an unlisted one or a non-finite value is
  // a bug in the benchmark.
  const std::span<const MetricSpec> listed =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  std::vector<Outcome::Metric> metrics;
  std::size_t matched = 0;
  for (const MetricSpec& spec : listed) {
    const auto it = std::find_if(
        outcome.metrics.begin(), outcome.metrics.end(),
        [&](const Outcome::Metric& m) { return m.name == spec.name; });
    const bool measured = it != outcome.metrics.end();
    if ((!measured && !options.trace) ||
        (measured && !std::isfinite(it->value))) {
      std::fprintf(stderr, "perfbench: %s measured no finite %s\n",
                   options.workload.c_str(), spec.name);
      return 4;
    }
    matched += measured ? 1 : 0;
    metrics.push_back({spec.name, measured ? it->value : 0.0, spec.unit});
  }
  if (matched != outcome.metrics.size()) {
    std::fprintf(stderr, "perfbench: %s measured an unlisted metric\n",
                 options.workload.c_str());
    return 4;
  }

  std::string stamp = "{\"stamp\": {";
  stamp += "\"workload\": " + json_string(options.workload);
  stamp += ", \"seed\": " + std::to_string(options.seed);
  stamp += ", \"default_seed\": " + std::to_string(kDefaultSeed);
  stamp += ", \"held_out_seed\": " + std::to_string(kHeldOutSeed);
  stamp += ", \"seconds\": " + std::to_string(options.seconds);
  stamp += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  stamp += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  stamp += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  stamp += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  stamp += ", \"cpu_model\": " + json_string(cpu_model());
  stamp += ", \"threads\": " + std::to_string(outcome.threads);
  stamp += ", \"oversubscribed\": " +
           std::string(outcome.threads > std::thread::hardware_concurrency()
                           ? "true"
                           : "false");
  stamp += ", \"steal_share\": " + json_number(steal_share);
  stamp += "}}";
  std::printf("%s\n", stamp.c_str());

  const bool correct = outcome.check_failures.empty();
  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(outcome.attempted);
  result += ", \"failed\": " + std::to_string(failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Outcome::Metric& m = metrics[i];
    if (i > 0) result += ", ";
    result += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
