#include "src/cli/cli.h"

#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/bounds.h"
#include "src/core/multi_trial.h"
#include "src/core/run.h"
#include "src/metrics/gantt.h"
#include "src/metrics/table.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/instance_io.h"
#include "src/workload/streaming_source.h"

namespace pjsched::cli {

namespace {

struct Options {
  std::string command;
  std::string workload = "bing";
  std::string scheduler = "steal-16-first";
  std::size_t jobs = 2000;
  double qps = 1000.0;
  std::uint64_t seed = 42;
  std::size_t grains = 32;
  double units_per_ms = 100.0;
  unsigned m = 16;
  double speed = 1.0;
  std::string load_file;
  std::optional<std::size_t> gantt_width;
  std::string chrome_trace_file;
  std::optional<std::size_t> utilization_buckets;
  bool csv = false;
  std::vector<double> weight_classes = {1.0};
  std::size_t trials = 1;
  /// Memory-bounded run: stream the workload through the engine (O(live
  /// jobs) state) and report ratio vs the streamed lower bounds.
  bool streamed = false;
  /// Spill-mode trace file (sim::FileTraceSink); works at 10^6 jobs where
  /// an in-core trace would not.
  std::string trace_out_file;
  /// Machine-degradation events (--degrade).  Events whose speed was not
  /// given carry the sentinel speed < 0 and inherit --speed at use time.
  std::vector<core::MachineEvent> degradation;
};

/// Resolves the machine config for a run: base (m, speed) plus any
/// --degrade events, with unspecified event speeds inheriting --speed.
core::MachineConfig make_machine(const Options& opt) {
  core::MachineConfig machine{opt.m, opt.speed, opt.degradation};
  for (core::MachineEvent& e : machine.degradation)
    if (e.speed < 0.0) e.speed = opt.speed;
  return machine;
}

[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message);
}

bool consume(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options parse(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("missing command (run | generate | bounds)");
  Options opt;
  opt.command = args[0];
  if (opt.command != "run" && opt.command != "generate" &&
      opt.command != "bounds")
    usage_error("unknown command '" + opt.command + "'");

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string v;
    try {
      if (consume(arg, "workload", &v)) {
        opt.workload = v;
      } else if (consume(arg, "scheduler", &v)) {
        opt.scheduler = v;
      } else if (consume(arg, "jobs", &v)) {
        opt.jobs = core::parse_unsigned<std::size_t>(v);
      } else if (consume(arg, "qps", &v)) {
        opt.qps = std::stod(v);
      } else if (consume(arg, "seed", &v)) {
        opt.seed = core::parse_unsigned<std::uint64_t>(v);
      } else if (consume(arg, "grains", &v)) {
        opt.grains = core::parse_unsigned<std::size_t>(v);
      } else if (consume(arg, "units-per-ms", &v)) {
        opt.units_per_ms = std::stod(v);
      } else if (consume(arg, "m", &v)) {
        opt.m = core::parse_unsigned<unsigned>(v);
      } else if (consume(arg, "speed", &v)) {
        opt.speed = std::stod(v);
      } else if (consume(arg, "load", &v)) {
        opt.load_file = v;
      } else if (arg == "--gantt") {
        opt.gantt_width = 100;
      } else if (consume(arg, "gantt", &v)) {
        opt.gantt_width = core::parse_unsigned<std::size_t>(v);
      } else if (consume(arg, "chrome-trace", &v)) {
        opt.chrome_trace_file = v;
      } else if (consume(arg, "utilization", &v)) {
        opt.utilization_buckets = core::parse_unsigned<std::size_t>(v);
      } else if (arg == "--csv") {
        opt.csv = true;
      } else if (arg == "--streamed") {
        opt.streamed = true;
      } else if (consume(arg, "trace-out", &v)) {
        opt.trace_out_file = v;
      } else if (consume(arg, "weights", &v)) {
        opt.weight_classes.clear();
        std::istringstream iss(v);
        std::string tok;
        while (std::getline(iss, tok, ','))
          opt.weight_classes.push_back(std::stod(tok));
        if (opt.weight_classes.empty())
          usage_error("--weights needs at least one value");
      } else if (consume(arg, "trials", &v)) {
        opt.trials = core::parse_unsigned<std::size_t>(v);
        if (opt.trials == 0) usage_error("--trials must be >= 1");
      } else if (consume(arg, "degrade", &v)) {
        // Comma-separated machine events "t:m[:s]": at simulated time t the
        // machine drops (or recovers) to m processors, optionally changing
        // speed to s.  Work-stealing (step-engine) schedulers reject speed
        // changes — their step length is fixed at 1/s.
        std::istringstream events(v);
        std::string tok;
        while (std::getline(events, tok, ',')) {
          std::istringstream fields(tok);
          std::string t_str, m_str, s_str;
          if (!std::getline(fields, t_str, ':') ||
              !std::getline(fields, m_str, ':'))
            usage_error("--degrade events are t:m[:s], got '" + tok + "'");
          core::MachineEvent e;
          e.time = std::stod(t_str);
          e.processors = core::parse_unsigned<unsigned>(m_str);
          e.speed = std::getline(fields, s_str, ':') ? std::stod(s_str)
                                                     : -1.0;  // inherit
          opt.degradation.push_back(e);
        }
        if (opt.degradation.empty())
          usage_error("--degrade needs at least one t:m[:s] event");
      } else {
        usage_error("unknown flag '" + arg + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      usage_error("bad value in '" + arg + "'");
    }
  }
  return opt;
}

std::unique_ptr<workload::WorkDistribution> make_distribution(
    const std::string& name) {
  if (name == "bing")
    return std::make_unique<workload::DiscreteWorkDistribution>(
        workload::bing_distribution());
  if (name == "finance")
    return std::make_unique<workload::DiscreteWorkDistribution>(
        workload::finance_distribution());
  if (name == "lognormal")
    return std::make_unique<workload::LognormalWorkDistribution>(
        workload::default_lognormal_distribution());
  usage_error("unknown workload '" + name + "'");
}

/// Builds the generator config every generated workload shares.
workload::GeneratorConfig make_generator(const Options& opt) {
  workload::GeneratorConfig gen;
  gen.num_jobs = opt.jobs;
  gen.qps = opt.qps;
  gen.seed = opt.seed;
  gen.grains = opt.grains;
  gen.units_per_ms = opt.units_per_ms;
  gen.weight_classes = opt.weight_classes;
  return gen;
}

core::Instance obtain_instance(const Options& opt) {
  if (!opt.load_file.empty()) {
    std::ifstream in(opt.load_file);
    if (!in) usage_error("cannot open instance file '" + opt.load_file + "'");
    return workload::read_instance(in);
  }
  const auto dist = make_distribution(opt.workload);
  return workload::generate_instance(*dist, make_generator(opt));
}

// Multi-trial run: aggregate statistics across seeds (no trace options).
int cmd_run_trials(const Options& opt, std::ostream& out) {
  if (!opt.load_file.empty())
    usage_error("--trials cannot be combined with --load (trials resample "
                "the workload)");
  const auto dist = make_distribution(opt.workload);
  core::TrialConfig cfg;
  cfg.trials = opt.trials;
  cfg.generator = make_generator(opt);
  cfg.machine = make_machine(opt);
  cfg.scheduler = core::parse_scheduler(opt.scheduler);
  cfg.scheduler.seed = opt.seed;
  const auto res = core::run_trials(*dist, cfg);

  metrics::Table table({"metric", "mean", "stddev", "min", "max"});
  const auto add = [&](const char* name, const metrics::Summary& s,
                       double scale) {
    table.add_row({name, metrics::Table::cell(s.mean / scale),
                   metrics::Table::cell(s.stddev / scale),
                   metrics::Table::cell(s.min / scale),
                   metrics::Table::cell(s.max / scale)});
  };
  out << "scheduler " << opt.scheduler << ", " << opt.trials
      << " trials, jobs " << opt.jobs << ", m=" << opt.m << ", speed "
      << opt.speed << " (flow rows in ms)\n";
  add("max_flow_ms", res.max_flow, opt.units_per_ms);
  add("mean_flow_ms", res.mean_flow, opt.units_per_ms);
  add("max_weighted_flow_ms", res.max_weighted_flow, opt.units_per_ms);
  add("ratio_to_opt", res.ratio_to_opt, 1.0);
  table.print(out);
  return 0;
}

int cmd_generate(const Options& opt, std::ostream& out) {
  const core::Instance inst = obtain_instance(opt);
  workload::write_instance(out, inst);
  return 0;
}

void print_bounds_table(const core::LowerBoundSet& b, double units_per_ms,
                        std::ostream& out) {
  metrics::Table table({"bound", "value_units", "value_ms"});
  const auto add = [&](const char* name, double v) {
    table.add_row({name, metrics::Table::cell(v),
                   metrics::Table::cell(v / units_per_ms)});
  };
  add("span (max P_i)", b.span);
  add("work (max W_i/m)", b.work);
  add("opt-sim (Sec 6)", b.opt_sim);
  add("combined", b.combined);
  add("weighted span", b.weighted_span);
  add("weighted combined", b.weighted_combined);
  table.print(out);
}

int cmd_bounds(const Options& opt, std::ostream& out) {
  if (opt.streamed && opt.load_file.empty()) {
    // One O(1)-state pass over the generated stream — no instance in
    // memory, so --jobs can be 10^6+.  Bitwise-equal to the materialized
    // path below on the same config.
    const auto dist = make_distribution(opt.workload);
    workload::GeneratedJobSource source(*dist, make_generator(opt));
    print_bounds_table(core::stream_lower_bounds(source, opt.m),
                       opt.units_per_ms, out);
    return 0;
  }
  print_bounds_table(core::lower_bounds(obtain_instance(opt), opt.m),
                     opt.units_per_ms, out);
  return 0;
}

// Memory-bounded run: streams the workload twice — one O(1)-state pass for
// the lower bounds, one O(live jobs) pass for the scheduler — and reports
// the competitive ratio without ever materializing the instance.
int cmd_run_stream(const Options& opt, std::ostream& out) {
  if (opt.trials > 1)
    usage_error("--streamed cannot be combined with --trials");
  if (opt.gantt_width.has_value() || !opt.chrome_trace_file.empty() ||
      opt.utilization_buckets.has_value())
    usage_error(
        "--streamed records traces via --trace-out=FILE; in-core trace views "
        "(--gantt/--chrome-trace/--utilization) need a materialized run");
  auto spec = core::parse_scheduler(opt.scheduler);
  spec.seed = opt.seed;
  const core::MachineConfig machine = make_machine(opt);

  std::unique_ptr<sim::FileTraceSink> sink;
  std::unique_ptr<sim::Trace> trace;
  if (!opt.trace_out_file.empty()) {
    sink = std::make_unique<sim::FileTraceSink>(opt.trace_out_file);
    trace = std::make_unique<sim::Trace>(sink.get());
  }

  core::StreamRatioResult res;
  if (!opt.load_file.empty()) {
    const core::Instance inst = obtain_instance(opt);
    core::InstanceSource bound_source(inst);
    core::InstanceSource run_source(inst);
    res = core::run_scheduler_streamed_with_bounds(
        run_source, bound_source, spec, machine, nullptr, trace.get());
  } else {
    const auto dist = make_distribution(opt.workload);
    const workload::GeneratorConfig gen = make_generator(opt);
    workload::GeneratedJobSource bound_source(*dist, gen);
    workload::GeneratedJobSource run_source(*dist, gen);
    res = core::run_scheduler_streamed_with_bounds(
        run_source, bound_source, spec, machine, nullptr, trace.get());
  }
  const double u = opt.units_per_ms;

  if (opt.csv) {
    metrics::Table table({"scheduler", "jobs", "m", "speed", "max_flow_ms",
                          "mean_flow_ms", "max_weighted_flow_ms",
                          "makespan_ms", "combined_bound_ms", "ratio"});
    table.add_row(
        {res.run.scheduler_name, metrics::Table::cell(std::uint64_t{
                                     res.run.jobs}),
         metrics::Table::cell(std::uint64_t{opt.m}),
         metrics::Table::cell(opt.speed),
         metrics::Table::cell(res.run.max_flow / u),
         metrics::Table::cell(res.run.mean_flow / u),
         metrics::Table::cell(res.run.max_weighted_flow / u),
         metrics::Table::cell(res.run.makespan / u),
         metrics::Table::cell(res.bounds.combined / u),
         metrics::Table::cell(res.ratio)});
    table.print_csv(out);
  } else {
    out << "scheduler:        " << res.run.scheduler_name << " (streamed)\n"
        << "jobs:             " << res.run.jobs << "\n"
        << "machine:          m=" << opt.m << ", speed " << opt.speed << "\n"
        << "max flow:         " << res.run.max_flow / u << " ms (job "
        << res.run.argmax_flow << ")\n"
        << "mean flow:        " << res.run.mean_flow / u << " ms\n"
        << "p99 flow:         " << res.run.flow.p99 / u << " ms ("
        << (res.run.flow_quantiles_exact ? "exact" : "reservoir estimate")
        << ")\n"
        << "max weighted:     " << res.run.max_weighted_flow / u
        << " weighted-ms\n"
        << "makespan:         " << res.run.makespan / u << " ms\n"
        << "combined bound:   " << res.bounds.combined / u << " ms\n"
        << "opt-sim bound:    " << res.bounds.opt_sim / u << " ms\n"
        << "ratio to bound:   " << res.ratio << "\n";
    if (res.weighted_ratio > 0.0 && res.weighted_ratio != res.ratio)
      out << "weighted ratio:   " << res.weighted_ratio << "\n";
    if (res.run.stats.steal_attempts > 0 || res.run.stats.admissions > 0)
      out << "steals:           " << res.run.stats.successful_steals << "/"
          << res.run.stats.steal_attempts << " successful, "
          << res.run.stats.admissions << " admissions\n";
  }
  if (sink != nullptr)
    out << "trace written to " << opt.trace_out_file << " ("
        << sink->intervals_written() << " intervals, "
        << sink->steals_written() << " steals, "
        << sink->admissions_written() << " admissions)\n";
  return 0;
}

int cmd_run(const Options& opt, std::ostream& out) {
  if (opt.streamed) return cmd_run_stream(opt, out);
  if (opt.trials > 1) return cmd_run_trials(opt, out);
  const core::Instance inst = obtain_instance(opt);
  auto spec = core::parse_scheduler(opt.scheduler);
  spec.seed = opt.seed;

  const bool want_trace = opt.gantt_width.has_value() ||
                          !opt.chrome_trace_file.empty() ||
                          opt.utilization_buckets.has_value();
  std::unique_ptr<sim::FileTraceSink> sink;
  std::unique_ptr<sim::Trace> spill;
  if (!opt.trace_out_file.empty()) {
    if (want_trace)
      usage_error(
          "--trace-out spills the trace to disk and cannot feed the in-core "
          "views (--gantt/--chrome-trace/--utilization)");
    sink = std::make_unique<sim::FileTraceSink>(opt.trace_out_file);
    spill = std::make_unique<sim::Trace>(sink.get());
  }
  sim::Trace trace;
  const core::MachineConfig machine = make_machine(opt);
  sim::Trace* trace_ptr =
      spill != nullptr ? spill.get() : (want_trace ? &trace : nullptr);
  const auto res = core::run_scheduler(inst, spec, machine, trace_ptr);

  if (opt.csv) {
    metrics::Table table({"scheduler", "jobs", "m", "speed", "max_flow_ms",
                          "mean_flow_ms", "max_weighted_flow_ms",
                          "makespan_ms", "steals", "admissions"});
    table.add_row({res.scheduler_name, metrics::Table::cell(std::uint64_t{
                                           inst.size()}),
                   metrics::Table::cell(std::uint64_t{opt.m}),
                   metrics::Table::cell(opt.speed),
                   metrics::Table::cell(res.max_flow / opt.units_per_ms),
                   metrics::Table::cell(res.mean_flow / opt.units_per_ms),
                   metrics::Table::cell(res.max_weighted_flow / opt.units_per_ms),
                   metrics::Table::cell(res.makespan / opt.units_per_ms),
                   metrics::Table::cell(res.stats.steal_attempts),
                   metrics::Table::cell(res.stats.admissions)});
    table.print_csv(out);
  } else {
    out << "scheduler:        " << res.scheduler_name << "\n"
        << "jobs:             " << inst.size() << "\n"
        << "machine:          m=" << opt.m << ", speed " << opt.speed;
    for (const core::MachineEvent& e : machine.degradation)
      out << ", @" << e.time << "->m=" << e.processors << "/s=" << e.speed;
    out << "\n"
        << "max flow:         " << res.max_flow / opt.units_per_ms
        << " ms (job " << res.argmax_flow << ")\n"
        << "mean flow:        " << res.mean_flow / opt.units_per_ms << " ms\n"
        << "max weighted:     " << res.max_weighted_flow / opt.units_per_ms
        << " weighted-ms\n"
        << "makespan:         " << res.makespan / opt.units_per_ms << " ms\n"
        << "opt lower bound:  "
        << core::lower_bounds(inst, opt.m).opt_sim / opt.units_per_ms
        << " ms\n";
    if (res.stats.steal_attempts > 0 || res.stats.admissions > 0)
      out << "steals:           " << res.stats.successful_steals << "/"
          << res.stats.steal_attempts << " successful, "
          << res.stats.admissions << " admissions\n";
  }

  if (opt.gantt_width.has_value()) {
    metrics::GanttOptions gopt;
    gopt.width = *opt.gantt_width;
    out << "\n" << metrics::ascii_gantt(trace, opt.m, gopt);
  }
  if (opt.utilization_buckets.has_value()) {
    const auto busy =
        metrics::utilization_timeline(trace, *opt.utilization_buckets);
    out << "\nutilization profile (busy processors per bucket):\n";
    for (std::size_t b = 0; b < busy.size(); ++b) {
      out << "  [" << b << "] " << busy[b] << " ";
      out << std::string(static_cast<std::size_t>(busy[b] * 2.0), '#') << "\n";
    }
  }
  if (!opt.chrome_trace_file.empty()) {
    std::ofstream f(opt.chrome_trace_file);
    if (!f)
      usage_error("cannot write chrome trace '" + opt.chrome_trace_file + "'");
    metrics::write_chrome_trace(f, trace);
    out << "\nchrome trace written to " << opt.chrome_trace_file
        << " (open in chrome://tracing)\n";
  }
  if (sink != nullptr)
    out << "trace written to " << opt.trace_out_file << " ("
        << sink->intervals_written() << " intervals, "
        << sink->steals_written() << " steals, "
        << sink->admissions_written() << " admissions)\n";
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    const Options opt = parse(args);
    if (opt.command == "generate") return cmd_generate(opt, out);
    if (opt.command == "bounds") return cmd_bounds(opt, out);
    return cmd_run(opt, out);
  } catch (const std::invalid_argument& e) {
    err << "pjsched_cli: " << e.what() << "\n"
        << "usage: pjsched_cli <run|generate|bounds> [--workload=bing|"
           "finance|lognormal] [--scheduler=NAME] [--jobs=N] [--qps=Q]\n"
           "       [--m=M] [--speed=S] [--seed=S] [--grains=G]\n"
           "       [--units-per-ms=U] [--load=FILE] [--gantt[=W]]\n"
           "       [--chrome-trace=FILE] [--utilization=B] [--csv]\n"
           "       [--weights=w1,w2,...] [--trials=R]\n"
           "       [--streamed]  (memory-bounded run/bounds: O(live jobs) "
           "state,\n"
           "        reports ratio vs the streamed lower bounds)\n"
           "       [--trace-out=FILE]  (bounded-memory spill trace; works "
           "at 10^6 jobs)\n"
           "       [--degrade=t:m[:s],...]  (machine loses/recovers "
           "processors at time t;\n"
           "        work-stealing schedulers reject speed changes)\n";
    return 2;
  }
}

}  // namespace pjsched::cli
