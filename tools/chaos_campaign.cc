// chaos_campaign — seeded fault campaigns against the scheduling daemon,
// with invariant assertions after every trial.
//
// Each trial runs the SAME nice workload twice, then a churn run:
//
//   baseline  a well-behaved tenant ("nice") paces records into a healthy
//             daemon; its max flow time is the trial's reference p100;
//   chaos     the same nice tenant runs while (a) an adversarial tenant
//             floods thousands of records, (b) the pool executes under a
//             seeded FaultPlan (task failures, a stalled worker, admission
//             delay), and (c) a TCP feed connection sends good records,
//             malformed lines, an oversize line, and then disconnects
//             mid-line;
//   churn     the flood again, beside thousands of tenants that each send
//             one record and leave (under the same fault plan).
//
// After the chaos and churn runs drain, the harness asserts the service
// invariants:
//
//   * no deadlock: drain() completes within its timeout;
//   * no lost jobs: every tenant's submitted == completed + failed +
//     deadline_expired + shed + rejected, and nothing is left in flight;
//   * shed accounting exact: the router's conservation law
//     accepted == popped + shed_fair_share + shed_queued + depth holds,
//     total pushes reconcile against per-tenant books, and the pool's
//     AdmissionQueue books balance;
//   * hostile input contained: the malformed / oversize / partial lines
//     were quarantined and counted, never submitted, never fatal;
//   * overload actually engaged: the flooding tenant was shed;
//   * departed tenants cost nothing: after the churn run drains, the
//     router holds at most `capacity` tenant entries;
//   * fairness: the nice tenant keeps completing, and its max flow stays
//     within 2x the baseline (with a floor for timer/sanitizer noise).
//
// Exit status is 0 iff every trial passes every invariant.
//
//   chaos_campaign --trials=20 --seed-base=42
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run.h"
#include "src/service/daemon.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"

namespace {

namespace service = pjsched::service;
using Clock = service::Clock;
using pjsched::core::parse_unsigned;

struct Options {
  unsigned trials = 20;
  std::uint64_t seed_base = 42;
  bool verbose = false;
};

constexpr unsigned kNiceRecords = 40;
constexpr unsigned kFloodRecords = 2500;
constexpr unsigned kChurnTenants = 3000;
constexpr double kFloorSeconds = 0.05;  // timer/sanitizer noise floor
constexpr double kFlowBoundFactor = 2.0;

service::DaemonConfig make_config(std::uint64_t seed, bool chaos) {
  service::DaemonConfig config;
  config.pool.workers = 2;
  config.pool.watchdog_interval = std::chrono::milliseconds(25);
  config.pool.watchdog_sink = [](const std::string&) {};  // counted, not
                                                          // spammed
  config.router.capacity = 96;
  config.tick_interval = std::chrono::milliseconds(1);
  config.ns_per_unit = 2000.0;
  config.read_deadline = std::chrono::milliseconds(2000);
  // Sharded ingest even on small hosts: the campaign must exercise the
  // accept handoff and batched admission from more than one io shard.
  config.io_threads = 2;
  if (chaos) {
    config.tcp_port = 0;  // ephemeral loopback listener for the feed thread
    config.pool.fault_plan.seed = seed;
    config.pool.fault_plan.task_failure_probability = 0.01;
    config.pool.fault_plan.worker_stalls.push_back(
        {0, std::chrono::microseconds(200 + 50 * (seed % 5))});
    config.pool.fault_plan.admission_delay =
        std::chrono::microseconds(10 + 5 * (seed % 4));
  }
  return config;
}

service::JobRecord nice_record(std::uint64_t i) {
  service::JobRecord r;
  r.tenant = "nice";
  r.work = 4.0;
  r.fanout = 2;
  r.client_id = i + 1;
  return r;
}

/// Paces the nice tenant's records 1ms apart (open-loop, like the loadgen).
void run_nice_tenant(service::Daemon& daemon) {
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kNiceRecords; ++i) {
    daemon.submit_record(nice_record(i));
    const auto due = start + std::chrono::milliseconds(i + 1);
    while (Clock::now() < due)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void run_flood_tenant(service::Daemon& daemon) {
  for (std::uint64_t i = 0; i < kFloodRecords; ++i) {
    service::JobRecord r;
    r.tenant = "flood";
    r.work = 8.0;
    r.client_id = i + 1;
    // Every fourth flood record carries a deadline it cannot make, so the
    // campaign exercises the deadline-expired terminal path under load.
    if (i % 4 == 3) r.deadline_ms = 1;
    daemon.submit_record(std::move(r));
  }
}

/// One record from each of kChurnTenants tenants never seen before.
void run_churn_tenants(service::Daemon& daemon) {
  for (std::uint64_t i = 0; i < kChurnTenants; ++i) {
    service::JobRecord r;
    r.tenant = "churn-" + std::to_string(i);
    r.work = 1.0;
    r.client_id = i + 1;
    daemon.submit_record(std::move(r));
  }
}

/// The hostile feed: good records, a malformed line, an oversize line, and
/// a disconnect mid-record.  Returns false when the connection could not
/// be established (a trial violation: the daemon should be listening).
bool run_hostile_feed(int port, std::string* error) {
  const int fd = service::connect_tcp("127.0.0.1",
                                      static_cast<std::uint16_t>(port), error);
  if (fd < 0) return false;
  std::string payload;
  for (int i = 0; i < 5; ++i)
    payload += "job feed 2 fanout=1 id=" + std::to_string(i + 1) + "\n";
  payload += "job\n";                                     // malformed: no work
  payload += "job feed nope\n";                           // malformed: bad work
  payload += std::string(service::kMaxLineBytes + 64, 'a') + "\n";  // oversize
  payload += "job feed 2 id=";  // mid-line, then disconnect
  const bool ok = service::write_all(fd, payload);
  service::close_fd(fd);
  return ok;
}

struct TrialOutcome {
  std::vector<std::string> violations;
  double baseline_p100 = 0.0;
  double chaos_p100 = 0.0;
  service::DaemonSnapshot snapshot;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

std::string fmt(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Shared post-drain bookkeeping checks (both phases must balance).
void check_books(const service::DaemonSnapshot& s, const std::string& phase,
                 TrialOutcome* out) {
  out->check(s.inflight == 0, phase + ": jobs still in flight after drain");
  std::uint64_t submitted_total = 0;
  for (const auto& [name, t] : s.tenants) {
    submitted_total += t.submitted;
    out->check(t.submitted == t.terminal(),
               phase + ": tenant " + name + " lost records (submitted=" +
                   std::to_string(t.submitted) + " terminal=" +
                   std::to_string(t.terminal()) + ")");
  }
  // Router conservation: only accepted records sit in queues...
  const auto& r = s.router;
  out->check(r.accepted == r.popped + r.shed_fair_share + r.shed_queued +
                               static_cast<std::uint64_t>(r.depth),
             phase + ": router conservation broken (accepted=" +
                 std::to_string(r.accepted) + " popped=" +
                 std::to_string(r.popped) + " shed_fair=" +
                 std::to_string(r.shed_fair_share) + " shed_queued=" +
                 std::to_string(r.shed_queued) + " depth=" +
                 std::to_string(r.depth) + ")");
  // ...and every push is either accepted or dropped at arrival, so the
  // per-tenant books reconcile against the router exactly.
  const std::uint64_t arrival_drops =
      r.shed_arrival_full + r.shed_new + r.rejected_tenant + r.rejected_drain;
  out->check(submitted_total == r.accepted + arrival_drops,
             phase + ": shed accounting inexact (submitted=" +
                 std::to_string(submitted_total) + " accepted=" +
                 std::to_string(r.accepted) + " arrival_drops=" +
                 std::to_string(arrival_drops) + ")");
  // Pool admission books: accepted == popped + depth.
  const auto& a = s.admission;
  out->check(a.accepted == a.popped + static_cast<std::uint64_t>(a.depth),
             phase + ": admission queue books broken (accepted=" +
                 std::to_string(a.accepted) + " popped=" +
                 std::to_string(a.popped) + " depth=" +
                 std::to_string(a.depth) + ")");
}

TrialOutcome run_trial(std::uint64_t seed, bool verbose) {
  TrialOutcome out;

  // Phase 1: baseline — the nice tenant alone on a healthy daemon.
  {
    service::Daemon daemon(make_config(seed, /*chaos=*/false));
    daemon.set_weight("nice", 2.0);
    run_nice_tenant(daemon);
    out.check(daemon.drain(std::chrono::milliseconds(10000)),
              "baseline: drain timed out (deadlock)");
    const service::DaemonSnapshot s = daemon.snapshot();
    check_books(s, "baseline", &out);
    const auto it = s.tenants.find("nice");
    out.check(it != s.tenants.end() && it->second.completed == kNiceRecords,
              "baseline: nice tenant did not complete every record");
    if (it != s.tenants.end()) out.baseline_p100 = it->second.max_flow_seconds;
  }

  // Phase 2: chaos — same nice workload under flood + faults + hostile feed.
  {
    service::Daemon daemon(make_config(seed, /*chaos=*/true));
    daemon.set_weight("nice", 2.0);

    std::string feed_error;
    bool feed_ok = true;
    std::thread flood([&daemon] { run_flood_tenant(daemon); });
    std::thread nice([&daemon] { run_nice_tenant(daemon); });
    std::thread feed([&daemon, &feed_ok, &feed_error] {
      feed_ok = run_hostile_feed(daemon.tcp_port(), &feed_error);
    });
    flood.join();
    nice.join();
    feed.join();
    out.check(feed_ok, "chaos: hostile feed failed: " + feed_error);

    // Give the io thread one poll cycle to observe the disconnect before
    // draining (the partial-line quarantine is part of the invariants).
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    out.check(daemon.drain(std::chrono::milliseconds(30000)),
              "chaos: drain timed out (deadlock)");

    const service::DaemonSnapshot s = daemon.snapshot();
    out.snapshot = s;
    check_books(s, "chaos", &out);

    // Hostile input was contained, not fatal, and never became a record.
    out.check(s.feed.malformed >= 2, "chaos: malformed lines not quarantined");
    out.check(s.feed.oversize >= 1, "chaos: oversize line not counted");
    out.check(s.feed.partial >= 1,
              "chaos: mid-line disconnect not quarantined as partial");
    out.check(s.feed.disconnects >= 1, "chaos: disconnect not observed");
    out.check(!s.quarantine.empty(), "chaos: quarantine kept no samples");

    const auto flood_it = s.tenants.find("flood");
    out.check(flood_it != s.tenants.end() &&
                  flood_it->second.shed + flood_it->second.rejected > 0,
              "chaos: flooding tenant was never shed (overload response "
              "did not engage)");

    const auto nice_it = s.tenants.find("nice");
    out.check(nice_it != s.tenants.end() && nice_it->second.flow_samples > 0,
              "chaos: nice tenant starved (no completions)");
    if (nice_it != s.tenants.end()) {
      out.chaos_p100 = nice_it->second.max_flow_seconds;
      // The well-behaved tenant's completions must dominate: fair shedding
      // targets the flooder, and the 1% fault rate cannot explain losing
      // half the nice records.
      out.check(nice_it->second.completed * 2 >= nice_it->second.submitted,
                "chaos: nice tenant lost too many records (completed=" +
                    std::to_string(nice_it->second.completed) + "/" +
                    std::to_string(nice_it->second.submitted) + ")");
      const double bound =
          kFlowBoundFactor * std::max(out.baseline_p100, kFloorSeconds);
      out.check(out.chaos_p100 <= bound,
                "chaos: nice tenant max flow " + fmt(out.chaos_p100) +
                    "s exceeds bound " + fmt(bound) + "s (baseline " +
                    fmt(out.baseline_p100) + "s)");
    }

    if (verbose) std::cout << daemon.metrics_text();
  }

  // Phase 3: tenant churn beside the flood, under the same fault plan.
  {
    const service::DaemonConfig config = make_config(seed, /*chaos=*/true);
    service::Daemon daemon(config);
    std::thread flood([&daemon] { run_flood_tenant(daemon); });
    run_churn_tenants(daemon);
    flood.join();
    out.check(daemon.drain(std::chrono::milliseconds(30000)),
              "churn: drain timed out (deadlock)");
    const service::DaemonSnapshot s = daemon.snapshot();
    check_books(s, "churn", &out);
    out.check(s.router.tenants <= config.router.capacity,
              "churn: router kept " + std::to_string(s.router.tenants) +
                  " tenant entries after drain (capacity " +
                  std::to_string(config.router.capacity) + ")");
  }
  return out;
}

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--trials=N] [--seed-base=S] [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (parse_flag(arg, "trials", &v))
        opts.trials = parse_unsigned<unsigned>(v);
      else if (parse_flag(arg, "seed-base", &v))
        opts.seed_base = parse_unsigned<std::uint64_t>(v);
      else if (arg == "--verbose")
        opts.verbose = true;
      else
        return usage(argv[0]);
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }

  unsigned failed = 0;
  for (unsigned trial = 0; trial < opts.trials; ++trial) {
    const std::uint64_t seed = opts.seed_base + trial;
    TrialOutcome out;
    try {
      out = run_trial(seed, opts.verbose);
    } catch (const std::exception& e) {
      out.violations.push_back(std::string("uncaught exception: ") + e.what());
    }
    const auto& r = out.snapshot.router;
    std::cout << "trial " << (trial + 1) << "/" << opts.trials
              << " seed=" << seed
              << " baseline_p100=" << fmt(out.baseline_p100) << "s"
              << " chaos_p100=" << fmt(out.chaos_p100) << "s"
              << " shed=" << r.total_shed() << " popped=" << r.popped << " "
              << (out.violations.empty() ? "PASS" : "FAIL") << "\n";
    for (const std::string& v : out.violations)
      std::cout << "  VIOLATION: " << v << "\n";
    if (!out.violations.empty()) ++failed;
  }

  if (failed > 0) {
    std::cout << "chaos_campaign: " << failed << "/" << opts.trials
              << " trials FAILED\n";
    return 1;
  }
  std::cout << "chaos_campaign: all " << opts.trials << " trials passed\n";
  return 0;
}
