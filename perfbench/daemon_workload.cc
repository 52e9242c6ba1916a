// daemon-tenants: the service plane.  An in-process service::Daemon (one
// io shard, two steal-16 workers, a router large enough to admit the
// burst without shedding) is fed by one client thread — the benchmark's
// main thread — over one loopback TCP connection, in three phases:
//
//   1. warm-up: open-loop traffic from a tenant of its own, excluded from
//      every figure;
//   2. open loop: Poisson arrivals of small jobs (0.1-0.3 ms of spin,
//      mostly unsplit) from tenants t1..t4 weighted {1, 1, 2, 4}, at ~40%
//      of the pool's capacity; each tenant sends in proportion to its
//      weight.  The CPU the daemon spends here beyond the jobs' own spin
//      (io loop, parse, admit, dispatch, reaping, idle workers) is its
//      per-job overhead;
//   3. burst: tiny jobs from tenant t5, written at once and drained with
//      Daemon::drain.  The completion rate is the daemon's capacity, which
//      its dispatch window and the dispatcher's wake-ups set.
//
// The schedule is made by the benchmark's own generator from the seed
// before the daemon starts.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/service/daemon.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"
#include "src/service/tenant_router.h"

namespace perfbench {

namespace {

using namespace pjsched;

constexpr unsigned kWorkers = 2;
constexpr double kNsPerUnit = 1000.0;  // one work unit = 1 us of spin
constexpr double kLoad = 0.4;          // open-loop share of pool capacity
constexpr double kMinWork = 100, kMaxWork = 300;  // open-loop job, units
constexpr double kSplitShare = 0.2;    // open-loop jobs split four ways
constexpr double kBurstMinWork = 10, kBurstMaxWork = 30;
constexpr double kWarmupSeconds = 2.0;
constexpr double kOpenLoopShare = 0.6;     // of --seconds
constexpr double kBurstPerSecond = 3000;   // burst records per --seconds
constexpr int kSetupSamples = 61;
constexpr std::size_t kParseBatch = 256;   // as the daemon's io loop
constexpr int kFeedReplays = 5;
constexpr auto kPhaseTimeout = std::chrono::seconds(60);

struct Tenant {
  const char* name;
  double weight;
};
constexpr Tenant kTenants[] = {{"t1", 1}, {"t2", 1}, {"t3", 2}, {"t4", 4}};
constexpr const char* kBurstTenant = "t5";
constexpr const char* kWarmTenant = "warm";

/// splitmix64: the benchmark's own generator, so no program code runs to
/// make the schedule.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// One open-loop phase: record lines with due offsets from the phase start.
struct Schedule {
  std::vector<std::string> lines;
  std::vector<double> due_s;
  double work = 0;  ///< units over all records
  std::string bytes() const {
    std::string all;
    for (const std::string& l : lines) all += l;
    return all;
  }
};

/// Poisson arrivals at kLoad of capacity; tenants in proportion to
/// weight, or all `tenant` when given.
Schedule open_loop(Rng& rng, double seconds, const char* tenant) {
  const double mean_work_s = (kMinWork + kMaxWork) / 2 * kNsPerUnit * 1e-9;
  const double rate = kLoad * kWorkers / mean_work_s;
  double weight_sum = 0;
  for (const Tenant& t : kTenants) weight_sum += t.weight;
  Schedule s;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    service::JobRecord r;
    double pick = rng.uniform() * weight_sum;
    r.tenant = kTenants[3].name;
    for (const Tenant& tn : kTenants) {
      if (pick < tn.weight) {
        r.tenant = tn.name;
        break;
      }
      pick -= tn.weight;
    }
    if (tenant != nullptr) r.tenant = tenant;
    r.fanout = rng.uniform() < kSplitShare ? 4 : 1;
    // Whole units per task, so the daemon spins exactly `work` units.
    r.work = r.fanout * std::floor((kMinWork + rng.uniform() *
                                    (kMaxWork - kMinWork + 1)) / r.fanout);
    s.work += r.work;
    r.client_id = s.lines.size() + 1;
    s.lines.push_back(service::format_record(r) + "\n");
    s.due_s.push_back(t);
  }
  return s;
}

std::string burst(Rng& rng, std::size_t records) {
  std::string all;
  for (std::size_t i = 0; i < records; ++i) {
    service::JobRecord r;
    r.tenant = kBurstTenant;
    r.work = std::floor(kBurstMinWork +
                        rng.uniform() * (kBurstMaxWork - kBurstMinWork + 1));
    r.client_id = i + 1;
    all += service::format_record(r) + "\n";
  }
  return all;
}

service::DaemonConfig daemon_config(std::uint64_t seed, std::size_t burst) {
  service::DaemonConfig config;
  config.pool.workers = kWorkers;
  config.pool.steal_k = 16;
  config.pool.seed = seed;
  // Capacity is split evenly over the shards and the burst tenant hashes to
  // one of them: give that shard room for the whole burst twice over, so
  // nothing is shed and the ladder stays at its first rung.
  config.router.capacity = config.router.shards * 2 * burst;
  config.tcp_port = 0;
  config.io_threads = 1;
  // The client's connection sits idle while the benchmark waits out a
  // phase; the default 5 s deadline would close it.
  config.read_deadline = std::chrono::milliseconds(60000);
  config.ns_per_unit = kNsPerUnit;
  return config;
}

/// Sends `metrics` and reads the reply through its `end` line.
bool metrics_round_trip(int fd) {
  if (!service::write_all(fd, "metrics\n")) return false;
  std::string reply;
  char buf[4096];
  while (reply.size() < 4 || reply.compare(reply.size() - 4, 4, "end\n") != 0) {
    if (!service::wait_readable(fd, std::chrono::milliseconds(10000)))
      return false;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return false;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

struct Connected {
  std::unique_ptr<service::Daemon> daemon;
  int fd = -1;
};

Connected start(const service::DaemonConfig& config, Tracer* tracer) {
  Connected c;
  {
    Scope span(tracer, Layer::kService, "Daemon::Daemon");
    c.daemon = std::make_unique<service::Daemon>(config);
  }
  std::string error;
  c.fd = service::connect_tcp(
      "127.0.0.1", static_cast<std::uint16_t>(c.daemon->tcp_port()), &error);
  if (c.fd < 0) throw std::runtime_error("connect: " + error);
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (!metrics_round_trip(c.fd))
    throw std::runtime_error("metrics round trip failed");
  for (const Tenant& t : kTenants) c.daemon->set_weight(t.name, t.weight);
  return c;
}

service::DaemonSnapshot snapshot(service::Daemon& d, Tracer* tracer) {
  Scope span(tracer, Layer::kService, "Daemon::snapshot");
  return d.snapshot();
}

bool send(int fd, std::string_view bytes, Tracer* tracer) {
  Scope span(tracer, Layer::kService, "write_all");
  return service::write_all(fd, bytes);
}

/// Sends a schedule open-loop from one thread; returns each record's
/// lateness in ms.  The client sleeps rather than spins to its due times:
/// at 4k records/s a spinning client would hold a whole CPU that the
/// daemon's io and dispatcher threads need, and the books time flows from
/// ingest, so a late send does not inflate them.
std::vector<double> pace(int fd, const Schedule& s, Tracer* tracer) {
  std::vector<double> late;
  late.reserve(s.lines.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.due_s[i]));
    std::this_thread::sleep_until(due);
    late.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    if (!send(fd, s.lines[i], tracer))
      throw std::runtime_error("write to the daemon failed");
  }
  return late;
}

/// Polls the daemon's snapshot until `done` holds.  False on timeout.
template <typename Done>
bool await(service::Daemon& d, Tracer* tracer, Done done) {
  const Clock::time_point deadline = Clock::now() + kPhaseTimeout;
  while (Clock::now() < deadline) {
    if (done(snapshot(d, tracer))) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

/// Waits until the named tenants have `records` terminal outcomes
/// between them.
bool await_terminal(service::Daemon& d, const std::vector<std::string>& tenants,
                    std::uint64_t records, Tracer* tracer) {
  return await(d, tracer, [&](const service::DaemonSnapshot& s) {
    std::uint64_t terminal = 0;
    for (const std::string& t : tenants) {
      const auto it = s.tenants.find(t);
      if (it != s.tenants.end()) terminal += it->second.terminal();
    }
    return terminal >= records;
  });
}

struct Protocol {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double mean_ms = 0;      ///< open loop, ingest -> completion, the books
  double p50_ms = 0;       ///< open loop, dispatch -> completion, the pool
  double overhead_us_per_job = 0;  ///< open loop, CPU beyond the spin
  double burst_jobs_per_s = 0;
  double p99_ms = 0;       ///< worst open-loop tenant's book p99
  double write_s = 0;      ///< traced: write_all self time after warm-up
  std::vector<double> late_ms;
  service::DaemonSnapshot before;  ///< after warm-up
  service::DaemonSnapshot after;   ///< after the drain
};

/// The pool's recorded flows (dispatch -> completion, seconds, sorted)
/// once `jobs` jobs have landed in its recorder.  A job is reaped into the
/// books just before it lands there, so this waits briefly.
std::vector<double> recorded_flows(service::Daemon& d, std::size_t jobs,
                                   Outcome& out) {
  const Clock::time_point deadline = Clock::now() + kPhaseTimeout;
  while (d.pool().recorder().count() < jobs && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  out.check(d.pool().recorder().count() >= jobs,
            "jobs missing from the pool's recorder");
  std::vector<double> flows = d.pool().recorder().flows_seconds();
  std::sort(flows.begin(), flows.end());
  return flows;
}

/// Runs the three phases on a started daemon and checks its books.
Protocol run_protocol(Connected& c, const Schedule& warm, const Schedule& open,
                      const std::string& burst_bytes, std::size_t burst_records,
                      Tracer* tracer, Outcome& out) {
  service::Daemon& d = *c.daemon;
  Protocol p;
  std::vector<std::string> open_tenants;
  for (const Tenant& t : kTenants) open_tenants.push_back(t.name);

  pace(c.fd, warm, tracer);
  out.check(await_terminal(d, {kWarmTenant}, warm.lines.size(), tracer),
            "warm-up traffic did not finish");
  p.before = snapshot(d, tracer);
  const std::vector<double> warm_flows =
      recorded_flows(d, warm.lines.size(), out);
  const double writes0 =
      tracer != nullptr ? tracer->call_self_seconds("write_all") : 0.0;

  const double cpu0 = process_cpu_seconds();
  const double client0 = thread_cpu_seconds();
  p.late_ms = pace(c.fd, open, tracer);
  out.check(await_terminal(d, open_tenants, open.lines.size(), tracer),
            "open-loop traffic did not finish");
  const double cpu = process_cpu_seconds() - cpu0 - (thread_cpu_seconds() - client0);
  const service::DaemonSnapshot mid = snapshot(d, tracer);
  double flow_s = 0;
  std::uint64_t samples = 0;
  for (const Tenant& t : kTenants) {
    const auto it = mid.tenants.find(t.name);
    if (it == mid.tenants.end()) continue;
    flow_s += it->second.sum_flow_seconds;
    samples += it->second.flow_samples;
    p.p99_ms = std::max(p.p99_ms, it->second.p99_flow_seconds * 1e3);
  }
  p.mean_ms = samples > 0 ? flow_s / static_cast<double>(samples) * 1e3 : 0;
  // The open-loop jobs' pool flows: everything recorded now, less what
  // the warm-up left.
  const std::vector<double> all_flows =
      recorded_flows(d, warm.lines.size() + open.lines.size(), out);
  std::vector<double> open_flows;
  std::set_difference(all_flows.begin(), all_flows.end(), warm_flows.begin(),
                      warm_flows.end(), std::back_inserter(open_flows));
  p.p50_ms = open_flows.empty() ? 0.0 : median(open_flows) * 1e3;
  const double spin_s = open.work * kNsPerUnit * 1e-9;
  p.overhead_us_per_job =
      samples > 0 ? (cpu - spin_s) / static_cast<double>(samples) * 1e6 : 0;

  // Drain refuses records it has not read yet, so the burst must be
  // ingested before the drain begins.
  const std::uint64_t sent = warm.lines.size() + open.lines.size() + burst_records;
  const Clock::time_point b0 = Clock::now();
  if (!send(c.fd, burst_bytes, tracer))
    throw std::runtime_error("write to the daemon failed");
  out.check(await(d, tracer,
                  [&](const service::DaemonSnapshot& s) {
                    return s.feed.records >= sent;
                  }),
            "the burst was not ingested");
  bool drained = false;
  {
    Scope span(tracer, Layer::kService, "Daemon::drain");
    drained = d.drain(kPhaseTimeout);
  }
  const Clock::time_point b1 = Clock::now();
  out.check(drained, "Daemon::drain timed out");
  p.after = snapshot(d, tracer);
  if (tracer != nullptr)
    p.write_s = tracer->call_self_seconds("write_all") - writes0;

  // Output checks on the books.
  const service::DaemonSnapshot& s = p.after;
  out.check(s.feed.records == sent, "records sent != ingest.records");
  out.check(s.feed.malformed == 0 && s.feed.oversize == 0 && s.quarantine.empty(),
            "the daemon quarantined input");
  std::uint64_t submitted = 0;
  for (const auto& [name, t] : s.tenants) {
    out.check(t.submitted == t.terminal(), "tenant " + name + "'s books do not balance");
    submitted += t.submitted;
    if (name != kWarmTenant)
      p.failed += t.failed + t.deadline_expired + t.shed + t.rejected;
  }
  p.failed += sent - std::min(sent, submitted);  // lost records
  const service::TenantRouter::Stats& r = s.router;
  out.check(r.accepted == r.popped + r.shed_fair_share + r.shed_queued + r.depth,
            "router conservation law violated");
  p.attempted = open.lines.size() + burst_records;
  const auto burst_it = s.tenants.find(kBurstTenant);
  const double burst_done =
      burst_it == s.tenants.end() ? 0.0 : static_cast<double>(burst_it->second.completed);
  p.burst_jobs_per_s = burst_done / seconds_between(b0, b1);
  return p;
}

/// Replays the measured phases' exact feed bytes through the ingest
/// stages the daemon runs on its own threads; returns {parse, admit} ns
/// per record, medians over several passes.
std::pair<double, double> replay_feed(const std::string& feed,
                                      const service::RouterConfig& config,
                                      Tracer* tracer) {
  std::vector<double> parse, admit;
  std::vector<service::ParsedRecord> parsed(kParseBatch);
  std::vector<service::JobRecord> batch;
  std::vector<service::TenantRouter::BatchOutcome> outcomes;
  std::vector<service::ShedRecord> evictions;
  service::TenantRouter::BatchScratch scratch;
  for (int rep = 0; rep < kFeedReplays; ++rep) {
    service::TenantRouter router(config);
    for (const Tenant& t : kTenants) router.set_weight(t.name, t.weight);
    const double parse0 = tracer->call_self_seconds("parse_batch");
    const double admit0 = tracer->call_self_seconds("admit_batch+try_pop");
    std::size_t off = 0;
    std::uint64_t records = 0;
    while (off < feed.size()) {
      service::BatchParse bp;
      {
        Scope span(tracer, Layer::kService, "parse_batch");
        bp = service::parse_batch(std::string_view(feed).substr(off),
                                  {parsed.data(), parsed.size()});
      }
      if (bp.consumed == 0) break;
      off += bp.consumed;
      batch.clear();
      for (std::size_t i = 0; i < bp.produced; ++i)
        if (parsed[i].status == service::ParseStatus::kRecord)
          batch.push_back(std::move(parsed[i].record));
      records += batch.size();
      Scope span(tracer, Layer::kService, "admit_batch+try_pop");
      router.admit_batch({batch.data(), batch.size()}, &outcomes, &evictions,
                         &scratch);
      service::QueuedRecord popped;
      while (router.try_pop(&popped)) {
      }
    }
    const double n = static_cast<double>(records);
    parse.push_back((tracer->call_self_seconds("parse_batch") - parse0) / n * 1e9);
    admit.push_back((tracer->call_self_seconds("admit_batch+try_pop") - admit0) /
                    n * 1e9);
  }
  return {median(parse), median(admit)};
}

}  // namespace

Outcome run_daemon(const Options& options, Tracer* tracer) {
  Outcome out;
  out.threads = kWorkers + 1;
  Rng rng(options.seed);
  const Schedule warm = open_loop(rng, kWarmupSeconds, kWarmTenant);
  const Schedule open = open_loop(rng, kOpenLoopShare * options.seconds, nullptr);
  const auto burst_records =
      static_cast<std::size_t>(kBurstPerSecond * options.seconds);
  const std::string burst_bytes = burst(rng, burst_records);
  const service::DaemonConfig config = daemon_config(options.seed, burst_records);

  Connected c = start(config, nullptr);
  const Protocol p =
      run_protocol(c, warm, open, burst_bytes, burst_records, nullptr, out);
  service::close_fd(c.fd);
  c.daemon.reset();
  out.attempted += p.attempted;
  out.failed += p.failed;

  // Set-up: daemon start, connect, first metrics round trip, several
  // times, once the host is warm.  Timed first thing in the process, it
  // reads how fast idle vCPUs wake up more than what the daemon does.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    Connected fresh = start(config, nullptr);
    setups.push_back(seconds_between(t0, Clock::now()));
    service::close_fd(fresh.fd);
  }

  if (!options.trace) {
    out.add("jobs_per_s", p.burst_jobs_per_s, "jobs/s");
    out.add("overhead_us_per_job", p.overhead_us_per_job, "us");
    out.add("setup_s", median(setups), "s");
    return out;
  }

  // Traced protocol on a fresh daemon, spans around every call,
  // allocations counted.
  const AllocCounting counting;
  Connected traced_c = start(config, tracer);
  const Protocol t =
      run_protocol(traced_c, warm, open, burst_bytes, burst_records, tracer, out);
  service::close_fd(traced_c.fd);
  traced_c.daemon.reset();
  out.attempted += t.attempted;
  out.failed += t.failed;
  const auto [parse_ns, admit_ns] =
      replay_feed(open.bytes() + burst_bytes, config.router, tracer);

  const service::DaemonSnapshot& a = t.after;
  const service::DaemonSnapshot& b = t.before;
  const double batches = static_cast<double>(a.feed.batches - b.feed.batches);
  out.add("p50_ms", p.p50_ms, "ms");
  out.add("mean_ms", p.mean_ms, "ms");
  out.add("service.write_s", t.write_s, "s");
  out.add("service.records_per_batch",
          share(static_cast<double>(a.feed.records - b.feed.records), batches), "1");
  out.add("service.parse_ns", parse_ns, "ns");
  out.add("service.admit_ns", admit_ns, "ns");
  out.add("service.router_peak_depth", static_cast<double>(a.router.peak_depth),
          "count");
  out.add("service.shed", static_cast<double>(a.router.total_shed()), "count");
  out.add("service.p99_ms", p.p99_ms, "ms");
  out.add("runtime.tasks_executed",
          static_cast<double>(a.pool.tasks_executed - b.pool.tasks_executed), "count");
  out.add("runtime.steal_attempts",
          static_cast<double>(a.pool.steal_attempts - b.pool.steal_attempts), "count");
  out.add("runtime.steal_success",
          static_cast<double>(a.pool.successful_steals - b.pool.successful_steals),
          "count");
  out.add("runtime.admissions",
          static_cast<double>(a.pool.admissions - b.pool.admissions), "count");
  out.add("runtime.task_slab_blocks",
          static_cast<double>(a.pool.task_slab_blocks - b.pool.task_slab_blocks),
          "count");
  out.add("runtime.task_remote_frees",
          static_cast<double>(a.pool.task_remote_frees - b.pool.task_remote_frees),
          "count");
  out.add("loadgen.late_p99_ms", quantile(p.late_ms, 0.99), "ms");
  out.add("loadgen.late_max_ms", quantile(p.late_ms, 1.0), "ms");
  out.add("bench.trace_overhead",
          relative_change(t.burst_jobs_per_s, p.burst_jobs_per_s), "1");
  return out;
}

}  // namespace perfbench
