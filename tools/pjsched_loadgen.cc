// pjsched_loadgen — feed client / load generator for pjschedd.
//
// Streams job records to a daemon over a Unix or TCP socket with the
// client-side robustness the service contract expects: connect (and
// reconnect) with bounded retries, exponential backoff with seeded
// full jitter, and a total deadline budget after which the client gives
// up cleanly instead of hammering a struggling daemon forever.
//
// With --connections=N the record count is split across N concurrent
// client threads, each with its own socket, seeded rng, reconnect budget,
// and open-loop pacing schedule (--rate is the AGGREGATE rate; each
// connection paces at rate/N); the final line reports merged stats.
//
//   pjsched_loadgen --tcp-port=7133 --tenant=acme --records=10000
//                   --rate=2000 --work=8 --fanout=4
//   pjsched_loadgen --unix=/tmp/pjsched.sock --tenant=bulk
//                   --records=100000 --budget-ms=30000 --seed=7
//   pjsched_loadgen --tcp-port=7133 --connections=8 --records=800000
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"
#include "src/sim/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using pjsched::core::parse_finite;
using pjsched::core::parse_unsigned;
namespace service = pjsched::service;

struct Options {
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  std::string tenant = "loadgen";
  std::uint64_t records = 1000;
  double work = 4.0;
  unsigned fanout = 1;
  double weight = 1.0;
  std::uint64_t deadline_ms = 0;    // per-job deadline on each record
  double rate = 0.0;                // records/sec; 0 = as fast as possible
  std::uint64_t budget_ms = 60000;  // total client deadline budget
  unsigned max_retries = 8;
  std::uint64_t backoff_base_ms = 10;
  std::uint64_t seed = 1;
  std::uint64_t connections = 1;  // concurrent client threads
};

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " (--unix=PATH | --tcp-port=PORT) "
            << "[--tcp-host=H] [--tenant=T]\n"
            << "  [--records=N] [--work=W] [--fanout=F] [--weight=W]\n"
            << "  [--deadline-ms=D] [--rate=R] [--budget-ms=B]\n"
            << "  [--max-retries=N] [--backoff-base-ms=N] [--seed=S]\n"
            << "  [--connections=N]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (parse_flag(arg, "unix", &v)) o->unix_path = v;
      else if (parse_flag(arg, "tcp-host", &v)) o->tcp_host = v;
      else if (parse_flag(arg, "tcp-port", &v))
        o->tcp_port = parse_unsigned<std::uint16_t>(v);
      else if (parse_flag(arg, "tenant", &v)) o->tenant = v;
      else if (parse_flag(arg, "records", &v))
        o->records = parse_unsigned<std::uint64_t>(v);
      else if (parse_flag(arg, "work", &v)) o->work = parse_finite(v);
      else if (parse_flag(arg, "fanout", &v))
        o->fanout = parse_unsigned<unsigned>(v);
      else if (parse_flag(arg, "weight", &v)) o->weight = parse_finite(v);
      else if (parse_flag(arg, "deadline-ms", &v))
        o->deadline_ms = parse_unsigned<std::uint64_t>(v);
      else if (parse_flag(arg, "rate", &v)) o->rate = parse_finite(v);
      else if (parse_flag(arg, "budget-ms", &v))
        o->budget_ms = parse_unsigned<std::uint64_t>(v);
      else if (parse_flag(arg, "max-retries", &v))
        o->max_retries = parse_unsigned<unsigned>(v);
      else if (parse_flag(arg, "backoff-base-ms", &v))
        o->backoff_base_ms = parse_unsigned<std::uint64_t>(v);
      else if (parse_flag(arg, "seed", &v))
        o->seed = parse_unsigned<std::uint64_t>(v);
      else if (parse_flag(arg, "connections", &v))
        o->connections = parse_unsigned<std::uint64_t>(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  if (o->connections == 0) return false;
  // The wire's ranges (record.h); a rate of 0 sends unpaced.
  if (!(o->work > 0.0) || o->work > service::kMaxWork) return false;
  if (!(o->weight > 0.0) || o->weight > service::kMaxWeight) return false;
  if (o->rate < 0.0) return false;
  return !o->unix_path.empty() || o->tcp_port >= 0;
}

/// Connects with exponential backoff + full jitter, honoring the budget.
/// Returns the fd, or -1 when retries or the budget ran out.
int connect_with_retry(const Options& o, pjsched::sim::Rng& rng,
                       Clock::time_point budget_deadline, std::string* error) {
  for (unsigned attempt = 0; attempt <= o.max_retries; ++attempt) {
    if (Clock::now() >= budget_deadline) {
      *error = "deadline budget exhausted";
      return -1;
    }
    const int fd =
        o.unix_path.empty()
            ? service::connect_tcp(o.tcp_host,
                                   static_cast<std::uint16_t>(o.tcp_port),
                                   error)
            : service::connect_unix(o.unix_path, error);
    if (fd >= 0) return fd;
    if (attempt == o.max_retries) break;
    // Full jitter: sleep uniform in [0, base * 2^attempt], capped so one
    // sleep never blows the whole budget.
    const std::uint64_t ceiling = o.backoff_base_ms << std::min(attempt, 20u);
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            budget_deadline - Clock::now());
    const std::uint64_t sleep_ms = std::min<std::uint64_t>(
        rng.uniform_int(ceiling + 1),
        remaining.count() > 0
            ? static_cast<std::uint64_t>(remaining.count())
            : 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return -1;
}

/// One connection's merged-stats contribution.
struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t reconnects = 0;
  bool failed = false;
  std::string error;
};

/// Streams `records` records over one connection (its own socket, rng,
/// reconnect budget, and pacing schedule at `rate` records/sec).
/// client_id is globally unique: conn_index * stride + i + 1.
void run_connection(const Options& opts, std::uint64_t conn_index,
                    std::uint64_t records, double rate, ConnResult* out) {
  pjsched::sim::Rng rng(opts.seed + conn_index);
  const Clock::time_point start = Clock::now();
  const Clock::time_point budget_deadline =
      start + std::chrono::milliseconds(opts.budget_ms);

  std::string error;
  int fd = connect_with_retry(opts, rng, budget_deadline, &error);
  if (fd < 0) {
    out->failed = true;
    out->error = "connect failed: " + error;
    return;
  }

  service::JobRecord record;
  record.tenant = opts.tenant;
  record.work = opts.work;
  record.fanout = opts.fanout;
  record.weight = opts.weight;
  record.deadline_ms = opts.deadline_ms;

  const std::uint64_t stride = opts.records + 1;
  for (std::uint64_t i = 0; i < records; ++i) {
    if (Clock::now() >= budget_deadline) {
      out->failed = true;
      out->error = "budget exhausted after " + std::to_string(out->sent) +
                   " records";
      service::close_fd(fd);
      return;
    }
    record.client_id = conn_index * stride + i + 1;
    const std::string line = service::format_record(record) + "\n";
    if (!service::write_all(fd, line)) {
      // Dead connection: reconnect under the same backoff/budget rules and
      // resend this record on the fresh connection.
      service::close_fd(fd);
      fd = connect_with_retry(opts, rng, budget_deadline, &error);
      if (fd < 0) {
        out->failed = true;
        out->error = "reconnect failed: " + error;
        return;
      }
      ++out->reconnects;
      if (!service::write_all(fd, line)) {
        out->failed = true;
        out->error = "write failed after reconnect";
        service::close_fd(fd);
        return;
      }
    }
    ++out->sent;
    if (rate > 0.0) {
      // Open-loop pacing against the schedule, not sleep-per-record: the
      // i-th record is due at start + i/rate, so a slow stretch is made up
      // instead of compounding.
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((i + 1) / rate));
      while (Clock::now() < due && Clock::now() < budget_deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  service::close_fd(fd);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) return usage(argv[0]);

  const std::uint64_t conns = std::min(
      opts.connections, opts.records > 0 ? opts.records : std::uint64_t{1});
  const double per_conn_rate =
      opts.rate > 0.0 ? opts.rate / static_cast<double>(conns) : 0.0;
  const Clock::time_point start = Clock::now();

  // Split the record count across connections; the first `extra`
  // connections take one more so every record is owned by exactly one.
  std::vector<ConnResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  const std::uint64_t base = opts.records / conns;
  const std::uint64_t extra = opts.records % conns;
  for (std::uint64_t c = 0; c < conns; ++c) {
    const std::uint64_t n = base + (c < extra ? 1 : 0);
    threads.emplace_back(run_connection, std::cref(opts), c, n, per_conn_rate,
                         &results[c]);
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t sent = 0, reconnects = 0;
  bool failed = false;
  for (std::uint64_t c = 0; c < conns; ++c) {
    sent += results[c].sent;
    reconnects += results[c].reconnects;
    if (results[c].failed) {
      failed = true;
      std::cerr << "pjsched_loadgen: connection " << c << ": "
                << results[c].error << "\n";
    }
  }

  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::cout << "pjsched_loadgen: sent " << sent << " records in " << secs
            << "s (" << (secs > 0 ? static_cast<double>(sent) / secs : 0)
            << " rec/s, " << reconnects << " reconnects, " << conns
            << " connections)\n";
  return failed ? 1 : 0;
}
