// pjschedd — the overload-hardened scheduling daemon.
//
// Ingests a newline-delimited job feed (see src/service/record.h) over a
// Unix-domain socket and/or a loopback TCP socket, and/or replays an
// instance file; routes every record through per-tenant weighted-fair
// admission and the overload degradation ladder; executes on the
// work-stealing ThreadPool; prints a metrics snapshot on exit (and
// periodically with --status-interval-ms).
//
//   pjschedd --unix=/tmp/pjsched.sock --workers=4 --duration-ms=60000
//   pjschedd --tcp=7133 --capacity=8192 --weights=gold=4,bronze=0.5
//   pjschedd --feed=trace.inst --feed-tenant=replay --time-scale=0.001
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run.h"
#include "src/runtime/replayer.h"
#include "src/service/daemon.h"

namespace {

using pjsched::core::parse_finite;
using pjsched::core::parse_unsigned;
using pjsched::service::Daemon;
using pjsched::service::DaemonConfig;

struct Options {
  DaemonConfig config;
  std::string feed_file;
  std::string feed_tenant = "replay";
  double time_scale = 0.0;
  std::uint64_t duration_ms = 0;  // 0 = run until the feed ends (or forever)
  std::uint64_t status_interval_ms = 0;
  std::string metrics_out;  // write machine-readable metrics here on exit
  std::vector<std::pair<std::string, double>> weights;
};

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [flags]\n"
      << "  --unix=PATH             listen on a unix-domain socket\n"
      << "  --tcp=PORT              listen on loopback TCP (0 = ephemeral)\n"
      << "  --workers=N             pool workers (default 4)\n"
      << "  --capacity=N            router capacity in records (default 4096)\n"
      << "  --weights=T=W,T=W,...   per-tenant fair-share weights, each "
         "in (0, 1e6]\n"
      << "  --feed=FILE             replay an instance file as the feed\n"
      << "  --feed-tenant=NAME      tenant for --feed records\n"
      << "  --time-scale=S          seconds per instance time unit (0 = "
         "burst)\n"
      << "  --ns-per-unit=N         CPU ns rendered per work unit\n"
      << "  --duration-ms=N         run this long, then drain and exit\n"
      << "  --status-interval-ms=N  print metrics periodically\n"
      << "  --read-deadline-ms=N    idle-connection deadline (default 5000)\n"
      << "  --io-threads=N          sharded io event loops (0 = auto)\n"
      << "  --max-connections=N     open-connection bound (default 64)\n"
      << "  --metrics-out=FILE      write machine-readable metrics on exit\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options* opts) {
  opts->config.pool.workers = 4;
  opts->config.pool.watchdog_interval = std::chrono::milliseconds(100);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    try {
      if (parse_flag(arg, "unix", &v)) {
        opts->config.unix_socket_path = v;
      } else if (parse_flag(arg, "tcp", &v)) {
        opts->config.tcp_port = parse_unsigned<std::uint16_t>(v);
      } else if (parse_flag(arg, "workers", &v)) {
        opts->config.pool.workers = parse_unsigned<unsigned>(v);
      } else if (parse_flag(arg, "capacity", &v)) {
        opts->config.router.capacity = parse_unsigned<std::size_t>(v);
      } else if (parse_flag(arg, "ns-per-unit", &v)) {
        opts->config.ns_per_unit = parse_finite(v);
        if (opts->config.ns_per_unit < 0.0) return false;
      } else if (parse_flag(arg, "feed", &v)) {
        opts->feed_file = v;
      } else if (parse_flag(arg, "feed-tenant", &v)) {
        opts->feed_tenant = v;
      } else if (parse_flag(arg, "time-scale", &v)) {
        opts->time_scale = parse_finite(v);
        if (opts->time_scale < 0.0) return false;
      } else if (parse_flag(arg, "duration-ms", &v)) {
        opts->duration_ms = parse_unsigned<std::uint64_t>(v);
      } else if (parse_flag(arg, "status-interval-ms", &v)) {
        opts->status_interval_ms = parse_unsigned<std::uint64_t>(v);
      } else if (parse_flag(arg, "read-deadline-ms", &v)) {
        // 32 bits (~49 days) keep a deadline inside the steady clock's
        // nanosecond range.
        opts->config.read_deadline =
            std::chrono::milliseconds(parse_unsigned<std::uint32_t>(v));
      } else if (parse_flag(arg, "io-threads", &v)) {
        opts->config.io_threads = parse_unsigned<std::size_t>(v);
      } else if (parse_flag(arg, "max-connections", &v)) {
        opts->config.max_connections = parse_unsigned<std::size_t>(v);
      } else if (parse_flag(arg, "metrics-out", &v)) {
        opts->metrics_out = v;
      } else if (parse_flag(arg, "weights", &v)) {
        std::size_t pos = 0;
        while (pos < v.size()) {
          const std::size_t comma = v.find(',', pos);
          const std::string item =
              v.substr(pos, comma == std::string::npos ? comma : comma - pos);
          const std::size_t eq = item.find('=');
          if (eq == std::string::npos || eq == 0) return false;
          // The wire's weight range (record.h).
          const double weight = parse_finite(item.substr(eq + 1));
          if (!(weight > 0.0) || weight > pjsched::service::kMaxWeight)
            return false;
          opts->weights.emplace_back(item.substr(0, eq), weight);
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, &opts)) return usage(argv[0]);
  if (opts.config.unix_socket_path.empty() && opts.config.tcp_port < 0 &&
      opts.feed_file.empty()) {
    std::cerr << "pjschedd: no feed configured (need --unix, --tcp, or "
                 "--feed)\n";
    return usage(argv[0]);
  }

  try {
    Daemon daemon(opts.config);
    for (const auto& [tenant, weight] : opts.weights)
      daemon.set_weight(tenant, weight);
    // Flushed eagerly: smoke scripts poll stdout for the ephemeral port.
    if (daemon.tcp_port() >= 0)
      std::cout << "pjschedd: listening on tcp 127.0.0.1:" << daemon.tcp_port()
                << std::endl;
    if (!opts.config.unix_socket_path.empty())
      std::cout << "pjschedd: listening on unix "
                << opts.config.unix_socket_path << std::endl;

    if (!opts.feed_file.empty()) {
      const std::size_t n = daemon.feed_replay_file(
          opts.feed_file, opts.feed_tenant, opts.time_scale);
      std::cout << "pjschedd: replayed " << n << " records from "
                << opts.feed_file << "\n";
    }

    const auto started = pjsched::service::Clock::now();
    auto next_status =
        started + std::chrono::milliseconds(opts.status_interval_ms);
    const bool bounded =
        opts.duration_ms > 0 || (!opts.feed_file.empty() &&
                                 opts.config.unix_socket_path.empty() &&
                                 opts.config.tcp_port < 0);
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const auto now = pjsched::service::Clock::now();
      if (opts.status_interval_ms > 0 && now >= next_status) {
        std::cout << daemon.metrics_text();
        next_status = now + std::chrono::milliseconds(opts.status_interval_ms);
      }
      if (opts.duration_ms > 0 &&
          now - started >= std::chrono::milliseconds(opts.duration_ms))
        break;
      if (bounded && opts.duration_ms == 0) break;  // replay-only: one pass
    }

    const bool drained = daemon.drain(std::chrono::milliseconds(30000));
    std::cout << daemon.metrics_text();
    if (!opts.metrics_out.empty()) {
      std::ofstream out(opts.metrics_out);
      out << daemon.metrics_machine();
    }
    if (!drained) {
      std::cerr << "pjschedd: drain timed out\n";
      return 1;
    }
  } catch (const pjsched::runtime::ReplayFileError& e) {
    std::cerr << "pjschedd: " << pjsched::runtime::to_string(e.kind())
              << " replay feed error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "pjschedd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
