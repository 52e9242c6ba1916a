#include "src/service/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/types.h"
#include "src/runtime/dag_executor.h"
#include "src/runtime/replayer.h"

namespace pjsched::service {

namespace {

/// Entries per parse_batch scan on the io shards: large enough that a full
/// 16 KB read buffer of minimal records drains in a few scans, small
/// enough that the per-shard scratch stays cache-resident.
constexpr std::size_t kParseBatchEntries = 256;

/// How many recent malformed-line samples the quarantine keeps.
constexpr std::size_t kQuarantineKeep = 16;

int make_wake_pipe(int* rd, int* wr) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  *rd = fds[0];
  *wr = fds[1];
  return 0;
}

void wake_shard(int wake_wr) {
  const char byte = 'w';
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_wr, &byte, 1);
}

/// Sends without ever blocking the io loop: a peer that requests metrics
/// but refuses to read the reply would otherwise wedge its whole shard.
/// False = would block or dead; the caller closes the connection.
bool write_nonblocking(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Spins `units` of work in small quanta, polling for cooperative
/// cancellation between quanta so a deadline or shutdown cancels a long
/// job promptly instead of after its whole body.
void spin_cancellable(runtime::TaskContext& ctx, double units,
                      double ns_per_unit) {
  constexpr double kQuantum = 64.0;
  while (units > 0.0) {
    if (ctx.poll_deadline()) return;
    const double step = units < kQuantum ? units : kQuantum;
    runtime::spin_for_units(static_cast<dag::Work>(step < 1.0 ? 1.0 : step),
                            ns_per_unit);
    units -= step;
  }
}

}  // namespace

Daemon::Daemon(const DaemonConfig& config)
    : config_(config),
      pool_(config.pool),
      router_(config.router),
      window_(config.dispatch_window > 0
                  ? config.dispatch_window
                  : static_cast<std::size_t>(pool_.workers()) * 4) {
  started_ = Clock::now();
  std::string error;
  if (!config_.unix_socket_path.empty()) {
    unix_listen_fd_ = listen_unix(config_.unix_socket_path, &error);
    if (unix_listen_fd_ < 0)
      throw std::runtime_error("pjschedd: " + error);
  }
  if (config_.tcp_port >= 0) {
    std::uint16_t bound = 0;
    tcp_listen_fd_ = listen_tcp(static_cast<std::uint16_t>(config_.tcp_port),
                                &error, &bound);
    if (tcp_listen_fd_ < 0) {
      close_fd(unix_listen_fd_);
      throw std::runtime_error("pjschedd: " + error);
    }
    tcp_port_ = bound;
  }
  maintenance_ = std::thread([this] { maintenance_main(); });
  if (unix_listen_fd_ >= 0 || tcp_listen_fd_ >= 0) {
    std::size_t n = config_.io_threads;
    if (n == 0)
      n = std::max<std::size_t>(1, std::thread::hardware_concurrency() / 4);
    io_shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<IoShard>();
      if (make_wake_pipe(&shard->wake_rd, &shard->wake_wr) != 0) {
        // Tear down what exists; the daemon cannot run half-sharded.
        for (auto& s : io_shards_) {
          close_fd(s->wake_rd);
          close_fd(s->wake_wr);
        }
        close_fd(unix_listen_fd_);
        close_fd(tcp_listen_fd_);
        stop_.store(true, std::memory_order_release);
        maintenance_.join();
        pool_.shutdown();
        throw std::runtime_error("pjschedd: wake pipe creation failed");
      }
      io_shards_.push_back(std::move(shard));
    }
    for (std::size_t i = 0; i < n; ++i)
      io_shards_[i]->thread = std::thread([this, i] { io_shard_main(i); });
  }
}

Daemon::~Daemon() {
  router_.begin_drain();
  stop_.store(true, std::memory_order_release);
  for (auto& shard : io_shards_) wake_shard(shard->wake_wr);
  for (auto& shard : io_shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    close_fd(shard->wake_rd);
    close_fd(shard->wake_wr);
  }
  if (maintenance_.joinable()) maintenance_.join();

  // Anything still queued in the router was accepted but will never be
  // dispatched: give each record its terminal outcome (rejected: the
  // daemon is going away) so the books balance even on an abrupt stop.
  QueuedRecord rec;
  while (router_.try_pop(&rec)) account_shed(rec, ShedReason::kRejectDrain);

  // A pump that popped a record before stop_ may still be submitting it,
  // and a submit after pool_.shutdown() throws: wait until every popped
  // record has finished.  Only finish hooks pump by now, and the pool
  // counts a job only once its hook has returned, so wait_all() is that
  // wait; the loop re-checks the count it stands for.
  for (;;) {
    pool_.wait_all();
    runtime::MutexLock lock(state_mu_);
    if (inflight_ == 0) break;
  }
  pool_.shutdown();

  close_fd(unix_listen_fd_);
  close_fd(tcp_listen_fd_);
  if (!config_.unix_socket_path.empty())
    ::unlink(config_.unix_socket_path.c_str());
}

void Daemon::set_weight(const std::string& tenant, double weight) {
  router_.set_weight(tenant, weight);
}

PushOutcome Daemon::submit_record(JobRecord record) {
  const std::string tenant = record.tenant;  // push() consumes the record
  {
    runtime::MutexLock lock(state_mu_);
    ++tenants_[tenant].counters.submitted;
  }
  std::vector<ShedRecord> evictions;
  ShedReason reason{};
  const PushOutcome out = router_.push(std::move(record), &evictions, &reason);
  if (!evictions.empty()) account_sheds(evictions);
  if (out == PushOutcome::kShed) account_shed_reason(tenant, reason);
  pump();
  return out;
}

std::size_t Daemon::feed_replay_file(const std::string& path,
                                     const std::string& tenant,
                                     double time_scale) {
  const core::Instance instance = runtime::load_replay_instance(path);
  const Clock::time_point start = Clock::now();
  if (time_scale > 0.0) {
    // Pacing casts start + arrival * time_scale seconds to a Clock time
    // point, which is undefined past the clock's range.  Half the range
    // left keeps the double comparison clear of rounding at the boundary.
    const double room =
        std::chrono::duration<double>(Clock::time_point::max() - start)
            .count() / 2;
    double last = 0.0;
    for (const core::JobSpec& job : instance.jobs)
      last = std::max(last, job.arrival);
    if (!(last * time_scale < room))
      throw std::invalid_argument(
          "feed_replay_file: time_scale puts the last arrival beyond the "
          "steady clock's range");
  }
  std::size_t submitted = 0;
  for (const core::JobSpec& job : instance.jobs) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (time_scale > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(job.arrival * time_scale));
      while (Clock::now() < due && !stop_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobRecord record;
    record.tenant = tenant;
    record.work = std::min(static_cast<double>(job.graph.total_work()),
                           kMaxWork);
    record.fanout = static_cast<unsigned>(std::clamp<std::size_t>(
        job.graph.node_count(), 1, kMaxFanout));
    record.weight = job.weight;
    submit_record(std::move(record));
    ++submitted;
  }
  return submitted;
}

void Daemon::dispatch(QueuedRecord rec) {
  runtime::SubmitOptions opts;
  opts.weight = rec.record.weight;
  if (rec.record.deadline_ms > 0) {
    // The deadline budget runs from ingest: time already spent queued in
    // the router is gone.  A record whose budget is exhausted before
    // dispatch expires here, without ever touching the pool.
    const auto budget = std::chrono::milliseconds(rec.record.deadline_ms);
    const auto spent = Clock::now() - rec.ingest;
    if (spent >= budget) {
      runtime::MutexLock lock(state_mu_);
      ++tenants_[rec.record.tenant].counters.deadline_expired;
      --inflight_;
      return;
    }
    opts.deadline = budget - spent;
  }

  const double work = rec.record.work;
  const unsigned fanout = std::max(1u, rec.record.fanout);
  const double per = work / static_cast<double>(fanout);
  const double ns = config_.ns_per_unit;
  // this, the tenant and the ingest time: 48 bytes, stored inline.
  opts.on_finish = [this, tenant = std::move(rec.record.tenant),
                    ingest = rec.ingest](const runtime::Job& job) {
    finish(tenant, ingest, job);
  };
  pool_.submit(
      [per, fanout, ns](runtime::TaskContext& ctx) {
        if (fanout > 1) {
          runtime::WaitGroup wg;
          for (unsigned i = 1; i < fanout; ++i)
            ctx.spawn(
                [per, ns](runtime::TaskContext& c) {
                  spin_cancellable(c, per, ns);
                },
                wg);
          spin_cancellable(ctx, per, ns);
          ctx.wait_help(wg);
        } else {
          spin_cancellable(ctx, per, ns);
        }
      },
      std::move(opts));
}

void Daemon::pump() {
  QueuedRecord rec;
  while (true) {
    {
      runtime::MutexLock lock(state_mu_);
      if (stop_.load(std::memory_order_relaxed) || inflight_ >= window_ ||
          !router_.try_pop(&rec))
        return;
      ++inflight_;
    }
    dispatch(std::move(rec));
  }
}

void Daemon::finish(const std::string& tenant, Clock::time_point ingest,
                    const runtime::Job& job) {
  {
    runtime::MutexLock lock(state_mu_);
    TenantBook& book = tenants_[tenant];
    TenantCounters& t = book.counters;
    switch (job.outcome()) {
      case runtime::JobOutcome::kCompleted: {
        ++t.completed;
        const double flow =
            std::chrono::duration<double>(job.completion_time() - ingest)
                .count();
        t.max_flow_seconds = std::max(t.max_flow_seconds, flow);
        t.sum_flow_seconds += flow;
        ++t.flow_samples;
        // Arrival 0 / completion `flow` records the flow value itself.
        book.flows.record(t.flow_samples, 0.0, 1.0, flow);
        break;
      }
      case runtime::JobOutcome::kFailed:
        ++t.failed;
        break;
      case runtime::JobOutcome::kDeadlineExpired:
        ++t.deadline_expired;
        break;
      case runtime::JobOutcome::kRunning:
        break;  // unreachable: a hook runs only for a terminal job
    }
    --inflight_;
  }
  pump();
}

void Daemon::maintenance_main() {
  std::vector<ShedRecord> evictions;
  while (!stop_.load(std::memory_order_acquire)) {
    // Watchdog signal: any new stall dump since the last tick counts as a
    // stalled sample (the pool's watchdog defines "no progress").
    const std::uint64_t dumps = pool_.stats().watchdog_dumps;
    const bool stalled =
        dumps > last_watchdog_dumps_.load(std::memory_order_relaxed);
    last_watchdog_dumps_.store(dumps, std::memory_order_relaxed);

    evictions.clear();
    router_.tick(stalled, &evictions);
    if (!evictions.empty()) account_sheds(evictions);

    std::this_thread::sleep_for(config_.tick_interval);
  }
}

namespace {

/// The reason->counter mapping shared by the per-record and batched
/// accounting paths (callers hold state_mu_).
void bump_shed_counter(TenantCounters& t, ShedReason reason) {
  switch (reason) {
    case ShedReason::kFairShare:
    case ShedReason::kShedNew:
    case ShedReason::kShedQueued:
      ++t.shed;
      break;
    case ShedReason::kRejectTenant:
    case ShedReason::kRejectDrain:
      ++t.rejected;
      break;
  }
}

}  // namespace

void Daemon::account_shed_reason(const std::string& tenant,
                                 ShedReason reason) {
  runtime::MutexLock lock(state_mu_);
  bump_shed_counter(tenants_[tenant].counters, reason);
}

void Daemon::account_shed(const QueuedRecord& rec, ShedReason reason) {
  account_shed_reason(rec.record.tenant, reason);
}

void Daemon::account_sheds(const std::vector<ShedRecord>& sheds) {
  for (const ShedRecord& s : sheds) account_shed(s.item, s.reason);
}

bool Daemon::drain(std::chrono::milliseconds timeout) {
  router_.begin_drain();
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    // In this order: a record popped after the depth read was counted in
    // inflight_ by the hold that popped it.
    const std::size_t queued = router_.depth();
    {
      runtime::MutexLock lock(state_mu_);
      if (queued == 0 && inflight_ == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void Daemon::quarantine_line(std::string_view line, std::string_view why,
                             bool count_malformed) {
  runtime::MutexLock lock(state_mu_);
  if (count_malformed) ++feed_.malformed;
  std::string sample(line.substr(0, 96));
  sample += "  <- ";
  sample += why;
  quarantine_.push_back(std::move(sample));
  while (quarantine_.size() > kQuarantineKeep) quarantine_.pop_front();
}

DaemonSnapshot Daemon::snapshot() const {
  DaemonSnapshot snap;
  snap.rung = router_.rung();
  snap.router = router_.stats();
  snap.pool = pool_.stats();
  snap.admission = pool_.admission_stats();
  runtime::MutexLock lock(state_mu_);
  snap.feed = feed_;
  for (const auto& [name, book] : tenants_) {
    TenantCounters& t = snap.tenants.emplace_hint(snap.tenants.end(), name,
                                                  book.counters)->second;
    t.p99_flow_seconds = book.flows.summary().p99;
  }
  snap.inflight = inflight_;
  snap.quarantine.assign(quarantine_.begin(), quarantine_.end());
  return snap;
}

std::string Daemon::metrics_text() const {
  const DaemonSnapshot s = snapshot();
  std::ostringstream out;
  out << "pjschedd: rung=" << to_string(s.rung)
      << " router[depth=" << s.router.depth << " accepted=" << s.router.accepted
      << " popped=" << s.router.popped << " shed=" << s.router.total_shed()
      << " peak=" << s.router.peak_depth << "]"
      << " pool[executed=" << s.pool.tasks_executed
      << " parks=" << s.pool.parks
      << " expired=" << s.pool.jobs_deadline_expired
      << " failed=" << s.pool.jobs_failed << "]"
      << " feed[records=" << s.feed.records << " malformed=" << s.feed.malformed
      << " oversize=" << s.feed.oversize << " conns=" << s.feed.connections
      << " timeouts=" << s.feed.read_timeouts
      << " slow_drip=" << s.feed.slow_drip << " batches=" << s.feed.batches
      << "]"
      << " inflight=" << s.inflight << "\n";
  for (const auto& [name, t] : s.tenants) {
    out << "  tenant " << name << ": submitted=" << t.submitted
        << " completed=" << t.completed << " failed=" << t.failed
        << " expired=" << t.deadline_expired << " shed=" << t.shed
        << " rejected=" << t.rejected << " max_flow_s=" << t.max_flow_seconds;
    if (t.flow_samples > 0)
      out << " mean_flow_s=" << (t.sum_flow_seconds /
                                 static_cast<double>(t.flow_samples));
    out << "\n";
  }
  for (const std::string& q : s.quarantine)
    out << "  quarantined: " << q << "\n";
  return out.str();
}

std::string Daemon::metrics_machine() const {
  const DaemonSnapshot s = snapshot();
  std::ostringstream out;
  out << "rung " << to_string(s.rung) << "\n"
      << "uptime_seconds "
      << std::chrono::duration<double>(Clock::now() - started_).count() << "\n"
      << "inflight " << s.inflight << "\n"
      << "router.depth " << s.router.depth << "\n"
      << "router.peak_depth " << s.router.peak_depth << "\n"
      << "router.tenants " << s.router.tenants << "\n"
      << "router.accepted " << s.router.accepted << "\n"
      << "router.popped " << s.router.popped << "\n"
      << "router.shed_fair_share " << s.router.shed_fair_share << "\n"
      << "router.shed_arrival_full " << s.router.shed_arrival_full << "\n"
      << "router.shed_new " << s.router.shed_new << "\n"
      << "router.shed_queued " << s.router.shed_queued << "\n"
      << "router.rejected_tenant " << s.router.rejected_tenant << "\n"
      << "router.rejected_drain " << s.router.rejected_drain << "\n"
      << "pool.tasks_executed " << s.pool.tasks_executed << "\n"
      << "pool.parks " << s.pool.parks << "\n"
      << "pool.jobs_failed " << s.pool.jobs_failed << "\n"
      << "pool.jobs_deadline_expired " << s.pool.jobs_deadline_expired << "\n"
      << "ingest.records " << s.feed.records << "\n"
      << "ingest.batches " << s.feed.batches << "\n"
      << "ingest.malformed " << s.feed.malformed << "\n"
      << "ingest.oversize " << s.feed.oversize << "\n"
      << "ingest.partial " << s.feed.partial << "\n"
      << "ingest.connections " << s.feed.connections << "\n"
      << "ingest.refused " << s.feed.refused << "\n"
      << "ingest.disconnects " << s.feed.disconnects << "\n"
      << "ingest.read_timeouts " << s.feed.read_timeouts << "\n"
      << "ingest.slow_drip " << s.feed.slow_drip << "\n"
      << "ingest.commands " << s.feed.commands << "\n";
  for (const auto& [name, t] : s.tenants) {
    const std::string prefix = "tenant." + name + ".";
    out << prefix << "submitted " << t.submitted << "\n"
        << prefix << "completed " << t.completed << "\n"
        << prefix << "failed " << t.failed << "\n"
        << prefix << "deadline_expired " << t.deadline_expired << "\n"
        << prefix << "shed " << t.shed << "\n"
        << prefix << "rejected " << t.rejected << "\n"
        << prefix << "max_flow_seconds " << t.max_flow_seconds << "\n"
        << prefix << "mean_flow_seconds "
        << (t.flow_samples > 0
                ? t.sum_flow_seconds / static_cast<double>(t.flow_samples)
                : 0.0)
        << "\n"
        << prefix << "p99_flow_seconds " << t.p99_flow_seconds << "\n";
  }
  out << "end\n";
  return out.str();
}

void Daemon::accept_ready(int listen_fd) {
  const int fd = accept_client(listen_fd);
  if (fd < 0) return;
  // order: relaxed — the bound is advisory (a race can overshoot by one);
  // exact accounting happens under state_mu_ below.
  if (open_conns_.load(std::memory_order_relaxed) >= config_.max_connections) {
    close_fd(fd);
    runtime::MutexLock lock(state_mu_);
    ++feed_.refused;
    return;
  }
  // Balance onto the least-loaded shard; ties go to the lowest index.
  std::size_t target = 0;
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < io_shards_.size(); ++i) {
    // order: relaxed — an approximate balance signal, not a publication.
    const std::size_t load =
        io_shards_[i]->load.load(std::memory_order_relaxed);
    if (load < best) {
      best = load;
      target = i;
    }
  }
  // order: relaxed — counters only; the fd itself is published under mu.
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  io_shards_[target]->load.fetch_add(1, std::memory_order_relaxed);
  {
    runtime::MutexLock lock(io_shards_[target]->mu);
    io_shards_[target]->incoming.push_back(fd);
  }
  wake_shard(io_shards_[target]->wake_wr);
  runtime::MutexLock lock(state_mu_);
  ++feed_.connections;
}

bool Daemon::drain_parsed(Connection& c, std::span<ParsedRecord> parsed,
                          std::vector<JobRecord>& batch,
                          std::vector<TenantRouter::BatchOutcome>& outcomes,
                          std::vector<ShedRecord>& evictions) {
  bool keep = true;
  for (;;) {
    const BatchParse bp = c.buffer.parse(parsed);
    if (bp.produced == 0 && bp.consumed == 0) break;
    if (bp.consumed > 0) c.last_progress = Clock::now();
    std::uint64_t oversize = 0;
    bool want_metrics = false;
    batch.clear();
    for (std::size_t i = 0; i < bp.produced; ++i) {
      ParsedRecord& entry = parsed[i];
      switch (entry.status) {
        case ParseStatus::kRecord:
          batch.push_back(std::move(entry.record));
          break;
        case ParseStatus::kMalformed:
          quarantine_line(entry.line,
                          entry.error != nullptr ? entry.error : "malformed");
          break;
        case ParseStatus::kOversize:
          ++oversize;
          break;
        case ParseStatus::kCommand:
          want_metrics = true;
          break;
        case ParseStatus::kEmpty:
          break;  // parse_batch never emits these
      }
    }
    if (oversize > 0) {
      runtime::MutexLock lock(state_mu_);
      feed_.oversize += oversize;
    }
    admit_records(batch, outcomes, evictions);
    if (want_metrics) {
      {
        runtime::MutexLock lock(state_mu_);
        ++feed_.commands;
      }
      // Reply AFTER admitting the records that preceded the command, so a
      // client that writes records then `metrics` sees its own submissions
      // counted.  A peer that will not read its reply is closed, never
      // waited on.
      if (!write_nonblocking(c.fd, metrics_machine())) keep = false;
    }
  }
  return keep;
}

void Daemon::admit_records(std::vector<JobRecord>& records,
                           std::vector<TenantRouter::BatchOutcome>& outcomes,
                           std::vector<ShedRecord>& evictions) {
  if (records.empty()) return;
  {
    // Books first: `submitted` covers the whole batch before any outcome
    // can land, so a concurrent snapshot never sees terminal > submitted.
    runtime::MutexLock lock(state_mu_);
    feed_.records += records.size();
    ++feed_.batches;
    for (const JobRecord& r : records) ++tenants_[r.tenant].counters.submitted;
  }
  evictions.clear();
  router_.admit_batch({records.data(), records.size()}, &outcomes, &evictions);
  {
    runtime::MutexLock lock(state_mu_);
    for (const ShedRecord& s : evictions)
      bump_shed_counter(tenants_[s.item.record.tenant].counters, s.reason);
    for (std::size_t i = 0; i < records.size(); ++i)
      if (outcomes[i].outcome == PushOutcome::kShed)
        bump_shed_counter(tenants_[records[i].tenant].counters,
                          outcomes[i].reason);
  }
  records.clear();
  pump();
}

void Daemon::io_shard_main(std::size_t shard_index) {
  IoShard& self = *io_shards_[shard_index];
  const bool acceptor = shard_index == 0;
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  // Parse/admission scratch, reused across batches: the steady-state
  // ingest path allocates nothing here after warmup.
  std::vector<ParsedRecord> parsed(kParseBatchEntries);
  std::vector<JobRecord> batch;
  batch.reserve(kParseBatchEntries);
  std::vector<TenantRouter::BatchOutcome> outcomes;
  std::vector<ShedRecord> evictions;

  while (!stop_.load(std::memory_order_acquire)) {
    // Adopt connections the acceptor handed over.
    {
      runtime::MutexLock lock(self.mu);
      for (const int fd : self.incoming) {
        Connection c;
        c.fd = fd;
        c.last_activity = c.last_progress = Clock::now();
        conns.push_back(std::move(c));
      }
      self.incoming.clear();
    }

    pfds.clear();
    pfds.push_back(pollfd{self.wake_rd, POLLIN, 0});
    std::size_t first_listener = pfds.size();
    std::size_t first_conn = first_listener;
    if (acceptor) {
      if (unix_listen_fd_ >= 0)
        pfds.push_back(pollfd{unix_listen_fd_, POLLIN, 0});
      if (tcp_listen_fd_ >= 0)
        pfds.push_back(pollfd{tcp_listen_fd_, POLLIN, 0});
      first_conn = pfds.size();
    }
    for (const Connection& c : conns) pfds.push_back(pollfd{c.fd, POLLIN, 0});

    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/50);
    if (rc < 0 && errno != EINTR) break;
    const Clock::time_point now = Clock::now();

    if ((pfds[0].revents & POLLIN) != 0) {
      // Drain the wake pipe (nonblocking; content is meaningless).
      char sink[64];
      while (::read(self.wake_rd, sink, sizeof(sink)) > 0) {
      }
    }
    if (acceptor)
      for (std::size_t i = first_listener; i < first_conn; ++i)
        if ((pfds[i].revents & POLLIN) != 0) accept_ready(pfds[i].fd);

    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      bool open = true;
      const short revents =
          first_conn + i < pfds.size() ? pfds[first_conn + i].revents : 0;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const std::size_t cap = c.buffer.tail_capacity();
        const ssize_t n =
            cap > 0 ? ::read(c.fd, c.buffer.tail(), cap) : ssize_t{-1};
        if (cap == 0) errno = EAGAIN;  // defensive; parse always frees space
        if (n > 0) {
          c.last_activity = now;
          c.buffer.commit(static_cast<std::size_t>(n));
          open = drain_parsed(c, {parsed.data(), parsed.size()}, batch,
                              outcomes, evictions);
        } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
          // Disconnect: a trailing unterminated line is NOT a record — it
          // could be the front half of one — so it is counted as a
          // partial, never submitted.
          const bool partial = c.buffer.has_partial();
          open = false;
          runtime::MutexLock lock(state_mu_);
          if (partial) ++feed_.partial;
          ++feed_.disconnects;
        }
      } else if (now - c.last_activity > config_.read_deadline) {
        open = false;
        runtime::MutexLock lock(state_mu_);
        ++feed_.read_timeouts;
      }
      if (open && c.buffer.has_partial()) {
        // Slow-dribble guard: bytes are flowing but no line has completed
        // within the read deadline, or the partial has outgrown the byte
        // cap.  ONE event per connection — the connection closes with it —
        // counted apart from malformed lines.
        const bool too_slow = now - c.last_progress > config_.read_deadline;
        const bool too_big =
            c.buffer.bytes_since_line() > config_.slow_drip_byte_cap;
        if (too_slow || too_big) {
          open = false;
          quarantine_line(c.buffer.partial_sample(),
                          too_big ? "slow drip: byte cap exceeded"
                                  : "slow drip: no line within deadline",
                          /*count_malformed=*/false);
          runtime::MutexLock lock(state_mu_);
          ++feed_.slow_drip;
        }
      }
      if (open) {
        if (kept != i) conns[kept] = std::move(c);
        ++kept;
      } else {
        close_fd(c.fd);
        // order: relaxed — counters only (see accept_ready).
        open_conns_.fetch_sub(1, std::memory_order_relaxed);
        self.load.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    conns.resize(kept);
  }

  // Shutdown: close owned connections and anything handed over but never
  // adopted.
  for (Connection& c : conns) close_fd(c.fd);
  runtime::MutexLock lock(self.mu);
  for (const int fd : self.incoming) close_fd(fd);
  self.incoming.clear();
}

}  // namespace pjsched::service
