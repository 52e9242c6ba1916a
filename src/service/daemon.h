// The scheduling daemon core: streaming ingest -> per-tenant fair admission
// (TenantRouter) -> ThreadPool execution, with full terminal-outcome
// accounting per tenant.
//
// Threads owned by a Daemon:
//
//   dispatcher   pops weighted-fair from the router and submits to the
//                pool, at most dispatch_window jobs in flight; enforces
//                per-record deadline budgets (time already spent queued in
//                the router counts against the budget).  It sleeps until
//                a record arrives (work_cv_) or, with the window full and
//                its oldest in-flight job younger than 1 ms, until that
//                job finishes (its Job condvar); no wait lasts over 1 ms
//                (docs/service.md, "Dispatch");
//   maintenance  ticks the degradation ladder (utilization + watchdog
//                stall signal), accounts tick-time evictions, and reaps
//                finished pool jobs into per-tenant counters;
//   io shards (optional) N poll()-based event loops (--io-threads; default
//                hw_concurrency/4) over the configured Unix/TCP listeners
//                and their connections.  Shard 0 accepts and hands each new
//                connection to the least-loaded shard over a wake pipe;
//                every shard owns its connections' read buffers outright
//                (zero-copy batched parsing via IngestBuffer/parse_batch,
//                batched admission via TenantRouter::admit_batch), so io
//                shards never share connection state and a flood of
//                connections still cannot exhaust daemon threads: the
//                thread count is fixed at startup.
//
// The accounting invariant the chaos campaign leans on: every record that
// enters submit_record() reaches EXACTLY ONE terminal outcome —
// completed, failed, deadline-expired, shed, or rejected — visible in the
// per-tenant counters; after a successful drain(), submitted ==
// completed + failed + deadline_expired + shed + rejected for every
// tenant.  Malformed input never becomes a record: it is quarantined and
// counted, never submitted, never crashes the daemon.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/metrics/streaming_stats.h"
#include "src/runtime/annotations.h"
#include "src/runtime/mutex.h"
#include "src/runtime/thread_pool.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"
#include "src/service/tenant_router.h"

namespace pjsched::service {

struct DaemonConfig {
  runtime::PoolOptions pool;
  RouterConfig router;

  /// Unix-domain listener path ("" = no unix listener).
  std::string unix_socket_path;
  /// Loopback TCP listener port (-1 = none, 0 = ephemeral; see
  /// Daemon::tcp_port() for the bound port).
  int tcp_port = -1;
  /// A connection that sends no bytes for this long is closed (a stalled
  /// feed must not pin a connection slot forever).  The same deadline
  /// bounds line progress: a peer that keeps dribbling bytes without ever
  /// completing a line is cut off (one slow_drip event) once this long
  /// passes without a completed line.
  std::chrono::milliseconds read_deadline{5000};
  /// Sharded io event loops: how many io threads serve the configured
  /// listeners.  0 = auto (hardware_concurrency / 4, at least 1).
  std::size_t io_threads = 0;
  /// Byte cap on the slow-dribble guard: a connection is closed once this
  /// many bytes arrive without a completed line, however fast they come.
  std::size_t slow_drip_byte_cap = 16 * kMaxLineBytes;
  /// Ladder/reaper cadence.
  std::chrono::milliseconds tick_interval{10};
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 64;
  /// CPU time rendered per work unit (see runtime::spin_for_units).
  double ns_per_unit = 1000.0;
  /// Max jobs dispatched to the pool but not yet reaped (0 = 4x workers).
  /// The dispatcher stops popping at the window so the backlog stays in
  /// the ROUTER — where weighted fairness and the ladder's utilization
  /// signal live — instead of leaking into the pool's FIFO queue.  A full
  /// window waits for its oldest in-flight job to finish, and for
  /// arrivals once that job is 1 ms old.
  std::size_t dispatch_window = 0;
  /// How many recent malformed-line samples to keep for diagnosis.
  std::size_t quarantine_keep = 16;
};

/// Per-tenant terminal-outcome books.  submitted counts every parsed
/// record routed for the tenant; the five outcome counters partition the
/// records that have reached a terminal state, so
///   submitted == terminal() + (records still queued or executing)
/// at all times, with the parenthetical zero after a drain.
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t shed = 0;      ///< fair-share / shed-new / shed-queued, plus
                               ///< pool-level shed
  std::uint64_t rejected = 0;  ///< reject-tenant / drain, plus pool-level
                               ///< rejection
  /// Flow accounting over *completed* records, measured from ingest (router
  /// queueing counts — the whole point of max flow time).
  double max_flow_seconds = 0.0;
  double sum_flow_seconds = 0.0;
  std::uint64_t flow_samples = 0;
  /// Reservoir-estimated p99 flow (exact while samples fit the per-tenant
  /// reservoir).  Filled in snapshot(); 0 with no completed records.
  double p99_flow_seconds = 0.0;

  std::uint64_t terminal() const {
    return completed + failed + deadline_expired + shed + rejected;
  }
};

/// Ingest-side counters (socket feed plumbing).
struct FeedStats {
  std::uint64_t records = 0;        ///< well-formed records submitted
  std::uint64_t malformed = 0;      ///< lines quarantined by the parser
  std::uint64_t oversize = 0;       ///< lines over kMaxLineBytes
  std::uint64_t partial = 0;        ///< unterminated final lines (disconnect)
  std::uint64_t connections = 0;    ///< accepted
  std::uint64_t refused = 0;        ///< over max_connections
  std::uint64_t disconnects = 0;    ///< peer closed
  std::uint64_t read_timeouts = 0;  ///< closed by the read deadline (silent)
  std::uint64_t slow_drip = 0;      ///< closed by the dribble guard: bytes
                                    ///< flowed but no line completed within
                                    ///< the deadline/byte cap (ONE event per
                                    ///< connection, distinct from malformed)
  std::uint64_t commands = 0;       ///< control verbs served ("metrics")
  std::uint64_t batches = 0;        ///< admission batches (records/batches
                                    ///< is the achieved coalescing factor)
};

/// One coherent cross-layer snapshot (each layer contributes its own
/// coherent snapshot; see TenantRouter::Stats / AdmissionQueue::Stats).
struct DaemonSnapshot {
  Rung rung = Rung::kNormal;
  TenantRouter::Stats router;
  runtime::PoolStats pool;
  runtime::AdmissionQueue::Stats admission;
  FeedStats feed;
  std::map<std::string, TenantCounters> tenants;
  std::size_t inflight = 0;  ///< dispatched to the pool, not yet reaped
  /// Full-window waits on the oldest in-flight job, and those that ended
  /// at the job's 1 ms mark rather than at its completion.
  std::uint64_t window_waits = 0;
  std::uint64_t window_timeouts = 0;
  std::vector<std::string> quarantine;  ///< recent malformed-line samples
};

class Daemon {
 public:
  /// Starts the pool and the dispatcher/maintenance threads; the io thread
  /// too when a listener is configured.  Throws std::runtime_error when a
  /// configured listener cannot be created.
  explicit Daemon(const DaemonConfig& config);
  /// Stops ingest, cancels nothing that is running, sheds whatever is
  /// still queued in the router (terminal outcome: rejected/drain), drains
  /// the pool, joins all threads.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sets a tenant's fair-share weight in the router.
  void set_weight(const std::string& tenant, double weight);

  /// Routes one parsed record (in-process feed: tests, replay, chaos).
  /// Every call lands in the tenant's books; the return mirrors the
  /// router's decision for the *pushed* record.
  PushOutcome submit_record(JobRecord record);

  /// Parses and routes one feed line (no trailing newline).  Returns false
  /// when the line was malformed (quarantined, counted, never fatal).
  bool feed_line(std::string_view line);

  /// Replay-file feed: loads a workload instance (runtime/replayer.*
  /// loader, so truncated/corrupt files surface as ReplayFileError) and
  /// submits each job as a record for `tenant`, pacing arrivals by
  /// `time_scale` seconds per instance time unit (0 = submit all at once).
  /// Returns the number of records submitted.
  std::size_t feed_replay_file(const std::string& path,
                               const std::string& tenant, double time_scale);

  /// Stops accepting new records (drain rung), then waits for the router
  /// and the pool to empty.  True when fully drained within the timeout;
  /// false means something is wedged (the chaos campaign treats false as a
  /// deadlock verdict).
  bool drain(std::chrono::milliseconds timeout);

  DaemonSnapshot snapshot() const;
  /// Human-readable snapshot (the `pjschedd` status output).
  std::string metrics_text() const;
  /// Machine-readable snapshot: newline-delimited `key value` pairs ending
  /// with `end` — the payload of the feed protocol's `metrics` command, so
  /// callers scrape this instead of parsing metrics_text().  Includes the
  /// ladder rung, router/pool/ingest counters, and per-tenant books with
  /// reservoir p99 flow.
  std::string metrics_machine() const;

  TenantRouter& router() { return router_; }
  runtime::ThreadPool& pool() { return pool_; }
  /// Bound TCP port, or -1 when no TCP listener was configured.
  int tcp_port() const { return tcp_port_; }

 private:
  struct PendingJob {
    runtime::JobHandle handle;
    std::string tenant;
    Clock::time_point ingest{};
  };

  /// One live feed connection, owned by exactly one io shard.
  struct Connection {
    int fd = -1;
    IngestBuffer buffer{kMaxLineBytes};
    Clock::time_point last_activity{};
    /// Last time a complete line was parsed (or the accept time): the
    /// slow-dribble guard fires when a partial line outlives this by
    /// read_deadline.
    Clock::time_point last_progress{};
  };

  /// One io event loop.  Loop-local state (connections, pollfds, parse and
  /// admission scratch) lives on the shard thread's stack; only the accept
  /// handoff is shared, under `mu`.
  struct IoShard {
    runtime::Mutex mu;
    std::vector<int> incoming PJSCHED_GUARDED_BY(mu);  ///< accepted fds
                                                       ///< awaiting adoption
    int wake_rd = -1;  ///< wake pipe: poke the shard out of poll()
    int wake_wr = -1;
    /// Connections currently owned (approximate: the acceptor reads it to
    /// balance; the owner updates it on adopt/close).
    std::atomic<std::size_t> load{0};
    std::thread thread;
  };

  void dispatcher_main();
  void maintenance_main();
  void io_shard_main(std::size_t shard_index);
  /// Accept-side of shard 0: drains a readable listener, balancing new
  /// connections across shards.
  void accept_ready(int listen_fd);
  /// Runs the parse->classify->admit pipeline over a connection's buffered
  /// bytes (io shard threads).  Returns false when the connection must be
  /// closed (unresponsive metrics peer).
  bool drain_parsed(Connection& c, std::span<ParsedRecord> parsed,
                    std::vector<JobRecord>& batch,
                    std::vector<TenantRouter::BatchOutcome>& outcomes,
                    std::vector<ShedRecord>& evictions);
  /// Batched submission: books `submitted` for the whole batch under one
  /// state lock, admits via TenantRouter::admit_batch, accounts sheds under
  /// one more lock hold.  Clears `records`.
  void admit_records(std::vector<JobRecord>& records,
                     std::vector<TenantRouter::BatchOutcome>& outcomes,
                     std::vector<ShedRecord>& evictions);

  /// Submits one popped record to the pool (dispatcher thread).
  void dispatch(QueuedRecord rec);
  /// Books a terminal outcome for a record the router gave up on.
  void account_shed_reason(const std::string& tenant, ShedReason reason);
  void account_shed(const QueuedRecord& rec, ShedReason reason);
  void account_sheds(const std::vector<ShedRecord>& sheds);
  /// Moves finished pending jobs into tenant counters; returns how many
  /// jobs are still in flight.
  std::size_t reap_finished();
  /// Saves a quarantine sample for diagnosis.  `count_malformed` is false
  /// for slow-drip closes, which have their own counter.
  void quarantine_line(std::string_view line, std::string_view why,
                       bool count_malformed = true);

  const DaemonConfig config_;
  runtime::ThreadPool pool_;
  TenantRouter router_;

  mutable runtime::Mutex state_mu_;
  std::map<std::string, TenantCounters> tenants_ PJSCHED_GUARDED_BY(state_mu_);
  /// Per-tenant completed-flow reservoirs backing the p99 export.
  std::map<std::string, metrics::StreamingFlowStats> flow_
      PJSCHED_GUARDED_BY(state_mu_);
  std::vector<PendingJob> pending_ PJSCHED_GUARDED_BY(state_mu_);
  FeedStats feed_ PJSCHED_GUARDED_BY(state_mu_);
  std::deque<std::string> quarantine_ PJSCHED_GUARDED_BY(state_mu_);
  std::uint64_t window_waits_ PJSCHED_GUARDED_BY(state_mu_) = 0;
  std::uint64_t window_timeouts_ PJSCHED_GUARDED_BY(state_mu_) = 0;

  /// Dispatcher wakeup: submit_record notifies after a successful push.
  // lint: allow(wait-lock): pairs with work_cv_ only; guards no data — the
  // dispatcher's pop predicate reads the router under its own lock, this
  // lock just closes the check-then-block window.
  runtime::Mutex work_mu_;
  runtime::CondVar work_cv_;

  std::atomic<bool> stop_{false};
  /// True while the dispatcher holds a record it popped from the router
  /// but has not yet entered in pending_ (or expired).  drain() reads it
  /// between the router depth and pending_, so a record in the
  /// dispatcher's hand keeps drain() from reporting the daemon empty.
  std::atomic<bool> dispatching_{false};
  std::atomic<std::uint64_t> last_watchdog_dumps_{0};
  /// Open connections across all io shards (max_connections gate).
  std::atomic<std::size_t> open_conns_{0};

  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = -1;
  Clock::time_point started_{};

  std::thread dispatcher_;
  std::thread maintenance_;
  std::vector<std::unique_ptr<IoShard>> io_shards_;
};

}  // namespace pjsched::service
