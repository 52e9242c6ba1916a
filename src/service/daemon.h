// The scheduling daemon core: streaming ingest -> per-tenant fair admission
// (TenantRouter) -> ThreadPool execution, with full terminal-outcome
// accounting per tenant.
//
// Dispatch has no thread of its own.  pump() pops weighted-fair, enforces
// the record's deadline budget (time already spent queued in the router
// counts against it) and submits to the pool, at most dispatch_window jobs
// in flight.  It runs on the thread that admits an arrival (an io shard or
// the submit_record caller), and on the thread that retires a dispatched
// job: the job's finish hook books its outcome into the tenant's counters,
// frees its window slot and pumps (docs/service.md, "Dispatch").
//
// Threads owned by a Daemon:
//
//   maintenance  ticks the degradation ladder (utilization + watchdog
//                stall signal) and accounts tick-time evictions;
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
  /// Ladder cadence.
  std::chrono::milliseconds tick_interval{10};
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 64;
  /// CPU time rendered per work unit (see runtime::spin_for_units), in
  /// [0, kMaxNsPerUnit].
  double ns_per_unit = 1000.0;
  /// A whole kMaxWork-unit record then renders at most 1e18 ns, inside the
  /// int64 nanoseconds spin_for_units converts to.
  static constexpr double kMaxNsPerUnit = 1e9;
  /// Max records popped from the router but not yet finished (0 = 4x
  /// workers).  Dispatch stops popping at the window so the backlog stays
  /// in the ROUTER — where weighted fairness and the ladder's utilization
  /// signal live — instead of leaking into the pool's FIFO queue.  Arrivals
  /// fill the window as they come; each finishing job refills its own slot
  /// from a backlog already queued.
  std::size_t dispatch_window = 0;
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
  std::uint64_t shed = 0;      ///< router: fair-share / shed-new /
                               ///< shed-queued
  std::uint64_t rejected = 0;  ///< router: reject-tenant / drain
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
  std::size_t inflight = 0;  ///< popped from the router, not yet finished
  std::vector<std::string> quarantine;  ///< recent malformed-line samples
};

class Daemon {
 public:
  /// Starts the pool and the maintenance thread; the io threads too when a
  /// listener is configured.  Throws std::runtime_error when a configured
  /// listener cannot be created.
  explicit Daemon(const DaemonConfig& config);
  /// Stops ingest, cancels nothing that is running, sheds whatever is
  /// still queued in the router (terminal outcome: rejected/drain), waits
  /// for the jobs in flight, joins all threads.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sets a tenant's fair-share weight in the router.
  void set_weight(const std::string& tenant, double weight);

  /// Routes one parsed record (in-process feed: tests, replay, chaos).
  /// Every call lands in the tenant's books; the return mirrors the
  /// router's decision for the *pushed* record.
  PushOutcome submit_record(JobRecord record);

  /// Replay-file feed: loads a workload instance (runtime/replayer.*
  /// loader, so truncated/corrupt files surface as ReplayFileError) and
  /// submits each job as a record for `tenant`, pacing arrivals by
  /// `time_scale` seconds per instance time unit (0 = submit all at once).
  /// Returns the number of records submitted.  Throws std::invalid_argument,
  /// before submitting anything, when the last arrival so scaled lies
  /// beyond the steady clock's range.
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

  /// The one dispatch routine, run by whichever thread changed the state:
  /// pops and dispatches while the window has room, until stop_.
  void pump();
  /// Submits one popped record to the pool outside every lock, with
  /// finish() as its hook (or books its expiry and frees its slot).
  void dispatch(QueuedRecord rec);
  /// A dispatched job's finish hook, on the thread that retires it: books
  /// the outcome into the tenant's counters, frees the window slot, pumps.
  void finish(const std::string& tenant, Clock::time_point ingest,
              const runtime::Job& job);
  /// Books a terminal outcome for a record the router gave up on.
  void account_shed_reason(const std::string& tenant, ShedReason reason);
  void account_shed(const QueuedRecord& rec, ShedReason reason);
  void account_sheds(const std::vector<ShedRecord>& sheds);
  /// Saves a quarantine sample for diagnosis.  `count_malformed` is false
  /// for slow-drip closes, which have their own counter.
  void quarantine_line(std::string_view line, std::string_view why,
                       bool count_malformed = true);

  const DaemonConfig config_;
  runtime::ThreadPool pool_;
  TenantRouter router_;
  /// config_.dispatch_window, with 0 resolved to 4x workers.
  const std::size_t window_;

  /// Reservoir capacity for the per-tenant p99 flow export: the estimate is
  /// exact for a tenant's first 1024 completions.  Any client can name new
  /// tenants, so a reservoir grows with its samples rather than reserving
  /// the whole capacity for a tenant that may complete one job.
  static constexpr std::size_t kTenantFlowReservoir = 1024;

  /// One tenant's books: its counters, and the completed-flow reservoir
  /// behind their p99.
  struct TenantBook {
    TenantCounters counters;
    metrics::StreamingFlowStats flows{{.reservoir = kTenantFlowReservoir}};
  };

  mutable runtime::Mutex state_mu_;
  std::map<std::string, TenantBook> tenants_ PJSCHED_GUARDED_BY(state_mu_);
  /// Records popped from the router and not yet finished: in some
  /// thread's hand, or in the pool with their finish hook not yet run.  The
  /// pop and this count share one state_mu_ hold, so a record in hand
  /// fills a window slot, and drain(), which reads this after the router
  /// depth, never misses it.
  std::size_t inflight_ PJSCHED_GUARDED_BY(state_mu_) = 0;
  FeedStats feed_ PJSCHED_GUARDED_BY(state_mu_);
  std::deque<std::string> quarantine_ PJSCHED_GUARDED_BY(state_mu_);

  /// Ends ingest, the maintenance loop and dispatch: pump() reads it under
  /// state_mu_, so no record is popped after a hold that saw it set.
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> last_watchdog_dumps_{0};
  /// Open connections across all io shards (max_connections gate).
  std::atomic<std::size_t> open_conns_{0};

  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = -1;
  Clock::time_point started_{};

  std::thread maintenance_;
  std::vector<std::unique_ptr<IoShard>> io_shards_;
};

}  // namespace pjsched::service
