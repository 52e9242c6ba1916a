// Sharded-ingest stress: many concurrent connections blast interleaved
// good/hostile bytes (malformed lines, oversize lines both in-buffer and
// buffer-overflowing, comments, mid-line disconnects) at a daemon running
// several io shards, writing in adversarial chunk sizes so lines split at
// arbitrary read boundaries.  Every byte must be classified exactly once
// and every record must reach exactly one terminal outcome — the books
// balance to the line.  Built to run under TSAN: this is the test that
// races the accept handoff, the per-shard parse loops, and the batched
// admission path against each other.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/service/daemon.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"
#include "src/service/tenant_router.h"
#include "tests/alloc_counter.h"

namespace pjsched::service {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kClients = 12;
constexpr int kLinesPerClient = 200;
constexpr std::size_t kTenants = 4;

/// What one client actually sent, tallied line by line as it composes the
/// feed — the ground truth the daemon's counters must reproduce.
struct ClientTally {
  std::uint64_t good = 0;
  std::uint64_t malformed = 0;
  std::uint64_t oversize = 0;
  bool partial = false;
  bool connected = false;
  std::array<std::uint64_t, kTenants> per_tenant{};
};

/// Polls until `pred()` or the timeout; returns pred()'s final value.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

void run_client(int port, unsigned seed, bool end_with_partial,
                ClientTally* out) {
  std::string error;
  const int fd = connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port),
                             &error);
  ASSERT_GE(fd, 0) << error;
  out->connected = true;

  std::mt19937 rng(seed);
  std::string feed;
  for (int i = 0; i < kLinesPerClient; ++i) {
    const unsigned roll = rng() % 100;
    if (roll < 60) {
      const std::size_t tenant = rng() % kTenants;
      feed += "job t" + std::to_string(tenant) + " " +
              std::to_string(1 + rng() % 3) + "\n";
      ++out->good;
      ++out->per_tenant[tenant];
    } else if (roll < 75) {
      feed += (rng() % 2 == 0) ? "job missing-work\n" : "bogus verb here\n";
      ++out->malformed;
    } else if (roll < 90) {
      feed += (rng() % 2 == 0) ? "# operator noise\n" : "\n";
    } else {
      // Alternate the two oversize shapes: a complete line just over the
      // bound (classified by the parser) and a line bigger than the whole
      // read buffer (classified by IngestBuffer's overflow path).
      const std::size_t len =
          (rng() % 2 == 0) ? kMaxLineBytes + 17 : 5 * kMaxLineBytes;
      feed += std::string(len, 'z') + "\n";
      ++out->oversize;
    }
  }
  if (end_with_partial) {
    feed += "job t0 99";  // no newline: dies mid-line on disconnect
    out->partial = true;
  }

  // Adversarial pacing: write in random chunk sizes so line boundaries
  // land anywhere relative to the daemon's reads.
  std::size_t off = 0;
  while (off < feed.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng() % 4096, feed.size() - off);
    ASSERT_TRUE(write_all(fd, std::string_view(feed).substr(off, chunk)));
    off += chunk;
  }
  close_fd(fd);
}

TEST(ServiceIngest, ShardedHostileFloodBalancesTheBooks) {
  DaemonConfig config;
  config.pool.workers = 2;
  config.pool.watchdog_interval = std::chrono::milliseconds(0);
  config.router.capacity = 4096;
  config.tick_interval = 2ms;
  config.ns_per_unit = 200.0;
  config.tcp_port = 0;
  config.io_threads = 3;  // acceptor shard + two adoptive shards
  config.max_connections = kClients + 4;
  // Long deadlines: under TSAN a client thread can stall well past the
  // defaults, and this test wants every close to be a *peer* close.
  config.read_deadline = 30000ms;
  Daemon daemon(config);

  std::vector<ClientTally> tallies(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back(run_client, daemon.tcp_port(),
                           static_cast<unsigned>(9000 + 17 * i),
                           /*end_with_partial=*/i % 2 == 0, &tallies[i]);
    }
    for (auto& t : clients) t.join();
  }

  ClientTally total;
  std::uint64_t partials = 0;
  for (const auto& t : tallies) {
    ASSERT_TRUE(t.connected);
    total.good += t.good;
    total.malformed += t.malformed;
    total.oversize += t.oversize;
    if (t.partial) ++partials;
    for (std::size_t k = 0; k < kTenants; ++k)
      total.per_tenant[k] += t.per_tenant[k];
  }

  // Every connection closed with its bytes fully written; wait for the
  // shards to classify the whole stream.
  ASSERT_TRUE(eventually(
      [&] {
        const DaemonSnapshot s = daemon.snapshot();
        return s.feed.records == total.good &&
               s.feed.disconnects == kClients;
      },
      20000ms))
      << "records=" << daemon.snapshot().feed.records << " want "
      << total.good;

  ASSERT_TRUE(daemon.drain(30000ms));
  const DaemonSnapshot snap = daemon.snapshot();

  // Ingest classification, byte for byte.
  EXPECT_EQ(snap.feed.records, total.good);
  EXPECT_EQ(snap.feed.malformed, total.malformed);
  EXPECT_EQ(snap.feed.oversize, total.oversize);
  EXPECT_EQ(snap.feed.partial, partials);
  EXPECT_EQ(snap.feed.connections, kClients);
  EXPECT_EQ(snap.feed.disconnects, kClients);
  EXPECT_EQ(snap.feed.refused, 0u);
  EXPECT_EQ(snap.feed.read_timeouts, 0u);
  EXPECT_EQ(snap.feed.slow_drip, 0u);
  EXPECT_GE(snap.feed.batches, 1u);
  EXPECT_LE(snap.feed.batches, snap.feed.records);

  // Per-tenant books: exactly what each client said it sent, and every
  // submitted record at exactly one terminal outcome.
  std::uint64_t submitted_sum = 0;
  for (const auto& [name, t] : snap.tenants) {
    EXPECT_EQ(t.submitted, t.terminal()) << "tenant " << name;
    submitted_sum += t.submitted;
  }
  EXPECT_EQ(submitted_sum, total.good);
  for (std::size_t k = 0; k < kTenants; ++k) {
    const auto it =
        snap.tenants.find(std::string("t").append(std::to_string(k)));
    if (total.per_tenant[k] == 0) continue;
    ASSERT_NE(it, snap.tenants.end()) << "tenant t" << k;
    EXPECT_EQ(it->second.submitted, total.per_tenant[k]) << "tenant t" << k;
  }

  // Router conservation: accepted == popped + evictions + depth (0 after
  // drain), and every push attempt is accounted somewhere.
  EXPECT_EQ(snap.router.depth, 0u);
  EXPECT_EQ(snap.router.accepted, snap.router.popped +
                                      snap.router.shed_fair_share +
                                      snap.router.shed_queued);
  EXPECT_EQ(snap.feed.records,
            snap.router.accepted + snap.router.shed_arrival_full +
                snap.router.shed_new + snap.router.rejected_tenant +
                snap.router.rejected_drain);
}

// The ingest hot path in one thread: chunked deposits into an
// IngestBuffer, batched parse, admit_batch and paired pops over a feed of
// 4096 short records from 16 tenants.  Batch slots reuse their tenant
// strings and the router's tenant entries keep their queues, so the steady
// state stays within one operator new call per record (~0.2 measured); a
// per-record or per-field allocation would exceed it.
TEST(ServiceIngest, ParseAdmitPopAllocatesAtMostOncePerRecord) {
  constexpr std::size_t kRecords = 4096;
  constexpr std::size_t kFeedTenants = 16;
  std::string feed;
  for (std::size_t i = 0; i < kRecords; ++i) {
    feed += "job t" + std::to_string(i % kFeedTenants) + " " +
            std::to_string(1 + i % 4) + "\n";
  }
  RouterConfig router_config;
  router_config.capacity = 1 << 16;
  TenantRouter router(router_config);
  IngestBuffer buffer(kMaxLineBytes);
  std::vector<ParsedRecord> parsed(256);
  std::vector<JobRecord> batch;
  std::vector<TenantRouter::BatchOutcome> outcomes;
  std::vector<ShedRecord> evictions;

  // One pass: every record parsed, admitted and popped again.
  const auto pass = [&] {
    std::size_t admitted = 0;
    for (std::size_t off = 0; off < feed.size();) {
      const std::size_t chunk =
          std::min(buffer.tail_capacity(), feed.size() - off);
      std::memcpy(buffer.tail(), feed.data() + off, chunk);
      buffer.commit(chunk);
      off += chunk;
      for (;;) {
        const BatchParse bp = buffer.parse({parsed.data(), parsed.size()});
        if (bp.produced == 0 && bp.consumed == 0) break;
        batch.clear();
        for (std::size_t i = 0; i < bp.produced; ++i) {
          if (parsed[i].status == ParseStatus::kRecord)
            batch.push_back(std::move(parsed[i].record));
        }
        admitted += batch.size();
        router.admit_batch({batch.data(), batch.size()}, &outcomes,
                           &evictions);
      }
    }
    QueuedRecord popped;
    std::size_t pops = 0;
    while (router.try_pop(&popped)) ++pops;
    EXPECT_EQ(admitted, kRecords);
    EXPECT_EQ(pops, kRecords);
  };

  pass();  // warm every reusable buffer; the budget is the steady state's
  constexpr std::size_t kPasses = 16;
  const std::uint64_t before = testutil::thread_allocations;
  for (std::size_t i = 0; i < kPasses; ++i) pass();
  const double per_record =
      static_cast<double>(testutil::thread_allocations - before) /
      static_cast<double>(kPasses * kRecords);
  EXPECT_LE(per_record, 1.0);
}

}  // namespace
}  // namespace pjsched::service
