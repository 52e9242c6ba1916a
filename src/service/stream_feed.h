// Byte-stream plumbing for the daemon's ingest: a per-connection read
// buffer that splits lines under a hard per-line byte bound (the defense
// against a client that never sends '\n'), and small wrappers over POSIX
// sockets — loopback TCP and Unix-domain listeners, client connects, and
// poll-based readiness waits.  Everything here reports failure as a return
// value; nothing throws on bad input from the network.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/record.h"

namespace pjsched::service {

/// Per-connection flat read buffer for the zero-copy batched ingest path
/// on the daemon's io shards.  Usage per readiness event:
///
///   ssize_t n = read(fd, buf.tail(), buf.tail_capacity());
///   if (n > 0) { buf.commit(n); while (buf.parse(entries) made progress) ... }
///
/// parse() scans the buffered bytes with parse_batch (entries reference the
/// buffer in place — valid until the next commit/parse), then compacts the
/// unconsumed partial-line tail to the front, carrying it across reads.  A
/// line that outgrows the whole buffer without a newline is reported ONCE
/// as a kOversize entry, its bytes are dropped, and the buffer enters
/// discard mode until the resync newline — so a peer streaming an unbounded
/// line costs one event and zero buffered memory growth, and the stream
/// recovers cleanly on the next line.
class IngestBuffer {
 public:
  /// Buffer capacity is 4x the line bound: any legal line always fits, and
  /// reads batch several lines per syscall.
  explicit IngestBuffer(std::size_t max_line_bytes = kMaxLineBytes)
      : max_line_bytes_(max_line_bytes), buf_(4 * max_line_bytes) {}

  /// Write window for the caller's read(): deposit up to tail_capacity()
  /// bytes at tail(), then commit(n).  tail() compacts the pending partial
  /// to the buffer front first (deferred from parse() so parse entries stay
  /// valid until the caller is done with them); tail_capacity() is positive
  /// after every parse() drain by construction (consumption, compaction, or
  /// discard always frees space).
  char* tail();
  std::size_t tail_capacity() const { return buf_.size() - size_; }
  void commit(std::size_t n);

  /// Scans buffered bytes into `out` (see parse_batch), handling oversize
  /// overflow and discard-mode resync.  Call in a loop until it returns
  /// {0, 0}; entries reference the buffer IN PLACE — valid until the next
  /// tail()/commit(), which may compact under them.
  BatchParse parse(std::span<ParsedRecord> out);

  /// True when bytes of an incomplete line are pending (buffered or being
  /// discarded) — set at disconnect time, the classic mid-line partial.
  bool has_partial() const { return size_ > 0 || discarding_; }
  /// Truncated prefix of the pending partial line (diagnostics).
  std::string_view partial_sample() const {
    return std::string_view(buf_.data() + head_,
                            std::min<std::size_t>(size_, 96));
  }
  /// Bytes received since the last completed line — the slow-dribble
  /// signal: a peer feeding bytes that never finish a line grows this
  /// without bound, and the daemon cuts it off at its byte cap.
  std::uint64_t bytes_since_line() const { return since_line_; }

 private:
  std::size_t max_line_bytes_;
  std::vector<char> buf_;
  std::size_t head_ = 0;      ///< consumed-bytes offset (folded into buf_
                              ///< by the deferred compaction in tail())
  std::size_t size_ = 0;      ///< buffered bytes past head_ (always a line
                              ///< prefix after a parse() drain)
  bool discarding_ = false;   ///< inside an already-reported oversize line
  std::uint64_t since_line_ = 0;
};

/// Creates a listening Unix-domain socket at `path` (unlinking a stale
/// one).  Returns the fd, or -1 with *error set.
int listen_unix(const std::string& path, std::string* error);

/// Creates a loopback (127.0.0.1) TCP listener on `port` (0 = ephemeral).
/// Returns the fd, or -1 with *error set; *bound_port receives the actual
/// port when non-null.
int listen_tcp(std::uint16_t port, std::string* error,
               std::uint16_t* bound_port = nullptr);

/// Accepts one pending connection (the listener must be readable).
/// Returns the fd or -1.
int accept_client(int listen_fd);

int connect_unix(const std::string& path, std::string* error);
int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error);

/// Polls `fd` for readability; true when readable before the timeout.
bool wait_readable(int fd, std::chrono::milliseconds timeout);

/// Writes the whole buffer, retrying short writes; false on error (the
/// caller treats it as a dead connection).  SIGPIPE-safe (MSG_NOSIGNAL on
/// sockets).
bool write_all(int fd, std::string_view data);

void close_fd(int fd);

}  // namespace pjsched::service
