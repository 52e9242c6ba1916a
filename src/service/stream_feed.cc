#include "src/service/stream_feed.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pjsched::service {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

char* IngestBuffer::tail() {
  // Deferred compaction: parse() only advances head_, so the entries it
  // returned keep referencing stable bytes; the memmove happens here, when
  // the caller is about to overwrite the buffer anyway.
  if (head_ > 0) {
    std::memmove(buf_.data(), buf_.data() + head_, size_);
    head_ = 0;
  }
  return buf_.data() + size_;
}

void IngestBuffer::commit(std::size_t n) {
  size_ += n;
  since_line_ += n;
}

BatchParse IngestBuffer::parse(std::span<ParsedRecord> out) {
  BatchParse result;
  if (discarding_) {
    // Inside an oversize line that was already reported: drop bytes until
    // the resync newline, silently.
    const void* nl = std::memchr(buf_.data() + head_, '\n', size_);
    if (nl == nullptr) {
      head_ = 0;
      size_ = 0;
      return result;
    }
    const std::size_t skip = static_cast<std::size_t>(
                                 static_cast<const char*>(nl) -
                                 (buf_.data() + head_)) +
                             1;
    head_ += skip;
    size_ -= skip;
    result.consumed += skip;
    discarding_ = false;
    since_line_ = size_;
  }
  const BatchParse scanned =
      parse_batch(std::string_view(buf_.data() + head_, size_), out);
  result.produced = scanned.produced;
  result.consumed += scanned.consumed;
  if (scanned.consumed > 0) {
    // A completed line (even an oversize resync) is progress, so the
    // slow-dribble counter resets to just the pending partial.
    head_ += scanned.consumed;
    size_ -= scanned.consumed;
    since_line_ = size_;
  }
  if (head_ == 0 && size_ == buf_.size() && result.produced < out.size()) {
    // The whole buffer is one line with no newline in sight: report it
    // once (truncated prefix only), drop the bytes, and discard until the
    // resync newline.
    ParsedRecord& entry = out[result.produced];
    entry.status = ParseStatus::kOversize;
    entry.line =
        std::string_view(buf_.data(), std::min(size_, max_line_bytes_));
    entry.error = "line overflowed the read buffer without a newline";
    ++result.produced;
    size_ = 0;
    discarding_ = true;
  }
  return result;
}

int listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path empty or too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errno_string("socket(AF_UNIX)");
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale socket file from a crashed daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = errno_string("bind(unix)");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) < 0) {
    if (error != nullptr) *error = errno_string("listen(unix)");
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(std::uint16_t port, std::string* error,
               std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errno_string("socket(AF_INET)");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the feed is unauthenticated, so it is never exposed
  // beyond the host.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = errno_string("bind(tcp)");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) < 0) {
    if (error != nullptr) *error = errno_string("listen(tcp)");
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0)
      *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int accept_client(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path empty or too long";
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errno_string("socket(AF_UNIX)");
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = errno_string("connect(unix)");
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errno_string("socket(AF_INET)");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = errno_string("connect(tcp)");
    ::close(fd);
    return -1;
  }
  return fd;
}

bool wait_readable(int fd, std::chrono::milliseconds timeout) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (rc > 0) return (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace pjsched::service
