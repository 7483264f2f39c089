#include "cluster/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/stopwatch.hpp"

namespace textmr::cluster {

// ---- Connection -----------------------------------------------------------

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    io_timeout_ms_ = other.io_timeout_ms_;
  }
  return *this;
}

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::drain(FrameDecoder& decoder) const {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return false;
    throw IoError("cluster recv failed: " + std::string(strerror(errno)));
  }
}

// ---- TCP helpers ----------------------------------------------------------

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw IoError("fcntl(O_NONBLOCK) failed: " + std::string(strerror(errno)));
  }
}

void set_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0) {
    throw IoError("fcntl(~O_NONBLOCK) failed: " +
                  std::string(strerror(errno)));
  }
}

sockaddr_in make_addr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("invalid IPv4 address '" + endpoint.host + "'");
  }
  return addr;
}

void set_nodelay(int fd) {
  // Coordinator frames are small and latency-sensitive (heartbeats,
  // dispatch); Nagle would batch them behind unacked data.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

int tcp_listen(const Endpoint& endpoint, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError("socket failed: " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(endpoint);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw IoError("bind " + endpoint.to_string() + " failed: " + err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw IoError("listen on " + endpoint.to_string() + " failed: " + err);
  }
  return fd;
}

int tcp_connect(const Endpoint& endpoint, std::int32_t timeout_ms) {
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("net.connect")) {
      if (action->kind == failpoint::ActionKind::kDelay) {
        failpoint::maybe_delay(*action);
      } else {
        throw failpoint::InjectedFault("net.connect");
      }
    }
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError("socket failed: " + std::string(strerror(errno)));
  }
  sockaddr_in addr = make_addr(endpoint);
  // Non-blocking connect so the timeout is enforceable; restored to
  // blocking afterwards (worker-side channels rely on blocking I/O).
  set_nonblocking(fd);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw IoError("connect " + endpoint.to_string() + " failed: " + err);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const std::uint64_t deadline_ns =
        timeout_ms < 0 ? 0
                       : monotonic_ns() + static_cast<std::uint64_t>(
                                              timeout_ms) * 1000000ull;
    while (true) {
      int wait = -1;
      if (deadline_ns != 0) {
        const std::uint64_t now = monotonic_ns();
        if (now >= deadline_ns) {
          ::close(fd);
          throw IoError("connect " + endpoint.to_string() + " timed out");
        }
        wait = static_cast<int>((deadline_ns - now) / 1000000ull + 1);
      }
      const int prc = ::poll(&pfd, 1, wait);
      if (prc > 0) break;
      if (prc == 0) continue;  // re-check the deadline
      if (errno != EINTR) {
        const std::string err = strerror(errno);
        ::close(fd);
        throw IoError("connect poll failed: " + err);
      }
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      throw IoError("connect " + endpoint.to_string() +
                    " failed: " + strerror(so_error != 0 ? so_error : errno));
    }
  }
  set_blocking(fd);
  set_nodelay(fd);
  return fd;
}

int tcp_accept(int listen_fd, std::int32_t timeout_ms) {
  const std::uint64_t deadline_ns =
      timeout_ms < 0 ? 0
                     : monotonic_ns() +
                           static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
  while (true) {
    int wait = -1;
    if (deadline_ns != 0) {
      const std::uint64_t now = monotonic_ns();
      if (now >= deadline_ns) {
        throw IoError("accept timed out (no worker connected)");
      }
      wait = static_cast<int>((deadline_ns - now) / 1000000ull + 1);
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int prc = ::poll(&pfd, 1, wait);
    if (prc == 0) continue;  // re-check the deadline
    if (prc < 0) {
      if (errno == EINTR) continue;
      throw IoError("accept poll failed: " + std::string(strerror(errno)));
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    throw IoError("accept failed: " + std::string(strerror(errno)));
  }
}

Endpoint local_endpoint(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw IoError("getsockname failed: " + std::string(strerror(errno)));
  }
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  Endpoint endpoint;
  endpoint.host = host;
  endpoint.port = ntohs(addr.sin_port);
  return endpoint;
}

// ---- TCP transport --------------------------------------------------------

TcpTransport::TcpTransport(const Endpoint& listen, std::int32_t io_timeout_ms)
    : io_timeout_ms_(io_timeout_ms) {
  listen_fd_ = tcp_listen(listen);
  endpoint_ = local_endpoint(listen_fd_);
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

TcpTransport::WorkerChannel TcpTransport::make_worker_channel() {
  // Deterministic pre-fork pairing: dial our own listener, then accept
  // the matching connection. Both ends exist before fork(), so the
  // child's welcome can go out the moment it is forked.
  const int child_fd = tcp_connect(endpoint_, io_timeout_ms_);
  const int coord_fd = tcp_accept(listen_fd_, io_timeout_ms_);
  set_nonblocking(coord_fd);
  WorkerChannel channel;
  channel.coordinator = Connection(coord_fd, io_timeout_ms_);
  channel.child_fd = child_fd;
  return channel;
}

void TcpTransport::close_listener() {
  // A later coordinator restart would find the port busy, and accept()
  // races would be possible.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Connection TcpTransport::accept_worker(std::int32_t timeout_ms) {
  const int fd = tcp_accept(listen_fd_, timeout_ms);
  set_nonblocking(fd);
  return Connection(fd, io_timeout_ms_);
}

}  // namespace textmr::cluster
