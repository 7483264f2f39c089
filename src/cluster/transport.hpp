#pragma once

/// Coordinator-worker channels (DESIGN.md §14).
///
/// The coordinator talks to each worker over a `Connection`: a framed,
/// bidirectional TCP byte channel. `TcpTransport` owns the coordinator's
/// loopback/LAN listener and makes every channel:
///
///   - Forked workers are paired deterministically: the coordinator
///     connects to its own listener immediately before the fork, so the
///     child inherits an established, identified TCP connection.
///   - External workers (started with `textmr_cli worker --connect`)
///     dial in and are adopted via accept_worker().
///
/// Every channel carries the same checksummed frames
/// ([len][crc32][payload]), so a flipped byte is caught. Connections
/// never own protocol state beyond a default I/O timeout; message
/// semantics stay in protocol.hpp and the engine/worker loops.

#include <cstdint>
#include <string>

#include "cluster/protocol.hpp"

namespace textmr::cluster {

/// One framed channel between coordinator and worker. Thin RAII wrapper
/// over an fd + default timeout; all I/O goes through the
/// protocol.hpp frame functions (and therefore through the net.send /
/// net.recv failpoints).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd, std::int32_t io_timeout_ms = -1)
      : fd_(fd), io_timeout_ms_(io_timeout_ms) {}
  ~Connection() { close(); }

  Connection(Connection&& other) noexcept { *this = std::move(other); }
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::int32_t io_timeout_ms() const { return io_timeout_ms_; }

  /// Sends one frame; false when the peer is gone. Uses the default
  /// timeout unless `timeout_ms` overrides it (-1 = wait forever).
  bool send(std::string_view payload) const {
    return send_frame(fd_, payload, io_timeout_ms_);
  }
  bool send(std::string_view payload, std::int32_t timeout_ms) const {
    return send_frame(fd_, payload, timeout_ms);
  }

  /// Receives one frame; nullopt on clean EOF. Throws IoError on
  /// timeout, truncation, or checksum mismatch.
  std::optional<std::string> recv() const {
    return recv_frame(fd_, io_timeout_ms_);
  }
  std::optional<std::string> recv(std::int32_t timeout_ms) const {
    return recv_frame(fd_, timeout_ms);
  }

  /// Non-blocking drain into `decoder` for the coordinator poll loop.
  /// Returns false when the peer closed or the stream is corrupt
  /// (checksum/length violations surface as IoError from the decoder).
  bool drain(FrameDecoder& decoder) const;

  void close();

 private:
  int fd_ = -1;
  std::int32_t io_timeout_ms_ = -1;
};

// ---- TCP helpers (also used by the shuffle server/client) -----------------

/// Binds + listens on `endpoint` (port 0 = kernel-assigned). Returns the
/// listening fd; throws IoError on failure.
int tcp_listen(const Endpoint& endpoint, int backlog = 64);

/// Connects to `endpoint` with a connect timeout. Honors the
/// `net.connect` failpoint. Throws IoError on refusal/timeout.
int tcp_connect(const Endpoint& endpoint, std::int32_t timeout_ms = -1);

/// Accepts one connection from `listen_fd`, waiting at most
/// `timeout_ms` (-1 = forever). Throws IoError on timeout or error.
int tcp_accept(int listen_fd, std::int32_t timeout_ms = -1);

/// The locally-bound address of a socket (resolves port 0 after bind).
Endpoint local_endpoint(int fd);

/// The coordinator's listener and the factory for its worker channels.
class TcpTransport {
 public:
  /// Listens on `listen` immediately (so listen_endpoint() is valid
  /// before any worker exists).
  explicit TcpTransport(const Endpoint& listen,
                        std::int32_t io_timeout_ms = -1);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  struct WorkerChannel {
    Connection coordinator;  // coordinator-side end
    int child_fd = -1;       // fd the forked child keeps (already open)
  };

  /// Called by the coordinator immediately BEFORE fork(): returns the
  /// coordinator end and the fd the child adopts after the fork.
  WorkerChannel make_worker_channel();

  /// Called in the forked child: a worker must not hold the
  /// coordinator's listener open.
  void close_listener();

  /// Where external workers should dial in.
  const Endpoint& listen_endpoint() const { return endpoint_; }

  /// Adopts one externally-started worker: accepts a connection on the
  /// listener. The caller then runs the welcome/hello handshake.
  Connection accept_worker(std::int32_t timeout_ms);

 private:
  Endpoint endpoint_;
  int listen_fd_ = -1;
  std::int32_t io_timeout_ms_ = -1;
};

}  // namespace textmr::cluster
