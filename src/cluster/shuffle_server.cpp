#include "cluster/shuffle_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace textmr::cluster {

ShuffleServer::ShuffleServer(Options options) : options_(std::move(options)) {
  listen_fd_ = tcp_listen(options_.listen);
  endpoint_ = local_endpoint(listen_fd_);
  thread_ = std::thread([this] { accept_loop(); });
}

ShuffleServer::~ShuffleServer() { stop(); }

void ShuffleServer::stop() {
  if (!stop_.exchange(true, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  } else if (thread_.joinable()) {
    thread_.join();
  }
}

void ShuffleServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // Short poll so stop() is honored within ~250ms even when idle.
    const int rc = ::poll(&pfd, 1, 250);
    if (rc < 0) {
      if (errno == EINTR) continue;
      TEXTMR_LOG(kWarn) << "shuffle server poll failed: " << strerror(errno);
      return;
    }
    if (rc == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      TEXTMR_LOG(kWarn) << "shuffle server accept failed: " << strerror(errno);
      return;
    }
    serve(fd);
    ::close(fd);
  }
}

void ShuffleServer::serve(int fd) {
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("shuffle.serve")) {
      if (action->kind == failpoint::ActionKind::kDelay) {
        failpoint::maybe_delay(*action);
      } else {
        // Any other action models a crashed/broken server: drop the
        // connection without a reply. The client sees EOF and retries.
        return;
      }
    }
  }
  try {
    const auto frame = recv_frame(fd, options_.io_timeout_ms);
    if (!frame.has_value()) return;  // client went away before asking
    WireReader r(*frame);
    const MsgType type = static_cast<MsgType>(r.u8());
    ShuffleErrorMsg error;
    if (type != MsgType::kShuffleFetch) {
      error.retryable = false;
      error.message = "unexpected message type " +
                      std::string(msg_type_name(type));
      send_frame(fd, encode_shuffle_error(error), options_.io_timeout_ms);
      return;
    }
    const ShuffleFetchMsg fetch = decode_shuffle_fetch(r);
    if (!path_allowed(fetch.run_path)) {
      error.retryable = false;
      error.message = "run path outside served root: " + fetch.run_path;
      send_frame(fd, encode_shuffle_error(error), options_.io_timeout_ms);
      return;
    }
    io::SpillRunReader reader(fetch.run_path, options_.spill_format);
    if (fetch.partition >= reader.num_partitions()) {
      error.retryable = false;
      error.message = "partition " + std::to_string(fetch.partition) +
                      " out of range (run has " +
                      std::to_string(reader.num_partitions()) + ")";
      send_frame(fd, encode_shuffle_error(error), options_.io_timeout_ms);
      return;
    }
    ShuffleDataMsg data;
    data.records = reader.extent(fetch.partition).records;
    data.bytes = reader.read_partition(fetch.partition);
    const std::uint64_t served = data.bytes.size();
    if (send_frame(fd, encode_shuffle_data(data), options_.io_timeout_ms)) {
      bytes_served_.fetch_add(served, std::memory_order_relaxed);
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    // Disk errors, truncated requests, timeouts: report retryable (the
    // run may still be mid-rename on a racing attempt) and move on. The
    // reply is best-effort — the connection may already be dead.
    TEXTMR_LOG(kWarn) << "shuffle server request failed: " << e.what();
    try {
      ShuffleErrorMsg error;
      error.retryable = true;
      error.message = e.what();
      send_frame(fd, encode_shuffle_error(error), options_.io_timeout_ms);
    } catch (const std::exception&) {
    }
  }
}

bool ShuffleServer::path_allowed(const std::string& path) const {
  if (options_.root.empty()) return false;
  if (path.find("/../") != std::string::npos) return false;
  if (path.compare(0, options_.root.size(), options_.root) != 0) return false;
  // Require a path separator right after the root so "/tmp/jobX-evil"
  // does not pass a root of "/tmp/jobX".
  return options_.root.back() == '/' ||
         (path.size() > options_.root.size() &&
          path[options_.root.size()] == '/');
}

}  // namespace textmr::cluster
