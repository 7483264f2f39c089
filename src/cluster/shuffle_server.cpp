#include "cluster/shuffle_server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
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
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    throw IoError("shuffle server eventfd failed: " + err);
  }
  thread_ = std::thread([this] { accept_loop(); });
}

ShuffleServer::~ShuffleServer() { stop(); }

void ShuffleServer::stop() {
  if (!thread_.joinable()) return;
  // The counter stays set, so a stop that lands before the accept
  // thread's first poll still wakes it.
  const std::uint64_t one = 1;
  if (::write(wake_fd_, &one, sizeof(one)) != sizeof(one)) {
    TEXTMR_LOG(kWarn) << "shuffle server wake failed: " << strerror(errno);
  }
  thread_.join();
  ::close(listen_fd_);
  ::close(wake_fd_);
}

void ShuffleServer::accept_loop() {
  while (true) {
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      TEXTMR_LOG(kWarn) << "shuffle server poll failed: " << strerror(errno);
      return;
    }
    if (pfds[1].revents != 0) return;  // stop()
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
    io::SpillRunReader reader(fetch.run_path);
    if (fetch.partition >= reader.num_partitions()) {
      error.retryable = false;
      error.message = "partition " + std::to_string(fetch.partition) +
                      " out of range (run has " +
                      std::to_string(reader.num_partitions()) + ")";
      send_frame(fd, encode_shuffle_error(error), options_.io_timeout_ms);
      return;
    }
    // One read into one buffer; the frame gathers it behind the header.
    ShuffleDataMsg header;
    header.records = reader.extent(fetch.partition).records;
    const std::string bytes = reader.read_partition(fetch.partition);
    if (send_frame(fd, encode_shuffle_data(header), bytes,
                   options_.io_timeout_ms)) {
      bytes_served_.fetch_add(bytes.size(), std::memory_order_relaxed);
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
