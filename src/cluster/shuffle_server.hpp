#pragma once

/// Per-worker shuffle service (DESIGN.md §14).
///
/// Each worker that commits map output keeps the spill run on its own
/// disk and serves partitions on demand: a reducer connects, sends one
/// kShuffleFetch{run_path, partition}, and receives either
/// kShuffleData{records, bytes} or kShuffleError{retryable, message}.
/// One request per connection — fetches are rare (runs × partitions per
/// job) and bulky, so connection reuse buys nothing and the
/// close-after-reply protocol keeps both ends trivially stateless.
///
/// Thread model: a single accept thread serves requests inline, so
/// concurrent fetchers are serialized (acceptable at this scale; the
/// client's timeout + retry covers a server stalled on a slow peer).
/// The thread blocks in poll(2) on the listener and an eventfd with no
/// timeout; stop() writes the eventfd, so an idle server stops at once
/// and a stop mid-request waits only for that request. The counters are
/// atomics and stop() belongs to the owner thread, so nothing needs a
/// lock.
///
/// A partition is read from disk into one buffer and sent from it: the
/// kShuffleData frame gathers [header][partition] in one sendmsg(2), and
/// the client receives the partition straight into the string it
/// returns (DESIGN.md §14).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "cluster/transport.hpp"
#include "io/spill_file.hpp"

namespace textmr::cluster {

class ShuffleServer {
 public:
  struct Options {
    Endpoint listen;               // port 0 = kernel-assigned
    std::string root;              // only run files under here are served
    /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
    io::SpillFormat spill_format = io::SpillFormat::kCompactVarint;
    std::int32_t io_timeout_ms = 5000;  // per-request recv/send budget
  };

  /// Binds + starts the accept thread; throws IoError if the bind fails.
  explicit ShuffleServer(Options options);
  ~ShuffleServer();

  ShuffleServer(const ShuffleServer&) = delete;
  ShuffleServer& operator=(const ShuffleServer&) = delete;

  /// Resolved listen address (port filled in after bind).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Wakes and joins the accept thread, then closes the listener.
  /// Returns as soon as any request in flight is done. Idempotent.
  void stop();

  std::uint64_t bytes_served() const {
    return bytes_served_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void serve(int fd);
  /// True when `path` resolves inside options_.root (no `..` escapes).
  bool path_allowed(const std::string& path) const;

  Options options_;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; stop() makes it readable
  std::atomic<std::uint64_t> bytes_served_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::thread thread_;
};

}  // namespace textmr::cluster
