#include <gtest/gtest.h>

// In-process battery for the transport layer and the shuffle service
// (DESIGN.md §14): TCP listen/connect/accept plumbing, Connection framing
// and timeouts, the net.* / shuffle.* failpoints, ShuffleServer +
// ShuffleClient request/retry semantics, and a full TCP cluster run with
// external workers hosted on std::threads.
//
// Everything here is fork-free on purpose: this file is in the TSan CI
// tier, where fork() is off-limits, and thread-hosted workers over real
// loopback sockets give the race detector the exact code the forked
// production path runs. The forked TCP battery lives in test_cluster.cpp.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "common/failpoint.hpp"
#include "common/tempdir.hpp"
#include "helpers.hpp"
#include "mr/report.hpp"
#include "obs/json.hpp"

namespace textmr::cluster {
namespace {

TEST(TcpPlumbing, ListenConnectAcceptRoundTrip) {
  Endpoint listen;  // 127.0.0.1, port 0 = kernel-assigned
  const int listen_fd = tcp_listen(listen);
  ASSERT_GE(listen_fd, 0);
  const Endpoint bound = local_endpoint(listen_fd);
  EXPECT_EQ(bound.host, "127.0.0.1");
  EXPECT_NE(bound.port, 0);

  const int client_fd = tcp_connect(bound, 2000);
  ASSERT_GE(client_fd, 0);
  const int server_fd = tcp_accept(listen_fd, 2000);
  ASSERT_GE(server_fd, 0);

  // Full frame round-trip in both directions.
  Connection client(client_fd, 2000);
  Connection server(server_fd, 2000);
  ASSERT_TRUE(client.send(encode_shuffle_fetch(ShuffleFetchMsg{"/r", 1})));
  auto got = server.recv();
  ASSERT_TRUE(got.has_value());
  auto r = WireReader(*got);
  EXPECT_EQ(static_cast<MsgType>(r.u8()), MsgType::kShuffleFetch);
  ASSERT_TRUE(server.send(encode_shuffle_data(ShuffleDataMsg{1, "payload"})));
  got = client.recv();
  ASSERT_TRUE(got.has_value());

  ::close(listen_fd);
}

TEST(TcpPlumbing, ConnectToClosedPortThrowsIoError) {
  // Bind, learn the port, close: connecting must be refused, not hang.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  ::close(listen_fd);
  EXPECT_THROW(tcp_connect(bound, 1000), IoError);
}

TEST(TcpPlumbing, AcceptTimesOutWithNoClient) {
  const int listen_fd = tcp_listen(Endpoint{});
  EXPECT_THROW(tcp_accept(listen_fd, 50), IoError);
  ::close(listen_fd);
}

TEST(TcpPlumbing, BadListenAddressIsAConfigError) {
  Endpoint bad;
  bad.host = "not-an-ipv4-address";
  EXPECT_THROW(tcp_listen(bad), ConfigError);
}

TEST(TcpPlumbing, ConnectionRecvTimesOutOnSilentPeer) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  const int client_fd = tcp_connect(bound, 2000);
  const int server_fd = tcp_accept(listen_fd, 2000);
  Connection client(client_fd, 50);
  // The server never sends: the deadline must fire, not block forever —
  // this is the dead-TCP-peer bug class the io_timeout plumbing exists
  // for (a coordinator stuck in recv would hang the whole job).
  EXPECT_THROW(client.recv(), IoError);
  // A per-call override beats the default.
  EXPECT_THROW(client.recv(50), IoError);
  ::close(server_fd);
  ::close(listen_fd);
}

// ---- net.* failpoints ------------------------------------------------------

/// A connected client/server Connection pair over loopback TCP.
struct ConnectedPair {
  int listen_fd = -1;
  Connection client;
  Connection server;

  ConnectedPair() {
    constexpr std::int32_t timeout_ms = 2000;
    listen_fd = tcp_listen(Endpoint{});
    const Endpoint bound = local_endpoint(listen_fd);
    client = Connection(tcp_connect(bound, timeout_ms), timeout_ms);
    server = Connection(tcp_accept(listen_fd, timeout_ms), timeout_ms);
  }
  ~ConnectedPair() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

TEST(NetFailpoints, ConnectThrowInjectsFault) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  failpoint::ScopedFailpoints guard("net.connect:nth=1");
  EXPECT_THROW(tcp_connect(bound, 1000), failpoint::InjectedFault);
  // One-shot: the next connect goes through.
  const int fd = tcp_connect(bound, 1000);
  EXPECT_GE(fd, 0);
  ::close(fd);
  ::close(listen_fd);
}

TEST(NetFailpoints, SendThrowInjectsFault) {
  ConnectedPair pair;
  failpoint::ScopedFailpoints guard("net.send:nth=1");
  EXPECT_THROW(pair.client.send("payload"), failpoint::InjectedFault);
}

TEST(NetFailpoints, SendCorruptIsCaughtByReceiverChecksum) {
  // Every channel carries checksummed frames: the flipped payload byte
  // must fail the CRC on the receiving side.
  ConnectedPair pair;
  {
    failpoint::ScopedFailpoints guard("net.send:nth=1:action=corrupt");
    ASSERT_TRUE(pair.client.send("a corruptible payload"));
  }
  EXPECT_THROW(pair.server.recv(), IoError);
}

TEST(NetFailpoints, SendShortWriteTearsTheFrame) {
  ConnectedPair pair;
  {
    failpoint::ScopedFailpoints guard("net.send:nth=1:action=shortwrite");
    // The sender learns its peer is gone (false), the receiver sees a
    // torn frame (IoError) once the connection drops.
    EXPECT_FALSE(pair.client.send("a payload that gets torn"));
  }
  pair.client.close();
  EXPECT_THROW(pair.server.recv(), IoError);
}

TEST(NetFailpoints, RecvThrowInjectsFault) {
  ConnectedPair pair;
  ASSERT_TRUE(pair.client.send("payload"));
  failpoint::ScopedFailpoints guard("net.recv:nth=1");
  EXPECT_THROW(pair.server.recv(), failpoint::InjectedFault);
}

// ---- shuffle server + client ----------------------------------------------

struct ShuffleRig {
  TempDir dir;
  std::string run_path;
  io::SpillRunInfo info;

  explicit ShuffleRig(std::uint32_t partitions = 3) {
    run_path = dir.file("map0_a0_final").string();
    io::SpillRunWriter writer(run_path, partitions);
    writer.append(0, "apple", "1");
    writer.append(0, "avocado", "2");
    writer.append(1, "banana", "3");
    writer.append(2, "cherry", "4");
    writer.append(2, "citron", "");
    info = writer.finish();
  }

  ShuffleServer::Options server_options() const {
    ShuffleServer::Options options;
    options.root = dir.path().string();
    options.io_timeout_ms = 2000;
    return options;
  }
};

TEST(ShuffleService, FetchesEveryPartitionBitExact) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ASSERT_NE(server.endpoint().port, 0);

  ShuffleClient client;
  io::SpillRunReader reader(rig.run_path);
  std::uint64_t expected_bytes = 0;
  for (std::uint32_t p = 0; p < 3; ++p) {
    const auto fetched = client.fetch(server.endpoint(), rig.info, p);
    ASSERT_TRUE(fetched.has_value()) << "partition " << p;
    EXPECT_EQ(*fetched, reader.read_partition(p)) << "partition " << p;
    expected_bytes += fetched->size();
  }
  // The counters are bumped by the accept thread after the reply is on
  // the wire, so the client can observe its data slightly before the
  // increment lands — wait for them to settle.
  for (int i = 0; i < 200 && server.requests_served() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.bytes_served(), expected_bytes);
}

TEST(ShuffleService, PathOutsideRootIsRejectedWithoutRetry) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());

  // A run that exists on disk but lives outside the served root: the
  // server must refuse (non-retryable), the client must not burn the
  // full retry budget on it.
  TempDir other;
  const auto outside = other.file("evil_final").string();
  {
    io::SpillRunWriter writer(outside, 1);
    writer.append(0, "secret", "1");
    writer.finish();
  }
  io::SpillRunInfo evil = rig.info;
  evil.path = outside;
  ShuffleClient::Options options;
  options.attempts = 3;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  EXPECT_FALSE(client.fetch(server.endpoint(), evil, 0).has_value());
  // Prefix trickery must not pass either: "<root>-evil" shares the
  // root's spelling but is a sibling directory.
  io::SpillRunInfo sibling = rig.info;
  sibling.path = rig.dir.path().string() + "-evil/run_final";
  EXPECT_FALSE(client.fetch(server.endpoint(), sibling, 0).has_value());
}

TEST(ShuffleService, OutOfRangePartitionIsRejected) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient client;
  EXPECT_FALSE(client.fetch(server.endpoint(), rig.info, 99).has_value());
}

TEST(ShuffleService, StoppedServerExhaustsRetriesToNullopt) {
  ShuffleRig rig;
  Endpoint dead;
  {
    ShuffleServer server(rig.server_options());
    dead = server.endpoint();
  }  // destroyed: the port refuses connections now
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  options.timeout_ms = 200;
  ShuffleClient client(options);
  EXPECT_FALSE(client.fetch(dead, rig.info, 0).has_value());
}

TEST(ShuffleService, ServeFailpointDropsConnectionClientRetries) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 3;
  options.backoff_ms = 1;
  ShuffleClient client(options);

  // First request dropped mid-serve (models a crashing server); the
  // retry lands on a healthy server and must succeed bit-exact.
  failpoint::ScopedFailpoints guard("shuffle.serve:nth=1");
  const auto fetched = client.fetch(server.endpoint(), rig.info, 0);
  ASSERT_TRUE(fetched.has_value());
  io::SpillRunReader reader(rig.run_path);
  EXPECT_EQ(*fetched, reader.read_partition(0));
}

TEST(ShuffleService, FetchFailpointBurnsOneAttempt) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  failpoint::ScopedFailpoints guard("shuffle.fetch:nth=1");
  EXPECT_TRUE(client.fetch(server.endpoint(), rig.info, 0).has_value());
  for (int i = 0; i < 200 && server.requests_served() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests_served(), 1u);  // only the retry reached it
}

TEST(ShuffleService, EveryAttemptInjectedToFailureReturnsNullopt) {
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  ShuffleClient::Options options;
  options.attempts = 2;
  options.backoff_ms = 1;
  ShuffleClient client(options);
  failpoint::ScopedFailpoints guard("shuffle.fetch:always");
  EXPECT_FALSE(client.fetch(server.endpoint(), rig.info, 0).has_value());
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(ShuffleService, StopReturnsPromptlyWhenIdle) {
  // Every worker stops its server at shutdown, and the coordinator waits
  // for all of them: an accept thread that only notices stop() on a
  // poll timeout adds that timeout to every cluster job.
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(ShuffleService, StopRightAfterConstructionIsIdempotent) {
  // The stop may land before the accept thread's first poll; it must
  // still wake it, and a second stop (the destructor's) is a no-op.
  ShuffleRig rig;
  ShuffleServer server(rig.server_options());
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
}

TEST(ShuffleService, InvalidSourceEndpointFailsFast) {
  ShuffleRig rig;
  ShuffleClient client;
  // A map task whose owner died before kHello leaves an invalid (port 0)
  // source — the client must skip straight to the filesystem fallback.
  EXPECT_FALSE(client.fetch(Endpoint{}, rig.info, 0).has_value());
}

// ---- externally-joined workers (thread-hosted, no fork) -------------------

TEST(RemoteWorker, HandshakeTimesOutOnSilentCoordinator) {
  // Accepts the connection but never sends kWelcome: run_remote_worker
  // must throw IoError after its connect timeout instead of hanging.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<bool> threw{false};
  std::thread worker([&] {
    mr::JobSpec spec;  // never used: the handshake fails first
    WorkerOptions options;
    options.connect_timeout_ms = 200;
    try {
      run_remote_worker(bound, spec, options);
    } catch (const IoError&) {
      threw.store(true);
    }
  });
  const int fd = tcp_accept(listen_fd, 2000);  // accept, then stay silent
  worker.join();
  EXPECT_TRUE(threw.load());
  ::close(fd);
  ::close(listen_fd);
}

TEST(RemoteWorker, ConnectToNobodyThrows) {
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  ::close(listen_fd);
  mr::JobSpec spec;
  WorkerOptions options;
  options.connect_timeout_ms = 200;
  EXPECT_THROW(run_remote_worker(bound, spec, options), IoError);
}

TEST(RemoteWorker, IdleTimeoutExitsWorkerWhenCoordinatorGoesSilent) {
  // Welcome the worker, then say nothing: the worker's idle timeout must
  // bring it home instead of leaving a thread blocked in recv forever.
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<int> exit_code{-1};
  mr::JobSpec spec;
  std::thread worker([&] {
    WorkerOptions options;
    options.connect_timeout_ms = 2000;
    options.idle_timeout_ms = 100;
    exit_code.store(run_remote_worker(bound, spec, options));
  });
  const int fd = tcp_accept(listen_fd, 2000);
  ASSERT_TRUE(send_frame(fd, encode_welcome(WelcomeMsg{0, 1000}), 2000));
  // Drain and discard whatever the worker sends (kHello, heartbeats) so
  // its socket buffer never fills; send nothing back.
  std::string sink(4096, '\0');
  while (true) {
    const ssize_t n = ::recv(fd, sink.data(), sink.size(), 0);
    if (n <= 0) break;  // worker hung up: idle timeout fired
  }
  worker.join();
  EXPECT_EQ(exit_code.load(), 0);
  ::close(fd);
  ::close(listen_fd);
}

TEST(RemoteWorker, HelloEchoesTheWelcomeStamp) {
  // The worker's first frame answers the welcome: its shuffle endpoint,
  // the welcome's stamp echoed, and the worker's clock, read between the
  // welcome going out and the hello coming in (one process, one clock).
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<int> exit_code{-1};
  mr::JobSpec spec;
  std::thread worker([&] {
    WorkerOptions options;
    options.connect_timeout_ms = 2000;
    exit_code.store(run_remote_worker(bound, spec, options));
  });
  const int fd = tcp_accept(listen_fd, 2000);
  const std::uint64_t t_send = monotonic_ns();
  ASSERT_TRUE(send_frame(fd, encode_welcome(WelcomeMsg{3, 1000, t_send}),
                         2000));
  const auto frame = recv_frame(fd, 2000);
  const std::uint64_t t_recv = monotonic_ns();
  ::close(fd);  // EOF: the worker exits
  worker.join();
  ::close(listen_fd);
  ASSERT_TRUE(frame.has_value());
  auto r = WireReader(*frame);
  ASSERT_EQ(static_cast<MsgType>(r.u8()), MsgType::kHello);
  const HelloMsg hello = decode_hello(r);
  EXPECT_TRUE(hello.shuffle.valid());
  EXPECT_EQ(hello.t_welcome, t_send);
  EXPECT_GE(hello.t_worker, t_send);
  EXPECT_LE(hello.t_worker, t_recv);
  EXPECT_EQ(exit_code.load(), 0);
}

TEST(RemoteWorker, ZeroHeartbeatWelcomeIsRefused) {
  // A welcome asking for a 0 ms heartbeat is malformed: the worker must
  // refuse it before it sends anything, not spin its heartbeat thread
  // (the idle timeout only bounds how long a spinning worker would run).
  const int listen_fd = tcp_listen(Endpoint{});
  const Endpoint bound = local_endpoint(listen_fd);
  std::atomic<bool> refused{false};
  mr::JobSpec spec;
  std::thread worker([&] {
    WorkerOptions options;
    options.connect_timeout_ms = 2000;
    options.idle_timeout_ms = 300;
    try {
      run_remote_worker(bound, spec, options);
    } catch (const FormatError&) {
      refused.store(true);
    }
  });
  const int fd = tcp_accept(listen_fd, 2000);
  ASSERT_TRUE(send_frame(fd, encode_welcome(WelcomeMsg{0, 0}), 2000));
  int frames = 0;
  try {
    while (recv_frame(fd, 2000).has_value()) ++frames;
  } catch (const IoError&) {
    // The worker reset the channel: the same hang-up.
  }
  worker.join();
  ::close(fd);
  ::close(listen_fd);
  EXPECT_TRUE(refused.load());
  EXPECT_EQ(frames, 0);
}

// Full TCP cluster with every worker joining externally, hosted on
// threads in this process: exercises listen/accept/welcome/hello, the
// checksummed control channel, and the network shuffle end to end under
// TSan without a single fork.
class TcpClusterInProcess : public ::testing::Test {
 protected:
  void SetUp() override {
    textgen::CorpusSpec corpus_spec;
    corpus_spec.total_words = 8000;
    corpus_spec.vocabulary = 300;
    corpus_spec.seed = 99;
    const auto corpus = dir_.file("corpus.txt");
    textgen::generate_corpus(corpus_spec, corpus.string());
    splits_ = io::make_splits(corpus.string(), 4 * 1024);
  }

  mr::JobSpec wordcount_job(const std::string& name) {
    return test::make_job(apps::wordcount_app(), splits_,
                          dir_.file("s-" + name), dir_.file("o-" + name));
  }

  /// Runs `spec` on two external TCP workers hosted on threads.
  static mr::JobResult run_cluster(const mr::JobSpec& spec) {
    ClusterConfig config;
    config.num_workers = 2;
    config.external_workers = 2;  // nothing forked: TSan-safe
    config.io_timeout_ms = 10000;
    // No duplicate attempts: keeps every counter exact (a killed loser's
    // partial fetches would perturb shuffled_wire_bytes).
    config.speculation = false;
    // Declared before the engine: should run() throw, the engine closes
    // its sockets first, then the workers are joined.
    std::vector<std::jthread> workers;
    ClusterEngine engine(config);
    for (std::uint32_t w = 0; w < 2; ++w) {
      workers.emplace_back([coordinator = engine.listen_endpoint(), &spec] {
        WorkerOptions options;
        options.connect_timeout_ms = 10000;
        run_remote_worker(coordinator, spec, options);
      });
    }
    return engine.run(spec);
  }

  /// Byte-identical, not merely equivalent: same part files, same bytes.
  static void expect_same_parts(const mr::JobResult& expected,
                                const mr::JobResult& actual) {
    ASSERT_EQ(actual.outputs.size(), expected.outputs.size());
    for (std::size_t i = 0; i < actual.outputs.size(); ++i) {
      std::ifstream a(expected.outputs[i], std::ios::binary);
      std::ifstream b(actual.outputs[i], std::ios::binary);
      std::stringstream sa, sb;
      sa << a.rdbuf();
      sb << b.rdbuf();
      EXPECT_EQ(sa.str(), sb.str()) << actual.outputs[i];
    }
  }

  TempDir dir_;
  std::vector<io::InputSplit> splits_;
};

TEST_F(TcpClusterInProcess, ExternalWorkersProduceByteIdenticalOutput) {
  const auto local = mr::LocalEngine().run(wordcount_job("local"));
  const auto result = run_cluster(wordcount_job("tcp"));
  expect_same_parts(local, result);
  // The shuffle genuinely crossed the wire (not the filesystem
  // fallback): wire bytes equal total shuffled bytes on a fault-free run.
  EXPECT_GT(result.metrics.work.shuffled_wire_bytes, 0u);
  EXPECT_EQ(result.metrics.work.shuffled_wire_bytes,
            result.metrics.work.shuffled_bytes);
}

// Every volume counter a map or reduce task reports must reach the
// cluster job's totals exactly as the local engine sums it. Only the wire
// share of the shuffle differs: the local engine reads every partition
// from disk.
TEST_F(TcpClusterInProcess, HashCombineCountersMatchLocalEngine) {
  // Compared through the metrics JSON, the export scripts read.
  const auto work_volumes = [](const mr::JobResult& result) {
    const auto doc =
        obs::JsonValue::parse(mr::format_job_metrics_json(result, "wc"));
    std::map<std::string, double> volumes;
    for (const auto& [key, v] :
         doc->get("work")->get("volumes")->members()) {
      volumes[key] = v.number_or(-1);
    }
    return volumes;
  };
  mr::JobSpec local_spec = wordcount_job("local");
  local_spec.combine_mode = mr::CombineMode::kHash;
  mr::JobSpec cluster_spec = wordcount_job("tcp");
  cluster_spec.combine_mode = mr::CombineMode::kHash;
  const auto local = work_volumes(mr::LocalEngine().run(local_spec));
  const auto cluster = work_volumes(run_cluster(cluster_spec));

  ASSERT_GT(local.at("hash_combine_hits"), 0);
  ASSERT_EQ(cluster.size(), local.size());
  for (const auto& [key, value] : local) {
    if (key == "shuffled_wire_bytes") continue;
    EXPECT_EQ(cluster.at(key), value) << key;
  }
}

/// A fake external worker: sends `bad_frame` (checksummed, but not what
/// the coordinator must get), then drains until the coordinator hangs
/// up. With `say_hello` it answers its welcome with a hello and sends the
/// bad frame in answer to its first task; without, the bad frame answers
/// the welcome.
void run_malformed_worker(const Endpoint& coordinator,
                          const std::string& bad_frame, bool say_hello) {
  const int fd = tcp_connect(coordinator, 10000);
  try {
    const auto welcome = recv_frame(fd, 10000);
    if (welcome.has_value() && !say_hello) {
      send_frame(fd, bad_frame, 10000);
    } else if (welcome.has_value()) {
      WireReader r(*welcome);
      r.u8();  // kWelcome
      HelloMsg hello;
      hello.shuffle = Endpoint{"127.0.0.1", 1};
      hello.t_welcome = decode_welcome(r).t_send;
      hello.t_worker = monotonic_ns();
      send_frame(fd, encode_hello(hello), 10000);
      while (const auto frame = recv_frame(fd, 10000)) {
        const auto type = static_cast<MsgType>(frame->at(0));
        if (type == MsgType::kRunMap || type == MsgType::kRunReduce) {
          send_frame(fd, bad_frame, 10000);
          break;
        }
      }
    }
    while (recv_frame(fd, 10000).has_value()) {
    }
  } catch (const IoError&) {
    // The coordinator reset the channel: the same hang-up.
  }
  ::close(fd);
}

// A control frame that passes its checksum but fails to decode, or names
// an attempt the worker was not running, is the worker's fault, not the
// job's: the coordinator declares that worker dead, re-queues its task,
// and the healthy worker finishes the job. A worker whose answer to its
// welcome is not a hello joins dead the same way.
TEST_F(TcpClusterInProcess, MalformedControlFrameKillsTheWorkerNotTheJob) {
  const auto local = mr::LocalEngine().run(wordcount_job("local"));
  std::string truncated_done = encode_map_done(0, 0, mr::MapTaskResult{});
  truncated_done.resize(truncated_done.size() / 2);
  TaskFailedMsg failed;
  failed.kind = TaskKind::kReduce;
  std::string bad_kind = encode_task_failed(failed);
  bad_kind[1] = 3;  // one past TaskKind::kReduce
  const std::string foreign_task =
      encode_map_done(9999, 0, mr::MapTaskResult{});

  struct Case {
    std::string bad_frame;
    bool say_hello;
  };
  int run = 0;
  for (const Case& c : {Case{truncated_done, true}, Case{bad_kind, true},
                        Case{foreign_task, true},
                        Case{encode_bare(MsgType::kHeartbeat), false}}) {
    SCOPED_TRACE(msg_type_name(static_cast<MsgType>(c.bad_frame[0])));
    const mr::JobSpec spec = wordcount_job("bad" + std::to_string(run++));
    ClusterConfig config;
    config.num_workers = 2;
    config.external_workers = 2;
    config.io_timeout_ms = 10000;
    config.speculation = false;
    std::vector<std::jthread> workers;
    ClusterEngine engine(config);
    workers.emplace_back([coordinator = engine.listen_endpoint(), &spec] {
      WorkerOptions options;
      options.connect_timeout_ms = 10000;
      run_remote_worker(coordinator, spec, options);
    });
    workers.emplace_back([coordinator = engine.listen_endpoint(), &c] {
      run_malformed_worker(coordinator, c.bad_frame, c.say_hello);
    });
    mr::JobResult result;
    ASSERT_NO_THROW(result = engine.run(spec));
    expect_same_parts(local, result);
    // The dead worker never shipped its final trace chunk.
    EXPECT_TRUE(result.metrics.telemetry_incomplete);
  }
}

TEST_F(TcpClusterInProcess, MixedExternalValidation) {
  // external_workers > num_workers is a config error, caught before
  // anything forks.
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 500;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  ClusterConfig config;
  config.num_workers = 1;
  config.external_workers = 2;
  ClusterEngine engine(config);
  EXPECT_THROW(engine.run(spec), ConfigError);
}

TEST_F(TcpClusterInProcess, MissingExternalWorkerTimesOutCleanly) {
  // One external slot promised, nobody dials in: run() must fail with
  // IoError after accept_timeout_ms — never hang the coordinator.
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 500;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  ClusterConfig config;
  config.num_workers = 1;
  config.external_workers = 1;
  config.accept_timeout_ms = 100;
  ClusterEngine engine(config);
  EXPECT_THROW(engine.run(spec), IoError);
}

}  // namespace
}  // namespace textmr::cluster
