// Service-layer tests: protocol framing and (de)serialization, then a real
// daemon on a real Unix-domain socket — submit/fetch round trips, concurrent
// clients, queue-full backpressure, cancel semantics, graceful drain, warm
// cache-hit accounting, and the determinism guarantee that a warm-cache
// remote result is byte-identical to a cold local run.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"

namespace mlp::serve {
namespace {

// ---- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsPayloads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::string> payloads = {"{}", std::string(4096, 'x')};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(write_frame(fds[0], payload));
    const std::optional<std::string> got = read_frame(fds[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, payload);
  }
  ::close(fds[0]);
  const std::optional<std::string> eof = read_frame(fds[1]);
  EXPECT_FALSE(eof.has_value());  // clean EOF between frames
  ::close(fds[1]);
}

TEST(Framing, ZeroLengthFramesAreTypedRejections) {
  // Every legitimate frame is a JSON object, so a zero-length frame is a
  // desynced or broken peer — both read variants must reject it with the
  // typed bad-request kind instead of handing "" to the JSON parser.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(write_frame(fds[0], ""));
  try {
    read_frame(fds[1]);
    FAIL() << "zero-length frame must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), kErrBadRequest);
  }
  ASSERT_TRUE(write_frame(fds[0], "", /*timeout_ms=*/1000));
  try {
    read_frame(fds[1], /*timeout_ms=*/1000);
    FAIL() << "zero-length frame must throw (deadline variant)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), kErrBadRequest);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Framing, RejectsOversizedAndTruncatedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length header claiming 1 GB: protocol violation before any payload.
  const unsigned char huge[4] = {0, 0, 0, 0x40};
  ASSERT_EQ(::write(fds[0], huge, 4), 4);
  EXPECT_THROW(read_frame(fds[1]), SimError);
  // Header promising 100 bytes, then EOF: truncated frame.
  const unsigned char short_frame[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], short_frame, 4), 4);
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1]), SimError);
  ::close(fds[1]);
}

TEST(Framing, DeadlineTripsOnASilentPeerAndPassesOnALiveOne) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Nothing in flight: a bounded read must trip the typed timeout instead
  // of blocking forever.
  const auto start = std::chrono::steady_clock::now();
  try {
    read_frame(fds[1], /*timeout_ms=*/150);
    FAIL() << "bounded read of a silent peer returned";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), kErrTimeout);
  }
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_GE(waited_ms, 100.0);
  // With data available the bounded variants behave like the untimed ones.
  ASSERT_TRUE(write_frame(fds[0], "{\"ok\":true}", /*timeout_ms=*/1000));
  const std::optional<std::string> got = read_frame(fds[1], 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "{\"ok\":true}");
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- job (de)serialization -------------------------------------------------

TEST(JobJson, RoundTripsEveryField) {
  JobSpec spec;
  spec.job.kind = arch::ArchKind::kVwsRow;
  spec.job.bench = "kmeans";
  spec.job.tag = "point-7";
  spec.job.options.records = 4096;
  spec.job.options.rows = 96;
  spec.job.options.seed = 11;
  spec.job.options.record_barrier = true;
  spec.job.options.cfg.core.cores = 64;
  spec.job.options.cfg.gpgpu.warp_width = 64;
  spec.job.options.cfg.millipede.pf_entries = 8;
  spec.job.options.cfg.dram.bus_efficiency = 0.5;
  spec.job.options.cfg.slab_layout = true;
  spec.job.options.cfg.dram.fault.bit_flip_rate = 1e-7;
  spec.job.options.cfg.dram.fault.ecc = true;
  spec.job.options.cfg.dram.fault.seed = 3;
  spec.job.options.cfg.watchdog.max_cycles = 123456;
  spec.job.options.cfg.watchdog.wall_ms = 90000;
  spec.job.options.trace.chrome_json = true;
  spec.job.options.trace.dir = "/tmp/traces";
  spec.job.options.cfg.dram.channels = 2;
  spec.job.options.cfg.dram.ranks = 4;
  spec.job.options.cfg.dram.mapping = "row:rank:bank:channel:col";
  spec.job.options.cfg.dram.page_policy = "open:idle=64:hits=4";
  spec.job.options.cfg.dram.refresh = "on:trefi=1000:trfc=100";
  spec.job.options.cfg.dram.fault.delay_rate = 0.125;
  spec.job.options.cfg.dram.fault.drop_rate = 0.0625;
  spec.job.options.cfg.watchdog.stall_cycles = 777;
  spec.job.options.cfg.fast_forward = false;
  spec.job.options.cfg.block_cache = false;
  spec.job.options.trace.ring_entries = 512;
  spec.job.options.trace.interval_cycles = 1000;
  spec.hold_ms = 250;

  const JobSpec back = job_from_json(trace::json_parse(job_json(spec)));
  EXPECT_EQ(back.job.kind, spec.job.kind);
  EXPECT_EQ(back.job.bench, spec.job.bench);
  EXPECT_EQ(back.job.tag, spec.job.tag);
  EXPECT_EQ(back.job.options.records, 4096u);
  EXPECT_EQ(back.job.options.rows, 96u);
  EXPECT_EQ(back.job.options.seed, 11u);
  EXPECT_TRUE(back.job.options.record_barrier);
  EXPECT_EQ(back.job.options.cfg.core.cores, 64u);
  EXPECT_EQ(back.job.options.cfg.gpgpu.warp_width, 64u);
  EXPECT_EQ(back.job.options.cfg.millipede.pf_entries, 8u);
  EXPECT_DOUBLE_EQ(back.job.options.cfg.dram.bus_efficiency, 0.5);
  EXPECT_TRUE(back.job.options.cfg.slab_layout);
  EXPECT_DOUBLE_EQ(back.job.options.cfg.dram.fault.bit_flip_rate, 1e-7);
  EXPECT_TRUE(back.job.options.cfg.dram.fault.ecc);
  EXPECT_EQ(back.job.options.cfg.dram.fault.seed, 3u);
  EXPECT_EQ(back.job.options.cfg.watchdog.max_cycles, 123456u);
  EXPECT_EQ(back.job.options.cfg.watchdog.wall_ms, 90000u);
  EXPECT_TRUE(back.job.options.trace.chrome_json);
  EXPECT_EQ(back.job.options.trace.dir, "/tmp/traces");
  EXPECT_EQ(back.job.options.cfg.dram.channels, 2u);
  EXPECT_EQ(back.job.options.cfg.dram.ranks, 4u);
  EXPECT_EQ(back.job.options.cfg.dram.mapping, "row:rank:bank:channel:col");
  EXPECT_EQ(back.job.options.cfg.dram.page_policy, "open:idle=64:hits=4");
  EXPECT_EQ(back.job.options.cfg.dram.refresh, "on:trefi=1000:trfc=100");
  EXPECT_DOUBLE_EQ(back.job.options.cfg.dram.fault.delay_rate, 0.125);
  EXPECT_DOUBLE_EQ(back.job.options.cfg.dram.fault.drop_rate, 0.0625);
  EXPECT_EQ(back.job.options.cfg.watchdog.stall_cycles, 777u);
  EXPECT_FALSE(back.job.options.cfg.fast_forward);
  EXPECT_FALSE(back.job.options.cfg.block_cache);
  EXPECT_EQ(back.job.options.trace.ring_entries, 512u);
  EXPECT_EQ(back.job.options.trace.interval_cycles, 1000u);
  EXPECT_EQ(back.hold_ms, 250u);
}

TEST(JobJson, RejectsMalformedSpecs) {
  const auto parse = [](const std::string& text) {
    return job_from_json(trace::json_parse(text));
  };
  EXPECT_THROW(parse(R"({"bench":"count","no_such_knob":1})"), SimError);
  EXPECT_THROW(parse(R"({"bench":"count","arch":"cray"})"), SimError);
  EXPECT_THROW(parse(R"({})"), SimError);  // bench is required
  EXPECT_THROW(parse(R"({"bench":"count","rows":"many"})"), SimError);
  EXPECT_THROW(parse(R"({"bench":"count","cores":0})"), SimError);
  EXPECT_THROW(parse(R"({"bench":"count","fault_rate":1.5})"), SimError);
  EXPECT_THROW(parse(R"({"bench":"count","ecc":"yes"})"), SimError);
  EXPECT_THROW(parse(R"([1,2,3])"), SimError);
}

// ---- transport -------------------------------------------------------------

TEST(Transport, EndpointGrammar) {
  const Endpoint tcp = parse_endpoint("127.0.0.1:7411");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7411);
  EXPECT_EQ(endpoint_name(tcp), "127.0.0.1:7411");

  EXPECT_EQ(parse_endpoint("node-3:80").kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(parse_endpoint("host:0").port, 0);  // ephemeral-port request

  // Anything with a '/' or a non-numeric suffix is an AF_UNIX path — paths
  // containing colons (systemd-style names) must not be misread as TCP.
  EXPECT_EQ(parse_endpoint("/tmp/mlp.sock").kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(parse_endpoint("/tmp/web:80/x.sock").kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(parse_endpoint("mlp.sock").kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(parse_endpoint("host:http").kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(parse_endpoint(":123").kind, Endpoint::Kind::kUnix);

  EXPECT_THROW(parse_endpoint("host:99999"), SimError);  // port > 65535
}

TEST(Transport, ConnectRefusedIsATypedServeError) {
  // A dead peer must surface as SimError("serve", ...) from connect — the
  // sharded sweep turns exactly this into node-lost rows.
  try {
    connect_endpoint(parse_endpoint("/tmp/mlpserve-no-such-socket.sock"));
    FAIL() << "connect to a nonexistent socket succeeded";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "serve");
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos);
  }
  Client client;
  EXPECT_THROW(client.connect("/tmp/mlpserve-no-such-socket.sock"), SimError);
  EXPECT_FALSE(client.connected());
}

// ---- chaos -----------------------------------------------------------------

TEST(Chaos, SpecGrammar) {
  const ChaosConfig cfg =
      parse_chaos("drop=0.05,delay=0.1,delay-ms=35,truncate=0.01,close=0.02,"
                  "seed=7");
  EXPECT_DOUBLE_EQ(cfg.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.delay_rate, 0.1);
  EXPECT_EQ(cfg.delay_ms, 35u);
  EXPECT_DOUBLE_EQ(cfg.truncate_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.close_rate, 0.02);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_TRUE(cfg.enabled());
  EXPECT_FALSE(ChaosConfig{}.enabled());

  EXPECT_THROW(parse_chaos("explode=0.5"), SimError);   // unknown knob
  EXPECT_THROW(parse_chaos("drop=1.5"), SimError);      // rate > 1
  EXPECT_THROW(parse_chaos("drop=-0.1"), SimError);     // negative rate
  EXPECT_THROW(parse_chaos("drop"), SimError);          // missing '='
  EXPECT_THROW(parse_chaos("drop=lots"), SimError);     // non-numeric
}

TEST(Chaos, InjectorIsDeterministicPerSeedAndConnection) {
  ChaosConfig cfg;
  cfg.drop_rate = 0.1;
  cfg.delay_rate = 0.2;
  cfg.truncate_rate = 0.1;
  cfg.close_rate = 0.1;
  cfg.seed = 42;

  const auto sequence = [&cfg](u64 connection_id) {
    ChaosInjector injector(cfg, connection_id);
    std::vector<ChaosInjector::Action> actions;
    for (int i = 0; i < 256; ++i) actions.push_back(injector.next());
    return actions;
  };

  // Same seed + same connection: the exact same fault schedule, replayable
  // from a bug report. Different connections: decorrelated schedules.
  EXPECT_EQ(sequence(0), sequence(0));
  EXPECT_EQ(sequence(7), sequence(7));
  EXPECT_NE(sequence(0), sequence(1));

  // With ~50% total fault rate, 256 draws must inject at least once and
  // leave at least one frame untouched.
  const std::vector<ChaosInjector::Action> actions = sequence(0);
  EXPECT_NE(std::count(actions.begin(), actions.end(),
                       ChaosInjector::Action::kNone),
            0);
  EXPECT_NE(std::count(actions.begin(), actions.end(),
                       ChaosInjector::Action::kNone),
            256);
}

TEST(Transport, HungPeerTripsTheRequestDeadline) {
  // A listener whose backlog accepts the connect but whose owner never
  // reads: exactly what a SIGSTOPped daemon looks like. The request
  // deadline must convert the hang into a typed timeout and poison the
  // connection.
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = "/tmp/mlpserve-hung-peer-" + std::to_string(::getpid()) + ".sock";
  const int listener = listen_endpoint(ep);

  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 200;
  options.chaos = ChaosConfig{};
  Client client(options);
  client.connect(ep.path);
  ASSERT_TRUE(client.connected());
  try {
    client.ping();
    FAIL() << "ping of a hung peer returned";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), kErrTimeout);
  }
  // The deadline poisons the connection — no half-read frame can desync a
  // later request.
  EXPECT_FALSE(client.connected());
  ::close(listener);
  ::unlink(ep.path.c_str());
}

TEST(Responses, EnvelopeDecodes) {
  const Response pong = parse_response(pong_response());
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.type, "pong");
  EXPECT_EQ(pong.doc.u64_at("protocol_version"), kProtocolVersion);

  const Response err =
      parse_response(error_response(kErrQueueFull, "queue full"));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, kErrQueueFull);
  EXPECT_EQ(err.message, "queue full");

  const Response sub = parse_response(submitted_response(42));
  EXPECT_TRUE(sub.ok);
  EXPECT_EQ(sub.doc.u64_at("id"), 42u);

  EXPECT_THROW(parse_response("[]"), SimError);
  EXPECT_THROW(parse_response(R"({"type":"x"})"), SimError);  // no "ok"
}

// ---- live daemon -----------------------------------------------------------

/// Starts a Server on a short /tmp socket path (or, when the config names a
/// TCP listen address and no socket path, TCP only) and runs its accept loop
/// on a background thread; tears it down (drain + join) on destruction.
class LiveServer {
 public:
  explicit LiveServer(ServeConfig cfg) : server_([&cfg] {
    if (cfg.socket_path.empty() && cfg.listen_address.empty()) {
      static int counter = 0;
      cfg.socket_path = "/tmp/mlpserve-test-" + std::to_string(::getpid()) +
                        "-" + std::to_string(counter++) + ".sock";
    }
    return cfg;
  }()) {
    server_.listen();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~LiveServer() { stop(); }

  void stop() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  Server& server() { return server_; }
  const std::string& path() const { return server_.socket_path(); }

 private:
  Server server_;
  std::thread thread_;
};

JobSpec small_job(const std::string& bench, arch::ArchKind kind =
                                                arch::ArchKind::kMillipede) {
  JobSpec spec;
  spec.job.kind = kind;
  spec.job.bench = bench;
  spec.job.options.records = 1024;
  return spec;
}

TEST(Service, SubmitFetchRoundTrip) {
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  Client client;
  client.connect(live.path());

  const Response pong = client.ping();
  ASSERT_TRUE(pong.ok);

  const Response sub = client.submit(small_job("count"));
  ASSERT_TRUE(sub.ok) << sub.message;
  const u64 id = sub.doc.u64_at("id");

  const Response result = client.result(id, /*wait=*/true);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(result.doc.str_at("state"), "done");
  EXPECT_TRUE(result.doc.find("run_ok")->boolean);
  // The CSV row and stats object are server-rendered with the shared
  // formatting code, so they match a local run byte for byte.
  const sim::MatrixResult local = sim::run_job(small_job("count").job);
  EXPECT_EQ(result.doc.str_at("csv"), sim::sweep_csv_row(local));
  EXPECT_EQ(result.doc.str_at("stats"), sim::stats_json_run(local));

  // Unknown jobs and unknown request types are typed errors.
  const Response missing = client.result(9999, false);
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error, kErrNoSuchJob);
  const Response bogus = client.roundtrip(R"({"type":"frobnicate"})");
  EXPECT_FALSE(bogus.ok);
  EXPECT_EQ(bogus.error, kErrBadRequest);
}

TEST(Service, WarmCacheHitsAreReportedAndBitIdentical) {
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  Client client;
  client.connect(live.path());

  // Same preparation key across architectures: millipede cold, then ssmc
  // and a resubmit both warm.
  const u64 id1 = client.submit(small_job("count")).doc.u64_at("id");
  const Response r1 = client.result(id1, true);
  ASSERT_TRUE(r1.ok);
  EXPECT_FALSE(r1.doc.find("cache_hit")->boolean);

  const u64 id2 =
      client.submit(small_job("count", arch::ArchKind::kSsmc)).doc.u64_at("id");
  const Response r2 = client.result(id2, true);
  ASSERT_TRUE(r2.ok);
  EXPECT_TRUE(r2.doc.find("cache_hit")->boolean);

  const u64 id3 = client.submit(small_job("count")).doc.u64_at("id");
  const Response r3 = client.result(id3, true);
  ASSERT_TRUE(r3.ok);
  EXPECT_TRUE(r3.doc.find("cache_hit")->boolean);
  // Warm rerun: byte-identical to the cold run's document.
  EXPECT_EQ(r3.doc.str_at("csv"), r1.doc.str_at("csv"));
  EXPECT_EQ(r3.doc.str_at("stats"), r1.doc.str_at("stats"));

  const Response status = client.server_status();
  ASSERT_TRUE(status.ok);
  const trace::JsonValue* cache = status.doc.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->u64_at("misses"), 1u);
  EXPECT_EQ(cache->u64_at("hits"), 2u);
}

TEST(Service, ConcurrentClientsGetTheirOwnResults) {
  LiveServer live(ServeConfig{"", "", /*threads=*/4, /*queue_limit=*/32});
  const std::vector<std::string> benches = {"count", "sample", "variance",
                                            "kmeans"};
  std::vector<std::string> stats(benches.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    clients.emplace_back([&, i] {
      Client client;
      client.connect(live.path());
      const Response sub = client.submit(small_job(benches[i]));
      ASSERT_TRUE(sub.ok) << sub.message;
      const Response result = client.result(sub.doc.u64_at("id"), true);
      ASSERT_TRUE(result.ok) << result.message;
      stats[i] = result.doc.str_at("stats");
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const sim::MatrixResult local = sim::run_job(small_job(benches[i]).job);
    EXPECT_EQ(stats[i], sim::stats_json_run(local)) << benches[i];
  }
}

TEST(Service, QueueFullIsATypedRejectionNotADrop) {
  // One worker, admission bound 2: a held job pins the worker while staying
  // queued, a second waits in the pool queue, and the third submit must be
  // rejected — deterministically, with the typed queue-full error.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/2});
  Client client;
  client.connect(live.path());

  JobSpec held = small_job("count");
  held.hold_ms = 60'000;  // released early by drain; never waited out
  const Response first = client.submit(held);
  ASSERT_TRUE(first.ok);
  const Response second = client.submit(small_job("sample"));
  ASSERT_TRUE(second.ok);

  const Response rejected = client.submit(small_job("variance"));
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, kErrQueueFull);

  // Backpressure is recoverable: cancel the held job, slot frees, resubmit
  // succeeds.
  const Response cancelled = client.cancel(first.doc.u64_at("id"));
  ASSERT_TRUE(cancelled.ok) << cancelled.message;
  const Response retried = client.submit(small_job("variance"));
  EXPECT_TRUE(retried.ok) << retried.message;
}

TEST(Service, CancelSemantics) {
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/8});
  Client client;
  client.connect(live.path());

  JobSpec held = small_job("count");
  held.hold_ms = 60'000;
  const u64 held_id = client.submit(held).doc.u64_at("id");
  EXPECT_EQ(client.job_status(held_id).doc.str_at("state"), "queued");

  // Cancelling a queued job works and is idempotent.
  ASSERT_TRUE(client.cancel(held_id).ok);
  EXPECT_EQ(client.job_status(held_id).doc.str_at("state"), "cancelled");
  EXPECT_TRUE(client.cancel(held_id).ok);

  // A cancelled job's result reports the cancellation, not stale data.
  const Response result = client.result(held_id, true);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.doc.str_at("state"), "cancelled");

  // A finished job can no longer be cancelled.
  const u64 done_id = client.submit(small_job("sample")).doc.u64_at("id");
  ASSERT_TRUE(client.result(done_id, true).ok);
  const Response late = client.cancel(done_id);
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error, kErrJobDone);

  const Response missing = client.cancel(777);
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error, kErrNoSuchJob);
}

TEST(Service, GracefulDrainFinishesAdmittedJobs) {
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/16});
  Client client;
  client.connect(live.path());

  // Three held jobs: drain must cut the holds short and still run them all.
  std::vector<u64> ids;
  for (const char* bench : {"count", "sample", "variance"}) {
    JobSpec spec = small_job(bench);
    spec.hold_ms = 60'000;
    const Response sub = client.submit(spec);
    ASSERT_TRUE(sub.ok) << sub.message;
    ids.push_back(sub.doc.u64_at("id"));
  }

  const Response bye = client.shutdown();
  ASSERT_TRUE(bye.ok);
  EXPECT_EQ(bye.type, "shutting-down");
  live.stop();  // joins run(): returns only after the drain completes

  const ServerStatus status = live.server().status();
  EXPECT_EQ(status.done, 3u);  // every admitted job ran to completion
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.running, 0u);
  EXPECT_FALSE(status.accepting);
}

TEST(Service, SubmitAfterShutdownIsRefused) {
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/8});
  Client client;
  client.connect(live.path());
  // Drain only closes connections after running jobs finish, so a slow job
  // holds the window open: the refusal below must be the typed error, not
  // a racy connection drop.
  JobSpec slow = small_job("count");
  slow.job.options.records = u64{1} << 18;
  ASSERT_TRUE(client.submit(slow).ok);
  ASSERT_TRUE(client.shutdown().ok);
  const Response refused = client.submit(small_job("count"));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, kErrShuttingDown);
}

TEST(Service, OneNodeSweepMatchesLocalBytes) {
  LiveServer live(ServeConfig{"", "", /*threads=*/4, /*queue_limit=*/3});

  // 4 architectures × 2 benchmarks through a 3-slot admission window: the
  // sliding-window sweep must absorb queue-full backpressure and still
  // return every result in submission order.
  std::vector<sim::MatrixJob> jobs;
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc,
        arch::ArchKind::kGpgpu, arch::ArchKind::kMulticore}) {
    for (const std::string& bench :
         {std::string("count"), std::string("variance")}) {
      jobs.push_back(small_job(bench, kind).job);
    }
  }
  const std::vector<RemoteResult> remote =
      run_matrix_sharded({live.path()}, jobs);
  const std::vector<sim::MatrixResult> local = sim::run_matrix(jobs, 2);

  ASSERT_EQ(remote.size(), local.size());
  std::vector<std::string> remote_stats, local_stats;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(remote[i].ok) << remote[i].message;
    EXPECT_TRUE(remote[i].run_ok);
    EXPECT_EQ(remote[i].csv, sim::sweep_csv_row(local[i]));
    remote_stats.push_back(remote[i].stats_run_json);
    local_stats.push_back(sim::stats_json_run(local[i]));
  }
  // The reassembled remote document equals the local document bit for bit.
  EXPECT_EQ(sim::stats_json_document(remote_stats),
            sim::stats_json(local));
  EXPECT_EQ(sim::stats_json_document(local_stats), sim::stats_json(local));
}

// ---- TCP transport against a live daemon -----------------------------------

TEST(ServiceTcp, SubmitFetchOverTcpMatchesLocalBytes) {
  // TCP-only server on an ephemeral port; the protocol layer must be
  // transport-blind, so the result document is byte-identical to both a
  // Unix-socket fetch and a local run.
  LiveServer live(
      ServeConfig{"", "127.0.0.1:0", /*threads=*/2, /*queue_limit=*/8});
  ASSERT_NE(live.server().tcp_port(), 0);
  const std::string address =
      "127.0.0.1:" + std::to_string(live.server().tcp_port());
  EXPECT_EQ(live.server().tcp_address(), address);

  Client client;
  client.connect(address);
  ASSERT_TRUE(client.ping().ok);
  const Response sub = client.submit(small_job("count"));
  ASSERT_TRUE(sub.ok) << sub.message;
  const Response result = client.result(sub.doc.u64_at("id"), /*wait=*/true);
  ASSERT_TRUE(result.ok) << result.message;
  const sim::MatrixResult local = sim::run_job(small_job("count").job);
  EXPECT_EQ(result.doc.str_at("csv"), sim::sweep_csv_row(local));
  EXPECT_EQ(result.doc.str_at("stats"), sim::stats_json_run(local));
}

TEST(ServiceTcp, FramingViolationsDropThePeerNotTheServer) {
  LiveServer live(
      ServeConfig{"", "127.0.0.1:0", /*threads=*/1, /*queue_limit=*/4});
  const Endpoint ep =
      parse_endpoint("127.0.0.1:" + std::to_string(live.server().tcp_port()));

  // Oversize frame header (1 GB claim): the server must close the
  // connection without reading further.
  {
    const int fd = connect_endpoint(ep);
    const unsigned char huge[4] = {0, 0, 0, 0x40};
    ASSERT_EQ(::write(fd, huge, 4), 4);
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: peer dropped
    ::close(fd);
  }
  // Truncated frame: a half-written header followed by disconnect must not
  // wedge the accept loop.
  {
    const int fd = connect_endpoint(ep);
    const unsigned char half[2] = {8, 0};
    ASSERT_EQ(::write(fd, half, 2), 2);
    ::close(fd);
  }
  // The daemon survives both: a well-behaved client still gets served.
  Client client;
  client.connect(endpoint_name(ep));
  EXPECT_TRUE(client.ping().ok);
}

// ---- consistent-hash sharding ----------------------------------------------

TEST(Shard, RingAssignmentsAreStableForever) {
  // Sharding keys by prepare-cache identity only keeps per-node caches warm
  // ACROSS sweep invocations if the key→node map never changes for a given
  // node count. These pins are the contract: a hash or ring change that
  // moves them silently discards every node's accumulated cache.
  EXPECT_EQ(sim::stable_hash64("count"), 0x17dacd223e4d716dull);
  EXPECT_EQ(sim::stable_hash64(""), 0xefd01f60ba992926ull);

  const ShardRing two(2), three(3), four(4);
  const struct {
    const char* key;
    std::size_t on_two, on_three, on_four;
  } kPins[] = {
      {"count|n32768|s1|b0|rb64|slab0", 1, 2, 2},
      {"kmeans|n32768|s1|b0|rb64|slab0", 1, 1, 1},
      {"sample|n32768|s1|b0|rb64|slab0", 0, 0, 0},
      {"variance|n32768|s1|b0|rb64|slab0", 1, 1, 1},
      {"pca|n32768|s1|b0|rb64|slab0", 1, 2, 3},
      {"gda|n32768|s1|b0|rb64|slab0", 1, 1, 1},
  };
  for (const auto& pin : kPins) {
    EXPECT_EQ(two.node_for(pin.key), pin.on_two) << pin.key;
    EXPECT_EQ(three.node_for(pin.key), pin.on_three) << pin.key;
    EXPECT_EQ(four.node_for(pin.key), pin.on_four) << pin.key;
  }
}

TEST(Shard, GrowingTheRingOnlyMovesKeysToTheNewNode) {
  // The consistent-hashing property: adding node N+1 splits existing arcs
  // with the new node's points only, so a key either keeps its owner or
  // moves to the NEW node — never between surviving nodes (their caches
  // stay valid).
  for (std::size_t nodes = 1; nodes < 6; ++nodes) {
    const ShardRing before(nodes), after(nodes + 1);
    for (int i = 0; i < 500; ++i) {
      const std::string key = "key" + std::to_string(i);
      const std::size_t old_node = before.node_for(key);
      const std::size_t new_node = after.node_for(key);
      EXPECT_TRUE(new_node == old_node || new_node == nodes)
          << key << " moved " << old_node << " -> " << new_node
          << " when adding node " << nodes;
    }
  }
}

TEST(Shard, VirtualNodesSpreadKeysEvenly) {
  const ShardRing ring(4);
  std::size_t counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 1000; ++i) {
    counts[ring.node_for("key" + std::to_string(i))]++;
  }
  for (const std::size_t count : counts) {
    EXPECT_GE(count, 150u);  // ≥15% each under fair spread of 25%
    EXPECT_LE(count, 400u);
  }
}

TEST(Shard, JobsShardByPrepareKeyNotArchitecture) {
  // Same preparation identity across architectures → same node, so one
  // node's cache serves every arch variant of a grid point.
  const sim::MatrixJob a = small_job("count", arch::ArchKind::kMillipede).job;
  const sim::MatrixJob b = small_job("count", arch::ArchKind::kGpgpu).job;
  for (std::size_t nodes = 1; nodes <= 4; ++nodes) {
    EXPECT_EQ(shard_for_job(a, nodes), shard_for_job(b, nodes));
  }
}

// ---- multi-node sharded sweep ----------------------------------------------

TEST(Sharded, TwoNodesMergeInSubmissionOrderByteIdentically) {
  // Two daemons with DIFFERENT admission bounds: the per-node sliding
  // windows must size independently (a 2-slot node throttles without
  // stalling the 8-slot node), and the merged results must equal a local
  // run byte for byte, in submission order, at any parallelism.
  LiveServer narrow(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/2});
  LiveServer wide(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});

  std::vector<sim::MatrixJob> jobs;
  for (const std::string& bench :
       {std::string("count"), std::string("sample"), std::string("variance"),
        std::string("kmeans")}) {
    for (const arch::ArchKind kind :
         {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc,
          arch::ArchKind::kGpgpu, arch::ArchKind::kMulticore}) {
      jobs.push_back(small_job(bench, kind).job);
    }
  }

  const std::vector<RemoteResult> remote = run_matrix_sharded(
      {narrow.path(), wide.path()}, jobs);
  const std::vector<sim::MatrixResult> local = sim::run_matrix(jobs, 8);

  ASSERT_EQ(remote.size(), local.size());
  std::vector<std::string> remote_stats;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(remote[i].ok) << remote[i].message;
    EXPECT_EQ(remote[i].csv, sim::sweep_csv_row(local[i])) << i;
    remote_stats.push_back(remote[i].stats_run_json);
  }
  EXPECT_EQ(sim::stats_json_document(remote_stats), sim::stats_json(local));

  // Both nodes actually participated — the grid wasn't funneled through one.
  const u64 narrow_done = narrow.server().status().done;
  const u64 wide_done = wide.server().status().done;
  EXPECT_GT(narrow_done, 0u);
  EXPECT_GT(wide_done, 0u);
  EXPECT_EQ(narrow_done + wide_done, jobs.size());
}

/// The six-bench job list whose keys hash to BOTH nodes of a two-member
/// ring (pinned by RingAssignmentsAreStableForever).
std::vector<sim::MatrixJob> two_node_grid() {
  std::vector<sim::MatrixJob> jobs;
  for (const std::string& bench :
       {std::string("count"), std::string("sample"), std::string("variance"),
        std::string("kmeans"), std::string("pca"), std::string("gda")}) {
    jobs.push_back(small_job(bench).job);
  }
  return jobs;
}

/// Fast-failure policy for tests: a dead address is declared dead after
/// ~200 ms instead of the production 5 s startup-retry window.
ShardOptions fast_options() {
  ShardOptions options;
  options.connect_timeout_ms = 200;
  options.request_timeout_ms = 5000;
  options.probe_min_ms = 20;
  options.probe_max_ms = 200;
  return options;
}

TEST(Sharded, DeadNodeFailsOverByteIdentically) {
  // One node of the fleet never existed: with failover (the default) every
  // point it owned re-dispatches to the survivor and the merged output is
  // byte-identical to a healthy run — the sweep result does not betray
  // that a node was lost.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  const std::string dead = "/tmp/mlpserve-no-such-node.sock";
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  FleetHealth fleet;
  const std::vector<RemoteResult> results =
      run_matrix_sharded({live.path(), dead}, jobs, fast_options(), &fleet);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].message;
    const sim::MatrixResult local = sim::run_job(jobs[i]);
    EXPECT_EQ(results[i].csv, sim::sweep_csv_row(local)) << i;
  }
  EXPECT_GE(fleet.node_deaths, 1u);
  EXPECT_GT(fleet.failovers, 0u);
  EXPECT_EQ(fleet.points_lost, 0u);
  ASSERT_EQ(fleet.nodes.size(), 2u);
  EXPECT_EQ(fleet.nodes[0].jobs_completed, jobs.size());
  EXPECT_EQ(fleet.nodes[1].jobs_completed, 0u);
}

TEST(Sharded, NoFailoverYieldsTypedRowsNotAHang) {
  // The legacy policy (--no-failover): a dead node's points become typed
  // node-lost rows while the live node's points still serve.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  const std::string dead = "/tmp/mlpserve-no-such-node.sock";
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  ShardOptions options = fast_options();
  options.failover = false;
  FleetHealth fleet;
  const std::vector<RemoteResult> results =
      run_matrix_sharded({live.path(), dead}, jobs, options, &fleet);
  ASSERT_EQ(results.size(), jobs.size());
  std::size_t lost = 0, served = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok) {
      ++served;
      const sim::MatrixResult local = sim::run_job(jobs[i]);
      EXPECT_EQ(results[i].csv, sim::sweep_csv_row(local));
    } else {
      ++lost;
      EXPECT_EQ(results[i].error, kErrNodeLost);
      EXPECT_NE(results[i].message.find(dead), std::string::npos);
    }
  }
  // Keys hash to both nodes (pinned by RingAssignmentsAreStableForever), so
  // the sweep must lose SOME points and serve the rest from the live node.
  EXPECT_GT(lost, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(fleet.points_lost, lost);
}

TEST(Sharded, EveryNodeDeadFailsAllPointsNotTheSweep) {
  const std::vector<sim::MatrixJob> jobs = two_node_grid();
  FleetHealth fleet;
  const std::vector<RemoteResult> results = run_matrix_sharded(
      {"/tmp/mlpserve-no-such-a.sock", "/tmp/mlpserve-no-such-b.sock"}, jobs,
      fast_options(), &fleet);
  ASSERT_EQ(results.size(), jobs.size());
  for (const RemoteResult& r : results) {
    EXPECT_EQ(r.error, kErrNodeLost);
    EXPECT_NE(r.message.find("every node is dead"), std::string::npos);
  }
  EXPECT_EQ(fleet.points_lost, jobs.size());
}

TEST(Sharded, HungNodeTripsTheDeadlineAndFailsOver) {
  // A listener that ACCEPTS (kernel backlog) but never answers — the
  // SIGSTOPped-daemon signature. The request deadline must declare it dead
  // and the sweep must finish on the survivor, byte-identically.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  Endpoint hung_ep;
  hung_ep.kind = Endpoint::Kind::kUnix;
  hung_ep.path = "/tmp/mlpserve-hung-" + std::to_string(::getpid()) + ".sock";
  const int hung_fd = listen_endpoint(hung_ep);
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  ShardOptions options = fast_options();
  options.request_timeout_ms = 300;  // the hang detector under test
  FleetHealth fleet;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<RemoteResult> results = run_matrix_sharded(
      {live.path(), hung_ep.path}, jobs, options, &fleet);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ::close(hung_fd);
  ::unlink(hung_ep.path.c_str());

  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].message;
    const sim::MatrixResult local = sim::run_job(jobs[i]);
    EXPECT_EQ(results[i].csv, sim::sweep_csv_row(local)) << i;
  }
  EXPECT_GE(fleet.node_deaths, 1u);
  EXPECT_GE(fleet.request_timeouts, 1u);
  EXPECT_EQ(fleet.points_lost, 0u);
  // The hang was detected by deadline, not waited out: well under the 60 s
  // a single unbounded result-wait would burn.
  EXPECT_LT(elapsed_ms, 30'000.0);
}

TEST(Sharded, ChaosClosedConnectionsHealByReconnect) {
  // Aggressive connection-killing chaos against ONE healthy daemon: every
  // close is a node death, every probe an instant resurrection (the daemon
  // itself never dies). The sweep must converge with zero lost points —
  // the reconnect/re-dispatch loop healing each injected failure.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  ShardOptions options = fast_options();
  options.retry_budget = 100;  // chaos this hot needs headroom
  options.chaos = parse_chaos("close=0.4,seed=11");
  FleetHealth fleet;
  const std::vector<RemoteResult> results =
      run_matrix_sharded({live.path()}, jobs, options, &fleet);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].message;
    const sim::MatrixResult local = sim::run_job(jobs[i]);
    EXPECT_EQ(results[i].csv, sim::sweep_csv_row(local)) << i;
  }
  EXPECT_EQ(fleet.points_lost, 0u);
  EXPECT_GT(fleet.chaos_injected, 0u);
  EXPECT_GE(fleet.node_deaths, 1u);
  EXPECT_GE(fleet.reconnects, 1u);
}

TEST(Sharded, RetryBudgetExhaustionIsATypedRow) {
  // Budget 0: the first node loss a point suffers is its last. With
  // connection-killing chaos, some points must exhaust the budget and the
  // error row must say so.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  ShardOptions options = fast_options();
  options.retry_budget = 0;
  options.chaos = parse_chaos("close=0.5,seed=3");
  FleetHealth fleet;
  const std::vector<RemoteResult> results =
      run_matrix_sharded({live.path()}, jobs, options, &fleet);
  ASSERT_EQ(results.size(), jobs.size());
  std::size_t exhausted = 0;
  for (const RemoteResult& r : results) {
    if (r.error.empty()) continue;
    EXPECT_EQ(r.error, kErrNodeLost);
    EXPECT_NE(r.message.find("retry budget (0) exhausted"),
              std::string::npos);
    ++exhausted;
  }
  EXPECT_GT(exhausted, 0u);
  EXPECT_EQ(fleet.points_lost, exhausted);
}

// ---- snapshot/restore verbs (protocol v2) ----------------------------------

TEST(Service, SnapshotRestoreRoundTripMatchesUninterruptedRun) {
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  Client client;
  client.connect(live.path());

  const JobSpec spec = small_job("count");
  // Capture: the run finishes normally AND parks a warm blob server-side.
  const Response snap = client.snapshot(spec, /*cycle=*/1);
  ASSERT_TRUE(snap.ok) << snap.message;
  EXPECT_EQ(snap.type, "snapshot");
  EXPECT_TRUE(snap.doc.find("captured")->boolean);
  EXPECT_GE(snap.doc.u64_at("cycle"), 1u);
  EXPECT_GT(snap.doc.u64_at("blob_bytes"), 0u);
  EXPECT_TRUE(snap.doc.find("run_ok")->boolean);

  // Restore-and-finish: byte-identical to an uninterrupted local run.
  const Response restored = client.restore(spec, /*cycle=*/1);
  ASSERT_TRUE(restored.ok) << restored.message;
  EXPECT_EQ(restored.type, "restored");
  EXPECT_TRUE(restored.doc.find("run_ok")->boolean);
  const sim::MatrixResult local = sim::run_job(spec.job);
  EXPECT_EQ(restored.doc.str_at("csv"), sim::sweep_csv_row(local));
  EXPECT_EQ(restored.doc.str_at("stats"), sim::stats_json_run(local));
  EXPECT_EQ(snap.doc.str_at("csv"), sim::sweep_csv_row(local));

  // The cache counters are observable through status.
  const Response status = client.server_status();
  ASSERT_TRUE(status.ok);
  const trace::JsonValue* snapshots = status.doc.find("snapshots");
  ASSERT_NE(snapshots, nullptr);
  EXPECT_EQ(snapshots->u64_at("entries"), 1u);
  EXPECT_EQ(snapshots->u64_at("hits"), 1u);
}

TEST(Service, RestoreWithoutASnapshotIsTyped) {
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());
  const Response miss = client.restore(small_job("count"), /*cycle=*/1);
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(miss.error, kErrNoSuchSnapshot);
  // Different cycle, arch, or preparation identity = a different key.
  ASSERT_TRUE(client.snapshot(small_job("count"), 1).ok);
  EXPECT_FALSE(client.restore(small_job("count"), 2).ok);
  EXPECT_FALSE(
      client.restore(small_job("count", arch::ArchKind::kSsmc), 1).ok);
  EXPECT_FALSE(client.restore(small_job("sample"), 1).ok);
  // Any timing knob is part of the key too: a blob captured under one
  // config never finishes a run under another.
  JobSpec slow_bus = small_job("count");
  slow_bus.job.options.cfg.dram.bus_efficiency = 0.05;
  EXPECT_EQ(client.restore(slow_bus, 1).error, kErrNoSuchSnapshot);
  JobSpec refreshed = small_job("count");
  refreshed.job.options.cfg.dram.refresh = "on";
  EXPECT_EQ(client.restore(refreshed, 1).error, kErrNoSuchSnapshot);
  EXPECT_TRUE(client.restore(small_job("count"), 1).ok);
}

TEST(Service, SnapshotVerbsRejectOldClients) {
  // The verbs demand "protocol_version":2 — a v1 client replaying frames
  // without the declaration gets the typed version-mismatch, and a
  // malformed body is still bad-request.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());

  const Response pong = client.ping();
  ASSERT_TRUE(pong.ok);
  EXPECT_EQ(pong.doc.u64_at("protocol_version"), 2u);

  for (const char* verb : {"snapshot", "restore"}) {
    const Response unversioned = client.roundtrip(
        std::string(R"({"type":")") + verb +
        R"(","cycle":1,"job":{"bench":"count"}})");
    EXPECT_FALSE(unversioned.ok);
    EXPECT_EQ(unversioned.error, kErrVersionMismatch) << verb;
    const Response stale = client.roundtrip(
        std::string(R"({"type":")") + verb +
        R"(","protocol_version":1,"cycle":1,"job":{"bench":"count"}})");
    EXPECT_FALSE(stale.ok);
    EXPECT_EQ(stale.error, kErrVersionMismatch) << verb;
  }
  // Version right, body wrong: cycle 0 and traced jobs are bad requests.
  const Response no_cycle = client.roundtrip(
      R"({"type":"snapshot","protocol_version":2,"cycle":0,)"
      R"("job":{"bench":"count"}})");
  EXPECT_FALSE(no_cycle.ok);
  EXPECT_EQ(no_cycle.error, kErrBadRequest);
  const Response traced = client.roundtrip(
      R"({"type":"snapshot","protocol_version":2,"cycle":1,)"
      R"("job":{"bench":"count","trace":true}})");
  EXPECT_FALSE(traced.ok);
  EXPECT_EQ(traced.error, kErrBadRequest);
}

TEST(Service, PerJobErrorsTravelInTheResult) {
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());

  // A watchdog-doomed config: valid to ADMIT, fails to RUN. The failure
  // must come back as run_ok=false with the error in the CSV row, exactly
  // like the local harness, not as a protocol error.
  JobSpec doomed = small_job("count");
  doomed.job.options.cfg.watchdog.max_cycles = 10;  // trips immediately
  const Response sub = client.submit(doomed);
  ASSERT_TRUE(sub.ok) << sub.message;
  const Response result = client.result(sub.doc.u64_at("id"), true);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_FALSE(result.doc.find("run_ok")->boolean);
  EXPECT_NE(result.doc.str_at("csv").find("watchdog"), std::string::npos);
}

TEST(Service, RecordBarrierOnTheSmIsATypedErrorAndServingGoesOn) {
  // The protocol accepts record_barrier for any arch; on the SIMT kinds the
  // run is rejected as a config error, which must come back in the result
  // while the daemon keeps answering.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());
  for (const arch::ArchKind kind :
       {arch::ArchKind::kGpgpu, arch::ArchKind::kVws,
        arch::ArchKind::kVwsRow}) {
    JobSpec spec = small_job("count", kind);
    spec.job.options.record_barrier = true;
    const Response sub = client.submit(spec);
    ASSERT_TRUE(sub.ok) << sub.message;
    const Response result = client.result(sub.doc.u64_at("id"), true);
    ASSERT_TRUE(result.ok) << result.message;
    EXPECT_FALSE(result.doc.find("run_ok")->boolean);
    EXPECT_NE(result.doc.str_at("csv").find("config: record barriers"),
              std::string::npos)
        << result.doc.str_at("csv");
  }
  EXPECT_TRUE(client.ping().ok);
  const Response after = client.submit(small_job("count"));
  ASSERT_TRUE(after.ok) << after.message;
  const Response done = client.result(after.doc.u64_at("id"), true);
  ASSERT_TRUE(done.ok) << done.message;
  EXPECT_TRUE(done.doc.find("run_ok")->boolean);
}

TEST(Service, OversizedInputIsAFailedResultAndServingGoesOn) {
  // records x fields x 4 bytes wraps 64 bits: the job must fail as a
  // typed config error in its result, not abort the daemon.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());
  const Response sub = client.roundtrip(
      R"({"type":"submit","job":{"bench":"count",)"
      R"("records":4611686018427387904}})");
  ASSERT_TRUE(sub.ok) << sub.message;
  const Response result = client.result(sub.doc.u64_at("id"), true);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_FALSE(result.doc.find("run_ok")->boolean);
  EXPECT_NE(result.doc.str_at("csv").find("config: "), std::string::npos)
      << result.doc.str_at("csv");
  EXPECT_TRUE(client.ping().ok);
}

TEST(Service, BoundedResultWaitHeartbeatsInsteadOfHanging) {
  // result(id, wait, wait_ms): a long job must NOT hold the reply hostage —
  // the bounded wait expires into a typed job-running/job-pending heartbeat
  // the client can keep re-issuing, which is how the sweep distinguishes a
  // slow node from a dead one.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());

  JobSpec held = small_job("count");
  held.hold_ms = 2000;
  const Response sub = client.submit(held);
  ASSERT_TRUE(sub.ok) << sub.message;
  const u64 id = sub.doc.u64_at("id");

  const auto start = std::chrono::steady_clock::now();
  const Response beat = client.result(id, /*wait=*/true, /*wait_ms=*/100);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_FALSE(beat.ok);
  EXPECT_TRUE(beat.error == kErrJobRunning || beat.error == kErrJobPending)
      << beat.error;
  EXPECT_LT(waited_ms, 1500.0);  // expired at ~100 ms, not the 2 s hold

  // Re-issuing the bounded wait converges on the real result.
  ASSERT_TRUE(client.cancel(id).ok);
  const Response done = client.result(id, /*wait=*/true, /*wait_ms=*/5000);
  ASSERT_TRUE(done.ok) << done.message;
  EXPECT_EQ(done.doc.str_at("state"), "cancelled");
}

TEST(Service, JobTimeoutCapsWallClockAndTypesTheError) {
  // --job-timeout-ms clamps EVERY job's wall-clock watchdog server-side: a
  // runaway point dies with the typed job-timeout error in its result row
  // instead of pinning a worker forever. The client cannot opt out.
  ServeConfig cfg{"", "", /*threads=*/1, /*queue_limit=*/4};
  cfg.job_timeout_ms = 1;
  LiveServer live(cfg);
  Client client;
  client.connect(live.path());

  JobSpec runaway = small_job("count");
  runaway.job.options.records = u64{1} << 20;  // far more than 1 ms of work
  runaway.job.options.cfg.watchdog.wall_ms = 60'000;  // ignored: clamped down
  const Response sub = client.submit(runaway);
  ASSERT_TRUE(sub.ok) << sub.message;
  const Response result = client.result(sub.doc.u64_at("id"), true);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_FALSE(result.doc.find("run_ok")->boolean);
  EXPECT_NE(result.doc.str_at("csv").find("job-timeout"), std::string::npos);
  EXPECT_NE(result.doc.str_at("csv").find("wall-clock budget"),
            std::string::npos);
}

}  // namespace
}  // namespace mlp::serve
