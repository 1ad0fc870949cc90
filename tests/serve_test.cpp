// Service-layer tests: protocol framing and (de)serialization, then a real
// daemon on a real Unix-domain socket — submit/fetch round trips, concurrent
// clients, queue-full backpressure, cancel semantics, graceful drain, warm
// cache-hit accounting, and the determinism guarantee that a warm-cache
// remote result is byte-identical to a cold local run.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "geometries.hpp"
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
  EXPECT_THROW(parse_chaos("delay-ms=-1"), SimError);   // negative count
  EXPECT_THROW(parse_chaos("delay-ms=18446744073709551615"), SimError);
  EXPECT_THROW(parse_chaos("delay-ms=3600001"), SimError);  // over an hour
  EXPECT_EQ(parse_chaos("delay-ms=3600000").delay_ms, kMaxChaosDelayMs);
  EXPECT_THROW(parse_chaos("seed= 7"), SimError);       // not all digits
  EXPECT_THROW(parse_chaos("seed=18446744073709551616"), SimError);  // > u64
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

TEST(ChaosSpecFuzz, SpecsParseOrThrowTyped) {
  // Seeded random specs: well-formed ones parse to exactly the values they
  // name; truncated and byte-mutated ones parse to rates inside [0, 1] and
  // a bounded delay, or throw a typed SimError("serve") — never anything
  // else.
  std::mt19937_64 rng(20261019);  // fixed seed: failures must reproduce
  const char* const rate_keys[] = {"drop", "delay", "truncate", "close"};
  const std::string alphabet =
      std::string("=,.-+e0123456789abcdrsz ") + '\0' + '\xff';
  auto check = [](const std::string& spec) {
    try {
      const ChaosConfig cfg = parse_chaos(spec);
      for (const double rate : {cfg.drop_rate, cfg.delay_rate,
                                cfg.truncate_rate, cfg.close_rate}) {
        EXPECT_TRUE(rate >= 0.0 && rate <= 1.0) << spec;
      }
      EXPECT_LE(cfg.delay_ms, kMaxChaosDelayMs) << spec;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "serve") << spec;
    }
  };
  for (int iter = 0; iter < 300; ++iter) {
    ChaosConfig want;
    double* const rates[] = {&want.drop_rate, &want.delay_rate,
                             &want.truncate_rate, &want.close_rate};
    std::string spec;
    for (int k = 0; k < 4; ++k) {
      if (rng() % 2 == 0) continue;
      *rates[k] = static_cast<double>(rng() % 1001) / 1000.0;
      spec += std::string(rate_keys[k]) + "=" + std::to_string(*rates[k]) +
              ",";
    }
    want.delay_ms = rng() % 100000;
    want.seed = rng();
    spec += "delay-ms=" + std::to_string(want.delay_ms) +
            ",seed=" + std::to_string(want.seed);
    const ChaosConfig got = parse_chaos(spec);
    EXPECT_EQ(got.drop_rate, want.drop_rate) << spec;
    EXPECT_EQ(got.delay_rate, want.delay_rate) << spec;
    EXPECT_EQ(got.truncate_rate, want.truncate_rate) << spec;
    EXPECT_EQ(got.close_rate, want.close_rate) << spec;
    EXPECT_EQ(got.delay_ms, want.delay_ms) << spec;
    EXPECT_EQ(got.seed, want.seed) << spec;
    for (int cut = 0; cut < 8; ++cut) {
      check(spec.substr(0, rng() % spec.size()));
    }
    for (int m = 0; m < 16; ++m) {
      std::string mutated = spec;
      const std::size_t at = rng() % mutated.size();
      const char byte = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0: mutated[at] = byte; break;
        case 1: mutated.insert(mutated.begin() + at, byte); break;
        default: mutated.erase(at, 1); break;
      }
      check(mutated);
    }
  }
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
  // later request — and the client counts the trip itself.
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.counts().request_timeouts, 1u);
  EXPECT_EQ(client.counts().connections, 1u);
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
  // status() counts every job once, in its current state.
  using Counts = std::array<u64, 4>;  // queued, running, done, cancelled
  const auto counts = [&live] {
    const ServerStatus s = live.server().status();
    return Counts{s.queued, s.running, s.done, s.cancelled};
  };
  EXPECT_EQ(counts(), (Counts{0, 0, 0, 0}));

  JobSpec held = small_job("count");
  held.hold_ms = 60'000;
  const u64 held_id = client.submit(held).doc.u64_at("id");
  EXPECT_EQ(client.job_status(held_id).doc.str_at("state"), "queued");
  EXPECT_EQ(counts(), (Counts{1, 0, 0, 0}));

  // Cancelling a queued job works and is idempotent.
  ASSERT_TRUE(client.cancel(held_id).ok);
  EXPECT_EQ(client.job_status(held_id).doc.str_at("state"), "cancelled");
  EXPECT_EQ(counts(), (Counts{0, 0, 0, 1}));
  EXPECT_TRUE(client.cancel(held_id).ok);
  EXPECT_EQ(counts(), (Counts{0, 0, 0, 1}));

  // A cancelled job's result reports the cancellation, not stale data.
  const Response result = client.result(held_id, true);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.doc.str_at("state"), "cancelled");
  EXPECT_EQ(counts(), (Counts{0, 0, 0, 1}));

  // A finished job can no longer be cancelled.
  const u64 done_id = client.submit(small_job("sample")).doc.u64_at("id");
  ASSERT_TRUE(client.result(done_id, true).ok);
  EXPECT_EQ(counts(), (Counts{0, 0, 1, 1}));
  const Response late = client.cancel(done_id);
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error, kErrJobDone);
  EXPECT_EQ(counts(), (Counts{0, 0, 1, 1}));

  const Response missing = client.cancel(777);
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error, kErrNoSuchJob);
  EXPECT_EQ(counts(), (Counts{0, 0, 1, 1}));
}

TEST(Service, ChaosIsOnOnlyWhenTheOptionsSetIt) {
  // Chaos comes only from the options, never from the environment: a
  // process that names a close-every-connection schedule there still gets
  // chaos-free default client and sweep options.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  const char* const variable = "MLP_CHAOS";
  ::setenv(variable, "close=1", /*overwrite=*/1);
  const bool shard_chaos = ShardOptions{}.chaos.enabled();
  Client client;
  bool pong = false;
  try {
    client.connect(live.path());
    pong = client.ping().ok;
  } catch (const SimError&) {
    // pong stays false; unset the variable before reporting.
  }
  ::unsetenv(variable);
  EXPECT_FALSE(shard_chaos);
  EXPECT_TRUE(pong);
  EXPECT_EQ(client.counts().chaos_injected, 0u);
}

TEST(Service, EachClientKeepsItsOwnCounts) {
  // Counts belong to the Client that did the work: one client's chaos and
  // reconnects leave another's untouched, and a client's counts outlive
  // each of its connections.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  ClientOptions chaotic_options;
  chaotic_options.chaos = parse_chaos("close=1,seed=5");
  Client chaotic(chaotic_options);
  Client calm;
  calm.connect(live.path());
  for (int i = 0; i < 3; ++i) {
    chaotic.connect(live.path());
    EXPECT_THROW(chaotic.ping(), SimError);
    EXPECT_FALSE(chaotic.connected());
    ASSERT_TRUE(calm.ping().ok);
  }
  EXPECT_EQ(chaotic.counts().connections, 3u);
  EXPECT_EQ(chaotic.counts().chaos_injected, 3u);
  EXPECT_EQ(chaotic.counts().request_timeouts, 0u);
  EXPECT_EQ(calm.counts().connections, 1u);
  EXPECT_EQ(calm.counts().chaos_injected, 0u);
  EXPECT_EQ(calm.counts().request_timeouts, 0u);
}

TEST(Service, StatusCountsBalanceAcrossConcurrentClients) {
  // The status counts move at submit, start, finish and cancel, so
  // concurrent clients leave them balanced: every admitted job is counted
  // once, in its final state, in status() and on the wire alike.
  LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/32});
  const std::vector<std::string> benches = {"count", "sample", "variance",
                                            "kmeans"};
  constexpr u64 kRunsPerClient = 3;
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    clients.emplace_back([&, i] {
      Client client;
      client.connect(live.path());
      JobSpec held = small_job(benches[i]);
      held.hold_ms = 60'000;  // cancelled below; never waited out
      const Response held_sub = client.submit(held);
      ASSERT_TRUE(held_sub.ok) << held_sub.message;
      std::vector<u64> ids;
      for (u64 k = 0; k < kRunsPerClient; ++k) {
        const Response sub = client.submit(small_job(benches[i]));
        ASSERT_TRUE(sub.ok) << sub.message;
        ids.push_back(sub.doc.u64_at("id"));
      }
      ASSERT_TRUE(client.cancel(held_sub.doc.u64_at("id")).ok);
      for (const u64 id : ids) {
        const Response result = client.result(id, /*wait=*/true);
        ASSERT_TRUE(result.ok) << result.message;
        EXPECT_EQ(result.doc.str_at("state"), "done");
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServerStatus s = live.server().status();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.running, 0u);
  EXPECT_EQ(s.done, benches.size() * kRunsPerClient);
  EXPECT_EQ(s.cancelled, benches.size());

  Client client;
  client.connect(live.path());
  const Response status = client.server_status();
  ASSERT_TRUE(status.ok);
  const trace::JsonValue* jobs = status.doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->u64_at("queued"), s.queued);
  EXPECT_EQ(jobs->u64_at("running"), s.running);
  EXPECT_EQ(jobs->u64_at("done"), s.done);
  EXPECT_EQ(jobs->u64_at("cancelled"), s.cancelled);
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

TEST(Service, DeeplyNestedFrameIsABadRequest) {
  // A 40 KB frame nesting 20,000 arrays: the parser's depth bound answers
  // it with a typed bad-request instead of overflowing the connection
  // thread's stack, and the daemon keeps serving the same connection.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());
  const Response nested =
      client.roundtrip(std::string(20000, '[') + std::string(20000, ']'));
  EXPECT_FALSE(nested.ok);
  EXPECT_EQ(nested.error, kErrBadRequest);
  EXPECT_NE(nested.message.find("nesting deeper than"), std::string::npos)
      << nested.message;
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
  // One node of the fleet never existed: every point it owned re-dispatches
  // to the survivor and the merged output is byte-identical to a healthy
  // run — the sweep result does not betray that a node was lost.
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
  // Connection-killing chaos against ONE healthy daemon, which itself never
  // dies. A dropped connection reconnects in place and repeats the request;
  // only a second drop in a row loses the node, and every probe then
  // resurrects it. Each sweep must return the local rows with no lost
  // point, inside its row's bounds on deaths and retries.
  struct Case {
    const char* chaos;
    i64 request_timeout_ms;
    u32 retry_budget;
    u64 max_deaths;  ///< node deaths allowed; with none, no retry either
  };
  const Case cases[] = {
      // So hot that two closes in a row happen: deaths need budget headroom.
      {"close=0.4,seed=11", 5000, 100, ~u64{0}},
      // A deadline long enough that no result wait heartbeats keeps the
      // request sequence, and so the chaos draws, deterministic: every drop
      // heals in place, and no point is requeued or runs twice.
      {"close=0.15,truncate=0.1,seed=4", 120000, 3, 0},
  };
  const std::vector<sim::MatrixJob> jobs = two_node_grid();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.chaos);
    LiveServer live(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
    ShardOptions options = fast_options();
    options.request_timeout_ms = c.request_timeout_ms;
    options.retry_budget = c.retry_budget;
    options.chaos = parse_chaos(c.chaos);
    FleetHealth fleet;
    const std::vector<RemoteResult> results =
        run_matrix_sharded({live.path()}, jobs, options, &fleet);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << i << ": " << results[i].message;
      EXPECT_EQ(results[i].csv, sim::sweep_csv_row(sim::run_job(jobs[i])))
          << i;
    }
    EXPECT_GT(fleet.chaos_injected, 0u);
    EXPECT_GE(fleet.reconnects, 1u);
    EXPECT_LE(fleet.node_deaths, c.max_deaths);
    if (c.max_deaths == 0) {
      EXPECT_EQ(fleet.retries, 0u);
    }
    EXPECT_EQ(fleet.points_lost, 0u);
  }
}

/// A node that admits points and then dies with them in flight: it answers
/// `status` and `submit` like a daemon, leaves `result` unanswered, and on
/// cut() removes its socket and drops the connection.
class DyingNode {
 public:
  DyingNode() {
    ep_.kind = Endpoint::Kind::kUnix;
    ep_.path = "/tmp/mlpserve-dying-" + std::to_string(::getpid()) + ".sock";
    listener_ = listen_endpoint(ep_);
    thread_ = std::thread([this] { serve(); });
  }
  ~DyingNode() {
    cut();
    thread_.join();
  }

  const std::string& path() const { return ep_.path; }
  /// A result request arrived: the sweep now waits on this node.
  bool waited_on() const { return waited_on_.load(); }

  void cut() {
    if (cut_.exchange(true)) return;
    ::close(listener_);
    ::unlink(ep_.path.c_str());
    const int fd = conn_.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

 private:
  void serve() {
    pollfd pfd{listener_, POLLIN, 0};
    while (!cut_.load() && ::poll(&pfd, 1, 20) <= 0) {
    }
    if (cut_.load()) return;
    conn_.store(::accept(listener_, nullptr, nullptr));
    if (cut_.load()) ::shutdown(conn_.load(), SHUT_RDWR);
    u64 next_id = 1;
    try {
      while (const std::optional<std::string> frame =
                 read_frame(conn_.load())) {
        const std::string type = trace::json_parse(*frame).str_at("type");
        if (type == "status") {
          ServerStatus status;
          status.queue_limit = 8;
          write_frame(conn_.load(), status_response(status));
        } else if (type == "submit") {
          write_frame(conn_.load(), submitted_response(next_id++));
        } else {
          waited_on_.store(true);
        }
      }
    } catch (const SimError&) {
      // The peer reset the connection: this node is gone either way.
    }
    ::close(conn_.load());
  }

  Endpoint ep_;
  int listener_ = -1;
  std::atomic<int> conn_{-1};
  std::atomic<bool> cut_{false};
  std::atomic<bool> waited_on_{false};
  std::thread thread_;
};

TEST(Sharded, RestartedNodeNeverAnswersForAStaleId) {
  // Node B restarts at the same address while it holds finished points
  // that the sweep has not fetched yet, and then node A dies, so A's
  // points fail over to the new B process. The sweep reconnects to B in
  // place and repeats `result` for ids that the old process issued; none
  // of them may name a failed-over point there, or that point's row would
  // be written into another point's place. Every row must be the local one.
  DyingNode a;
  const std::string b_path =
      "/tmp/mlpserve-restart-" + std::to_string(::getpid()) + ".sock";
  const ServeConfig b_cfg{b_path, "", /*threads=*/2, /*queue_limit=*/8};
  auto b = std::make_unique<LiveServer>(b_cfg);
  const std::vector<sim::MatrixJob> jobs = two_node_grid();
  std::size_t b_points = 0;
  for (const sim::MatrixJob& job : jobs) b_points += shard_for_job(job, 2);

  ShardOptions options = fast_options();
  options.request_timeout_ms = 120000;  // A's silence must not trip it
  FleetHealth fleet;
  std::vector<RemoteResult> results;
  std::thread sweep([&] {
    results = run_matrix_sharded({a.path(), b_path}, jobs, options, &fleet);
  });
  // The sweep drains node 0 first, so it waits on A while B finishes.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((!a.waited_on() || b->server().status().done < b_points) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  b.reset();
  b = std::make_unique<LiveServer>(b_cfg);
  a.cut();
  sweep.join();

  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].message;
    EXPECT_EQ(results[i].csv, sim::sweep_csv_row(sim::run_job(jobs[i]))) << i;
  }
  EXPECT_GT(b_points, 0u);
  EXPECT_LT(b_points, jobs.size());
  EXPECT_EQ(fleet.node_deaths, 1u);
  EXPECT_GT(fleet.failovers, 0u);
  EXPECT_EQ(fleet.points_lost, 0u);
}

TEST(Sharded, ConcurrentSweepsReportOnlyTheirOwnHealth) {
  // Two sweeps at once in one process, one under connection-killing chaos
  // and one healthy. Each FleetHealth sums only its own sweep's clients, so
  // the healthy sweep reports no degradation however the two interleave.
  LiveServer chaotic_node(ServeConfig{"", "", /*threads=*/2,
                                      /*queue_limit=*/8});
  LiveServer calm_node(ServeConfig{"", "", /*threads=*/2, /*queue_limit=*/8});
  const std::vector<sim::MatrixJob> jobs = two_node_grid();

  ShardOptions chaotic = fast_options();
  chaotic.retry_budget = 100;  // chaos this hot needs headroom
  chaotic.chaos = parse_chaos("close=0.4,seed=11");
  FleetHealth chaotic_fleet;
  std::vector<RemoteResult> chaotic_results;
  std::thread chaotic_sweep([&] {
    chaotic_results = run_matrix_sharded({chaotic_node.path()}, jobs,
                                         chaotic, &chaotic_fleet);
  });
  FleetHealth calm_fleet;
  const std::vector<RemoteResult> calm_results = run_matrix_sharded(
      {calm_node.path()}, jobs, fast_options(), &calm_fleet);
  chaotic_sweep.join();

  ASSERT_EQ(chaotic_results.size(), jobs.size());
  ASSERT_EQ(calm_results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string local = sim::sweep_csv_row(sim::run_job(jobs[i]));
    ASSERT_TRUE(chaotic_results[i].ok) << i << ": "
                                       << chaotic_results[i].message;
    ASSERT_TRUE(calm_results[i].ok) << i << ": " << calm_results[i].message;
    EXPECT_EQ(chaotic_results[i].csv, local) << i;
    EXPECT_EQ(calm_results[i].csv, local) << i;
  }
  EXPECT_GT(chaotic_fleet.chaos_injected, 0u);
  EXPECT_TRUE(chaotic_fleet.degraded());
  EXPECT_EQ(calm_fleet.chaos_injected, 0u);
  EXPECT_EQ(calm_fleet.request_timeouts, 0u);
  EXPECT_FALSE(calm_fleet.degraded());
  ASSERT_EQ(calm_fleet.nodes.size(), 1u);
  EXPECT_EQ(calm_fleet.nodes[0].jobs_completed, jobs.size());
}

TEST(Sharded, BusyNodeIsBackpressureNotAnErrorRow) {
  // Another client holds the daemon's only admission slot, so this sweep
  // holds nothing in flight there when its submit is refused queue-full.
  // The refusal is backpressure: the sweep backs off, resubmits once the
  // slot frees, and returns the local run's row.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/1});
  Client other;
  other.connect(live.path());
  JobSpec held = small_job("sample");
  held.hold_ms = 300;
  ASSERT_TRUE(other.submit(held).ok);

  const std::vector<sim::MatrixJob> jobs = {small_job("count").job};
  FleetHealth fleet;
  const std::vector<RemoteResult> results =
      run_matrix_sharded({live.path()}, jobs, fast_options(), &fleet);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error << ": " << results[0].message;
  EXPECT_EQ(results[0].csv, sim::sweep_csv_row(sim::run_job(jobs[0])));
  EXPECT_EQ(fleet.points_lost, 0u);
  EXPECT_EQ(fleet.node_deaths, 0u);
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
  // So is a machine geometry the machine cannot build.
  for (const test::Geometry& g : test::kImpossibleGeometries) {
    JobSpec spec = small_job(g.bench, g.kind);
    spec.job.options = g.apply(spec.job.options);
    const Response geometry = client.submit(spec);
    ASSERT_TRUE(geometry.ok) << geometry.message;
    const Response failed = client.result(geometry.doc.u64_at("id"), true);
    ASSERT_TRUE(failed.ok) << failed.message;
    EXPECT_FALSE(failed.doc.find("run_ok")->boolean);
    EXPECT_NE(failed.doc.str_at("csv").find("config: "), std::string::npos)
        << failed.doc.str_at("csv");
    EXPECT_TRUE(client.ping().ok);
  }
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

TEST(Service, MillisecondMembersPastAWeekAreBadRequests) {
  // hold_ms, wait_ms and a job's watchdog_wall each become a deadline of
  // steady_clock::now() plus that many milliseconds: past kMaxDurationMs
  // they are typed bad requests, and at it they are accepted.
  LiveServer live(ServeConfig{"", "", /*threads=*/1, /*queue_limit=*/4});
  Client client;
  client.connect(live.path());

  JobSpec held = small_job("count");
  held.hold_ms = kMaxDurationMs + 1;
  const Response long_hold = client.submit(held);
  EXPECT_FALSE(long_hold.ok);
  EXPECT_EQ(long_hold.error, kErrBadRequest);
  EXPECT_NE(long_hold.message.find("\"hold_ms\""), std::string::npos)
      << long_hold.message;

  JobSpec walled = small_job("count");
  walled.job.options.cfg.watchdog.wall_ms = kMaxDurationMs + 1;
  const Response long_wall = client.submit(walled);
  EXPECT_FALSE(long_wall.ok);
  EXPECT_EQ(long_wall.error, kErrBadRequest);
  EXPECT_NE(long_wall.message.find("\"watchdog_wall\""), std::string::npos)
      << long_wall.message;

  held.hold_ms = kMaxDurationMs;
  held.job.options.cfg.watchdog.wall_ms = kMaxDurationMs;
  const Response sub = client.submit(held);
  ASSERT_TRUE(sub.ok) << sub.message;
  const u64 id = sub.doc.u64_at("id");
  const Response long_wait = client.result(id, true, kMaxDurationMs + 1);
  EXPECT_FALSE(long_wait.ok);
  EXPECT_EQ(long_wait.error, kErrBadRequest);
  EXPECT_NE(long_wait.message.find("\"wait_ms\""), std::string::npos)
      << long_wait.message;

  // The week-long hold is cancelled, so a wait at the bound returns at once.
  ASSERT_TRUE(client.cancel(id).ok);
  const Response done = client.result(id, true, kMaxDurationMs);
  ASSERT_TRUE(done.ok) << done.message;
  EXPECT_EQ(done.doc.str_at("state"), "cancelled");
}

TEST(Service, JobTimeoutCapsWallClockAndTypesTheError) {
  // --job-timeout-ms clamps EVERY job's wall-clock watchdog server-side,
  // snapshot verbs included: a runaway point dies with the typed job-timeout
  // error in its result row instead of pinning a thread forever. The client
  // cannot opt out.
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

  // The snapshot verb runs on the connection thread, under the same cap.
  const Response snap = client.snapshot(runaway, /*cycle=*/1);
  ASSERT_TRUE(snap.ok) << snap.message;
  EXPECT_FALSE(snap.doc.find("run_ok")->boolean);
  EXPECT_NE(snap.doc.str_at("csv").find("job-timeout"), std::string::npos);
}

}  // namespace
}  // namespace mlp::serve
