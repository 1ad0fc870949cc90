// service_bench — concurrency/latency load harness for the mlpserved
// protocol: hammers one daemon with many concurrent client connections
// running a deterministic mixed request script (submit, status poll,
// result-wait, cancel, snapshot/restore) and reports throughput plus
// per-request latency percentiles. By default the daemon runs in-process on an ephemeral TCP
// port so one binary is the whole benchmark; --connect targets an external
// daemon (any transport) instead.
//
// The request script is a pure function of (client index, round), so the
// protocol-level tallies — submits, fetched results, deterministic cancel
// outcomes — are bit-identical across runs and machines; scripts/
// bench_gate.py gates on them exactly, while wall-clock numbers (jobs/sec,
// p50/p99) are trajectory-gated with a tolerance.
//
//   service_bench --profile smoke --json    # CI: reduced load, gate input
//   service_bench                           # full profile, human table
//   service_bench --connect host:7411       # load an external daemon

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/json.hpp"

namespace {

using namespace mlp;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string profile = "full";
  u32 clients = 0;   // 0 = profile default
  u32 rounds = 0;    // request-script rounds per client; 0 = profile default
  u32 threads = 2;   // in-process server workers
  u64 queue_limit = 64;
  u64 records = 256;  // tiny jobs: the protocol, not the simulator, is under test
  std::string connect;  // external daemon address; empty = in-process
  bool json = false;
};

/// Protocol-level tallies. All but `requests` are pure functions of
/// (clients, rounds) — queue-full retries never alter them — and are gated
/// exactly by bench_gate.py; `requests` counts every roundtrip including
/// scheduling-dependent retries, so it is reported as info, not gated.
struct Tallies {
  u64 requests = 0;        ///< total roundtrips issued (incl. retries)
  u64 submits = 0;         ///< submit requests that were finally admitted
  u64 results_done = 0;    ///< result-wait fetches that returned state=done
  u64 cancels_job_done = 0;  ///< cancels of finished jobs (typed job-done)
  u64 pings = 0;
  u64 statuses = 0;
  u64 snapshots_captured = 0;  ///< snapshot verbs that captured a blob
  u64 restores_done = 0;       ///< restore verbs that finished from a blob

  void add(const Tallies& other) {
    requests += other.requests;
    submits += other.submits;
    results_done += other.results_done;
    cancels_job_done += other.cancels_job_done;
    pings += other.pings;
    statuses += other.statuses;
    snapshots_captured += other.snapshots_captured;
    restores_done += other.restores_done;
  }
};

/// Nondeterministic observations (reported, never gated): backpressure
/// retries depend on thread scheduling.
std::atomic<u64> g_queue_full_retries{0};

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

sim::MatrixJob bench_job(const Options& opt) {
  sim::MatrixJob job;
  job.kind = arch::ArchKind::kMillipede;
  job.bench = "count";
  job.tag = "service_bench";
  job.options.records = opt.records;
  return job;
}

/// One client's deterministic script: `rounds` rounds, each a small request
/// burst chosen by (client + round) % 5. Every submitted job's result is
/// fetched with wait=true before the next round, so a client holds at most
/// one admission slot and a queue-full rejection always resolves by retry.
Tallies run_client(const Options& opt, const std::string& address, u32 client,
                   std::vector<double>* latencies_ms) {
  Tallies t;
  serve::Client c;
  c.connect(address);

  const auto timed = [&](auto&& fn) {
    const auto start = Clock::now();
    const serve::Response r = fn();
    latencies_ms->push_back(elapsed_ms(start));
    ++t.requests;
    return r;
  };

  const auto submit_admitted = [&]() -> u64 {
    const serve::JobSpec spec{bench_job(opt), 0};
    u64 backoff_ms = 1;
    for (;;) {
      const serve::Response r = timed([&] { return c.submit(spec); });
      if (r.ok) {
        ++t.submits;
        return r.doc.u64_at("id");
      }
      if (r.error == serve::kErrQueueFull) {
        // Backpressure: back off exponentially — when clients outnumber the
        // admission bound 16:1, eager 1 ms retries from every rejected
        // client starve the workers whose progress would free the slots.
        g_queue_full_retries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min<u64>(backoff_ms * 2, 64);
        continue;
      }
      std::fprintf(stderr, "service_bench: submit failed: %s: %s\n",
                   r.error.c_str(), r.message.c_str());
      std::exit(1);
    }
  };

  const auto fetch_done = [&](u64 id) {
    const serve::Response r =
        timed([&] { return c.result(id, /*wait=*/true); });
    if (r.ok && r.doc.str_at("state") == "done") ++t.results_done;
  };

  for (u32 round = 0; round < opt.rounds; ++round) {
    switch ((client + round) % 5) {
      case 0:
      case 1: {  // the common path: submit, then block on the result
        fetch_done(submit_admitted());
        break;
      }
      case 2: {  // observability path: ping + server status
        if (timed([&] { return c.ping(); }).ok) ++t.pings;
        if (timed([&] { return c.server_status(); }).ok) ++t.statuses;
        break;
      }
      case 3: {  // cancel path: cancelling a FINISHED job is deterministic
        const u64 id = submit_admitted();
        fetch_done(id);
        const serve::Response r = timed([&] { return c.cancel(id); });
        if (!r.ok && r.error == serve::kErrJobDone) ++t.cancels_job_done;
        break;
      }
      case 4: {  // protocol v2 path: capture at cycle 1 (always quiescent
                 // before the first edge, so the capture is deterministic),
                 // then finish the same job from the cached warm blob
        const serve::JobSpec spec{bench_job(opt), 0};
        const serve::Response s = timed([&] { return c.snapshot(spec, 1); });
        const trace::JsonValue* captured = s.doc.find("captured");
        if (s.ok && captured != nullptr && captured->boolean) {
          ++t.snapshots_captured;
        }
        const serve::Response r = timed([&] { return c.restore(spec, 1); });
        const trace::JsonValue* run_ok = r.doc.find("run_ok");
        if (r.ok && run_ok != nullptr && run_ok->boolean) ++t.restores_done;
        break;
      }
    }
  }
  return t;
}

void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

double percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0;
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms->size() - 1) / 100.0 + 0.5);
  return (*sorted_ms)[std::min(index, sorted_ms->size() - 1)];
}

void print_json(const Options& opt, const Tallies& t, double wall_ms,
                double p50, double p99, double jobs_per_sec,
                double requests_per_sec) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("bench-trajectory");
  w.key("schema_version");
  w.value(u64{1});
  w.key("benchmark");
  w.value("service_bench");
  w.key("config");
  w.begin_object();
  w.key("profile");
  w.value(opt.profile);
  w.key("clients");
  w.value(u64{opt.clients});
  w.key("rounds");
  w.value(u64{opt.rounds});
  w.key("threads");
  w.value(u64{opt.threads});
  w.key("queue_limit");
  w.value(opt.queue_limit);
  w.key("records");
  w.value(opt.records);
  w.key("transport");
  w.value(opt.connect.empty() ? "tcp-inprocess" : "external");
  w.end_object();
  w.key("counters");
  w.begin_object();
  w.key("protocol_version");
  w.value(u64{serve::kProtocolVersion});
  w.key("submits");
  w.value(t.submits);
  w.key("results_done");
  w.value(t.results_done);
  w.key("cancels_job_done");
  w.value(t.cancels_job_done);
  w.key("pings");
  w.value(t.pings);
  w.key("statuses");
  w.value(t.statuses);
  w.key("snapshots_captured");
  w.value(t.snapshots_captured);
  w.key("restores_done");
  w.value(t.restores_done);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  w.key("jobs_per_sec");
  w.value(jobs_per_sec);
  w.end_object();
  w.key("info");
  w.begin_object();
  w.key("requests");
  w.value(t.requests);
  w.key("requests_per_sec");
  w.value(requests_per_sec);
  w.key("wall_ms");
  w.value(wall_ms);
  w.key("p50_ms");
  w.value(p50);
  w.key("p99_ms");
  w.value(p99);
  w.key("queue_full_retries");
  w.value(g_queue_full_retries.load());
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--profile") {
      opt.profile = next();
    } else if (arg == "--clients") {
      opt.clients = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--rounds") {
      opt.rounds = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--threads") {
      opt.threads = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--queue-limit") {
      opt.queue_limit = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--records") {
      opt.records = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--connect") {
      opt.connect = next();
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "service_bench — mlpserved protocol load harness\n"
          "  --profile smoke|full   preset load shape (default full:\n"
          "                         1024 clients x 8 rounds; smoke: 32 x 8)\n"
          "  --clients N            override concurrent client connections\n"
          "  --rounds N             override request-script rounds/client\n"
          "  --threads N            in-process server workers (default 2)\n"
          "  --queue-limit N        in-process admission bound (default 64)\n"
          "  --records N            records per submitted job (default 256)\n"
          "  --connect ADDR         external daemon (Unix path or HOST:PORT)\n"
          "  --json                 bench-trajectory JSON for bench_gate.py\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (opt.profile == "smoke") {
    if (opt.clients == 0) opt.clients = 32;
    if (opt.rounds == 0) opt.rounds = 8;
  } else if (opt.profile == "full") {
    if (opt.clients == 0) opt.clients = 1024;
    if (opt.rounds == 0) opt.rounds = 8;
  } else {
    std::fprintf(stderr, "unknown profile %s (smoke|full)\n",
                 opt.profile.c_str());
    return 2;
  }
  raise_fd_limit();

  // In-process daemon on an ephemeral TCP port unless --connect names one.
  std::unique_ptr<serve::Server> server;
  std::thread server_thread;
  std::string address = opt.connect;
  if (address.empty()) {
    serve::ServeConfig cfg;
    cfg.listen_address = "127.0.0.1:0";
    cfg.threads = opt.threads;
    cfg.queue_limit = opt.queue_limit;
    server = std::make_unique<serve::Server>(cfg);
    server->listen();
    server_thread = std::thread([&] { server->run(); });
    address = server->tcp_address();
  }
  std::fprintf(stderr,
               "service_bench: %u clients x %u rounds against %s\n",
               opt.clients, opt.rounds, address.c_str());

  std::vector<Tallies> tallies(opt.clients);
  std::vector<std::vector<double>> latencies(opt.clients);
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  const auto start = Clock::now();
  for (u32 c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        tallies[c] = run_client(opt, address, c, &latencies[c]);
      } catch (const SimError& e) {
        std::fprintf(stderr, "service_bench: client %u: %s\n", c, e.what());
        std::exit(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = elapsed_ms(start);

  if (server != nullptr) {
    server->request_stop();
    server_thread.join();
  }

  Tallies total;
  std::vector<double> all_ms;
  for (u32 c = 0; c < opt.clients; ++c) {
    total.add(tallies[c]);
    all_ms.insert(all_ms.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  const double p50 = percentile(&all_ms, 50);
  const double p99 = percentile(&all_ms, 99);
  const double jobs_per_sec =
      static_cast<double>(total.submits) / (wall_ms / 1000.0);
  const double requests_per_sec =
      static_cast<double>(total.requests) / (wall_ms / 1000.0);

  if (opt.json) {
    print_json(opt, total, wall_ms, p50, p99, jobs_per_sec, requests_per_sec);
    return 0;
  }
  std::printf("profile,clients,rounds,requests,submits,results_done,"
              "cancels_job_done,pings,statuses,snapshots_captured,"
              "restores_done,wall_ms,p50_ms,p99_ms,"
              "jobs_per_sec,requests_per_sec\n");
  std::printf("%s,%u,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.1f,%.2f,"
              "%.2f,%.1f,%.1f\n",
              opt.profile.c_str(), opt.clients, opt.rounds,
              static_cast<unsigned long long>(total.requests),
              static_cast<unsigned long long>(total.submits),
              static_cast<unsigned long long>(total.results_done),
              static_cast<unsigned long long>(total.cancels_job_done),
              static_cast<unsigned long long>(total.pings),
              static_cast<unsigned long long>(total.statuses),
              static_cast<unsigned long long>(total.snapshots_captured),
              static_cast<unsigned long long>(total.restores_done),
              wall_ms, p50, p99, jobs_per_sec, requests_per_sec);
  return 0;
}
