// mlpserved — persistent simulation service. Listens on a Unix-domain
// socket, executes submitted (architecture, benchmark, config) jobs on an
// in-process thread pool, and keeps preparation artifacts (assembled
// kernels, generated record sets, initial DRAM images, golden references)
// warm in an LRU cache across jobs — repeated sweeps skip preparation
// entirely. Submissions beyond the admission bound are rejected with a
// typed queue-full error; SIGTERM/SIGINT drain gracefully (in-flight jobs
// finish under their per-job watchdog).
//
//   mlpserved --socket /tmp/mlp.sock --threads 8 &
//   mlpclient --socket /tmp/mlp.sock run --arch millipede --bench count

#include <signal.h>

#include <cstdio>
#include <string>

#include "argparse.hpp"
#include "serve/server.hpp"

namespace {

using namespace mlp;

void usage() {
  std::printf(R"(mlpserved — persistent simulation service

  --socket PATH      Unix-domain socket to listen on
  --listen HOST:PORT TCP address to listen on (port 0 = ephemeral; the
                     bound port is printed on stderr). May be combined
                     with --socket; at least one endpoint is required
  --threads N        simulation worker threads (default: all hw threads)
  --queue-limit N    max jobs queued or running at once; further submits
                     are rejected with a typed queue-full error
                     (default 64)
  --cache-entries N  warm prepare-cache capacity, LRU-evicted (default 64)
  --snapshot-entries N  snapshot-blob cache capacity for the protocol v2
                     snapshot/restore verbs, LRU-evicted (default 16).
                     Blobs never cross the wire; a restore of an evicted
                     key is a typed no-such-snapshot error
  --job-timeout-ms N wall-clock budget per job; a job still running after
                     N ms is cancelled by its watchdog and reports a typed
                     job-timeout error (default 0 = unlimited). Catches
                     hangs the cycle watchdog cannot see
  --version          print the toolchain version

Protocol: length-prefixed JSON frames; requests ping / submit / status /
result / cancel / shutdown, plus the version-gated snapshot / restore verbs
(see docs/ARCHITECTURE.md). SIGTERM and SIGINT
drain: queued and running jobs complete, their results stay fetchable
until the last connection closes, then the daemon exits.
)");
}

serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig cfg;

  tools::ArgCursor args(argc, argv);
  while (args.next()) {
    if (args.is("--help") || args.is("-h")) {
      usage();
      return 0;
    } else if (args.is("--version")) {
      tools::print_version("mlpserved");
      return 0;
    } else if (args.is("--socket")) {
      cfg.socket_path = args.value();
    } else if (args.is("--listen")) {
      cfg.listen_address = args.value();
    } else if (args.is("--threads")) {
      cfg.threads = tools::parse_u32(args.flag(), args.value(), /*min=*/1);
    } else if (args.is("--queue-limit")) {
      cfg.queue_limit = tools::parse_u64(args.flag(), args.value(), /*min=*/1);
    } else if (args.is("--cache-entries")) {
      cfg.cache_entries = tools::parse_u64(args.flag(), args.value(),
                                           /*min=*/1);
    } else if (args.is("--snapshot-entries")) {
      cfg.snapshot_entries = tools::parse_u64(args.flag(), args.value(),
                                              /*min=*/1);
    } else if (args.is("--job-timeout-ms")) {
      cfg.job_timeout_ms = tools::parse_ms(args.flag(), args.value());
    } else {
      return tools::unknown_flag(args.flag());
    }
  }
  if (cfg.socket_path.empty() && cfg.listen_address.empty()) {
    std::fprintf(stderr,
                 "mlpserved: --socket PATH or --listen HOST:PORT is "
                 "required\n");
    return 2;
  }

  serve::Server server(cfg);
  try {
    server.listen();
  } catch (const SimError& e) {
    std::fprintf(stderr, "mlpserved: %s\n", e.what());
    return 1;
  }

  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = handle_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dropped clients must not kill the daemon

  if (!cfg.socket_path.empty()) {
    std::fprintf(stderr, "mlpserved: listening on %s\n",
                 cfg.socket_path.c_str());
  }
  if (!cfg.listen_address.empty()) {
    std::fprintf(stderr, "mlpserved: listening on %s\n",
                 server.tcp_address().c_str());
  }
  server.run();
  const serve::ServerStatus final = server.status();
  std::fprintf(stderr,
               "mlpserved: drained (%llu done, %llu cancelled; cache %llu "
               "hits / %llu misses)\n",
               static_cast<unsigned long long>(final.done),
               static_cast<unsigned long long>(final.cancelled),
               static_cast<unsigned long long>(final.cache.hits),
               static_cast<unsigned long long>(final.cache.misses));
  return 0;
}
