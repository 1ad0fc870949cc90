#pragma once
// Client side of the mlpserved protocol: a blocking connection wrapper plus
// typed helpers for each request. Grids run through serve/shard.hpp's
// run_matrix_sharded, on one address or several.

#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace mlp::serve {

/// Per-connection policy knobs. The defaults preserve the original
/// behaviour (block until connect/response) except that TCP connects get a
/// sane handshake bound instead of the kernel's minutes-long SYN retry.
struct ClientOptions {
  /// TCP handshake deadline in ms; <= 0 blocks (AF_UNIX connects resolve
  /// synchronously either way).
  i64 connect_timeout_ms = 5000;
  /// Whole-roundtrip deadline in ms (request write + response read); <= 0
  /// disables it. A trip throws SimError("timeout", ...) and POISONS the
  /// connection (the half-exchange on the wire is undecodable), so the
  /// client closes it — callers treat this exactly like a dead peer.
  i64 request_timeout_ms = 0;
  /// Outgoing-frame chaos; defaults to the MLP_CHAOS environment variable
  /// so any tool can be chaos-tested without new plumbing.
  ChaosConfig chaos = chaos_from_env();
};

/// One connection to a daemon. Requests are strictly sequential
/// (request/response lock-step); open several Clients for concurrency.
class Client {
 public:
  Client() = default;
  explicit Client(const ClientOptions& options) : options_(options) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to a daemon address — an AF_UNIX path or "HOST:PORT" for TCP
  /// (see serve/transport.hpp for the grammar). Throws SimError("serve",
  /// ...) when the daemon is absent, refuses, or the address is invalid,
  /// SimError("timeout", ...) when the handshake deadline expires.
  void connect(const std::string& address);
  bool connected() const { return fd_ >= 0; }
  void close();

  const ClientOptions& options() const { return options_; }
  void set_options(const ClientOptions& options) { options_ = options; }

  /// One request/response round trip; throws SimError("serve", ...) if the
  /// connection drops mid-exchange, SimError("timeout", ...) if the
  /// request deadline expires first (the connection is closed either way).
  Response roundtrip(const std::string& request);

  // Typed helpers (thin wrappers over roundtrip).
  Response ping();
  Response submit(const JobSpec& spec);
  Response server_status();
  Response job_status(u64 id);
  Response result(u64 id, bool wait);
  /// Bounded result wait: the server answers within ~wait_ms with either
  /// the result or a typed job-running/job-pending heartbeat.
  Response result(u64 id, bool wait, u64 wait_ms);
  Response cancel(u64 id);
  Response shutdown();
  /// Protocol v2: capture the job's quiesce-drained state at the first
  /// quiescent cycle >= `cycle` into the daemon's snapshot cache / finish
  /// the job from that cached snapshot (typed no-such-snapshot on a miss).
  Response snapshot(const JobSpec& spec, u64 cycle);
  Response restore(const JobSpec& spec, u64 cycle);

 private:
  int fd_ = -1;
  ClientOptions options_;
  /// Armed at connect when options_.chaos is enabled; one decision stream
  /// per connection, decorrelated by a global connection ordinal.
  std::optional<ChaosInjector> chaos_;
};

/// One remote job's outcome, in submission order.
struct RemoteResult {
  bool ok = false;        ///< the protocol exchange succeeded
  bool run_ok = false;    ///< the simulation itself completed and verified
  bool cache_hit = false;
  std::string csv;             ///< sim::sweep_csv_row line (server-rendered)
  std::string stats_run_json;  ///< sim::stats_json_run object
  std::string error;           ///< typed kind when the SUBMISSION failed
  std::string message;
};

/// Decode an ok result response into a RemoteResult.
void decode_result_response(const Response& r, RemoteResult* out);

}  // namespace mlp::serve
