#pragma once
// Transport abstraction for the mlpserved protocol: one address grammar and
// one socket-setup path shared by the daemon, the clients and the sweep
// drivers, over two stream transports with identical framing semantics:
//
//  * AF_UNIX  — "/tmp/mlp.sock" (anything that does not parse as HOST:PORT);
//    single-host, lowest latency, filesystem permissions.
//  * AF_INET  — "HOST:PORT" ("127.0.0.1:7411", "0.0.0.0:0", "node3:7411");
//    multi-host sweeps. Port 0 binds an ephemeral port (the bound port is
//    reported back so tests and tools can discover it). Accepted and
//    connected sockets get TCP_NODELAY — the protocol is small
//    request/response frames and Nagle would serialize them behind ACKs.
//
// The u32-length-prefixed JSON framing, the typed-error vocabulary and
// protocol_version are transport-independent: read_frame/write_frame only
// ever see a connected stream fd.
//
// The transport also hosts the seeded CHAOS layer: an opt-in fault injector
// (ClientOptions::chaos, mlpsweep --chaos) that drops, delays, truncates or
// closes outgoing request frames with a per-connection decorrelated RNG (the
// same scheme as the DRAM FaultInjector), so every client-side resilience
// path — deadlines, node death, reconnect, failover re-dispatch — is
// deterministically testable without root, network namespaces, or flaky
// sleeps.

#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace mlp::serve {

struct Endpoint {
  enum class Kind : u8 { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< AF_UNIX socket path
  std::string host;  ///< AF_INET host (numeric or resolvable name)
  u16 port = 0;      ///< AF_INET port; 0 = ephemeral (listen only)
};

/// Parse an address string: "HOST:PORT" (nonempty host without '/', all-digit
/// port in [0, 65535]) is TCP; everything else is an AF_UNIX path.
Endpoint parse_endpoint(const std::string& address);

/// Canonical display form ("host:port" or the path), for diagnostics.
std::string endpoint_name(const Endpoint& endpoint);

/// Bind + listen on the endpoint; returns the listening fd. For TCP the
/// socket gets SO_REUSEADDR, and `bound_port` (optional) reports the actual
/// port — the way to discover an ephemeral ":0" binding. Throws
/// SimError("serve", ...) on resolution/bind/listen failures.
int listen_endpoint(const Endpoint& endpoint, u16* bound_port = nullptr);

/// Connect a blocking stream socket to the endpoint; returns the connected
/// fd. A dead peer is a typed SimError("serve", ...) naming the address —
/// connect-refused must be a clean per-node failure, never a crash or hang.
/// `timeout_ms` > 0 bounds the TCP handshake (non-blocking connect + poll;
/// a blackholed peer becomes a typed "timeout" error instead of the
/// kernel's minutes-long SYN retry); <= 0 keeps the blocking behaviour.
int connect_endpoint(const Endpoint& endpoint, i64 timeout_ms = 0);

/// Disable Nagle on an accepted TCP connection (the daemon side of the
/// latency story; connect_endpoint already handles the client side).
void set_tcp_nodelay(int fd);

// ---- seeded RPC chaos ------------------------------------------------------

/// What the chaos layer may do to one outgoing request frame. Rates are
/// independent probabilities evaluated in this order; at most one action
/// fires per frame.
struct ChaosConfig {
  double drop_rate = 0.0;      ///< swallow the frame (peer sees silence)
  double delay_rate = 0.0;     ///< sleep delay_ms before sending
  double truncate_rate = 0.0;  ///< send a partial frame, then close
  double close_rate = 0.0;     ///< close the connection instead of sending
  u64 delay_ms = 20;           ///< injected latency for kDelay
  u64 seed = 1;                ///< root seed; per-connection decorrelated

  bool enabled() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || truncate_rate > 0.0 ||
           close_rate > 0.0;
  }
};

/// Parse a chaos spec "drop=0.05,delay=0.1,delay-ms=20,truncate=0.01,
/// close=0.02,seed=7" (any subset of keys). Throws SimError("serve", ...)
/// on unknown keys or rates outside [0, 1].
ChaosConfig parse_chaos(const std::string& spec);

/// Per-connection chaos decision stream. Mirrors the DRAM FaultInjector:
/// each connection draws from its own decorrelated RNG
/// (seed ^ golden-ratio-mix of the connection ordinal), so injected
/// failures are reproducible for a fixed seed yet uncorrelated across
/// connections.
class ChaosInjector {
 public:
  enum class Action : u8 { kNone, kDrop, kDelay, kTruncate, kClose };

  ChaosInjector(const ChaosConfig& cfg, u64 connection_id)
      : cfg_(cfg),
        rng_(cfg.seed ^ (0xa076'1d64'78bd'642full * (connection_id + 1))) {}

  /// Decide the fate of the next outgoing frame.
  Action next() {
    const double draw = rng_.uniform();
    double acc = cfg_.drop_rate;
    if (draw < acc) return Action::kDrop;
    acc += cfg_.delay_rate;
    if (draw < acc) return Action::kDelay;
    acc += cfg_.truncate_rate;
    if (draw < acc) return Action::kTruncate;
    acc += cfg_.close_rate;
    if (draw < acc) return Action::kClose;
    return Action::kNone;
  }

  u64 delay_ms() const { return cfg_.delay_ms; }

 private:
  ChaosConfig cfg_;
  Rng rng_;
};

}  // namespace mlp::serve
