#pragma once
// Multi-node sweep sharding: fan one (arch × bench × config) grid across
// several mlpserved daemons and merge the results back into submission
// order, byte-identical to a single local run.
//
// Placement is a consistent-hash ring over the jobs' PREPARE-CACHE keys
// (bench / records / rows / seed / record_barrier / slab_layout — see
// sim::prepare_key): every job sharing preparation artifacts lands on the
// same node, so each node's PrepareCache sees the same 8×-deduplicated
// working set it would serve alone, and repeated grids stay warm per node.
// The ring hashes node INDEX (not address), so the assignment depends only
// on the node count and list order — deterministic across runs, and adding
// a node moves only the keys that fall to its virtual points.
//
// The sweep is SELF-HEALING, with one policy taken only from ShardOptions.
// Each node gets its own connection and its own sliding in-flight window
// sized to that node's admission bound. A node's queue-full is backpressure,
// never an error: the sweep frees one of its own slots there, or, holding
// none, backs off in place and resubmits. A node that dies mid-sweep —
// connection refused, reset, mid-frame close, or a request-deadline trip on
// a hung peer — loses nothing but time: its submitted-but-unfetched points
// are RE-DISPATCHED to the next surviving node on the ring (bounded by a
// per-point retry budget), dead nodes are probed with exponentially
// backed-off pings and re-admitted when they resurrect, and only when every
// node is dead or a point's budget is exhausted does a typed `node-lost`
// error row appear. Because jobs are pure functions of their spec and
// results merge by submission index, a sweep that failed over is
// byte-identical to one that never saw a fault.

#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/health.hpp"

namespace mlp::serve {

/// Typed kind reported for jobs lost to node failure: every node dead, or
/// the point's retry budget exhausted.
inline constexpr char kErrNodeLost[] = "node-lost";

/// Consistent-hash ring: `nodes` members, `kVirtualNodes` points each.
class ShardRing {
 public:
  explicit ShardRing(std::size_t nodes);

  /// Node index owning `key` (the first ring point at or after the key's
  /// hash, wrapping). Pure function of (key, node count): same grid, same
  /// assignment, every run.
  std::size_t node_for(const std::string& key) const;

  static constexpr u32 kVirtualNodes = 64;

 private:
  std::vector<std::pair<u64, u32>> ring_;  ///< (point, node), sorted
};

/// Shard index of one job: its prepare key hashed onto an `nodes`-member
/// ring. Exposed for tests and for predicting CI grid placement.
std::size_t shard_for_job(const sim::MatrixJob& job, std::size_t nodes);

/// Resilience policy for one sharded sweep.
struct ShardOptions {
  /// Initial-connect window per node in ms: a just-launched daemon that
  /// refuses the first connect is retried with a short backoff until this
  /// elapses (also the per-attempt TCP handshake bound). <= 0 disables the
  /// retry window AND the handshake bound (single blocking attempt).
  i64 connect_timeout_ms = 5000;
  /// Whole-roundtrip deadline per request in ms; a trip marks the node dead
  /// (a hung node is indistinguishable from — and treated as — a crashed
  /// one). Long jobs stay safe: result waits are bounded server-side and
  /// answered with typed heartbeats well inside this deadline. <= 0
  /// disables deadlines (a hung node then hangs the sweep; only for
  /// debugging).
  i64 request_timeout_ms = 30000;
  /// How many times one point may be re-dispatched after a node loss before
  /// it becomes a typed error row.
  u32 retry_budget = 3;
  /// Dead-node probe backoff: first probe after ~probe_min_ms, doubling
  /// (with ±50% jitter) to at most probe_max_ms. probe_max_ms also bounds
  /// the probe ping itself, so a SIGSTOPped daemon whose listener still
  /// accepts cannot wedge the prober. A queue-full node this sweep holds no
  /// slot on is resubmitted on the same schedule, without jitter.
  u64 probe_min_ms = 50;
  u64 probe_max_ms = 2000;
  /// Outgoing-frame chaos injection (see serve/transport.hpp); off unless
  /// set. Each node's stream is seeded from chaos.seed and the node's index.
  /// Probe pings are exempt — chaos exercises the RPC path, not the healing
  /// path.
  ChaosConfig chaos;
};

/// Fan `jobs` across the daemons at `addresses` (AF_UNIX paths or
/// HOST:PORT) and return per-job results in submission order, healing
/// around node failure per `options`. `health` (optional) receives the
/// sweep's degradation report. The call itself only throws on misuse (no
/// addresses).
std::vector<RemoteResult> run_matrix_sharded(
    const std::vector<std::string>& addresses,
    const std::vector<sim::MatrixJob>& jobs,
    const ShardOptions& options = ShardOptions{},
    FleetHealth* health = nullptr);

}  // namespace mlp::serve
