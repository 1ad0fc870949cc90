#include "serve/shard.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/prepare.hpp"

namespace mlp::serve {

ShardRing::ShardRing(std::size_t nodes) {
  MLP_SIM_CHECK(nodes > 0, "serve", "shard ring needs at least one node");
  ring_.reserve(nodes * kVirtualNodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (u32 v = 0; v < kVirtualNodes; ++v) {
      const std::string point =
          "node" + std::to_string(n) + "#" + std::to_string(v);
      ring_.emplace_back(sim::stable_hash64(point), static_cast<u32>(n));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRing::node_for(const std::string& key) const {
  const u64 hash = sim::stable_hash64(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(hash, u32{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
  return it->second;
}

namespace {

/// The sharding key: the job's prepare-cache key when it is computable. A
/// job the server would reject anyway (unknown benchmark) still needs a
/// deterministic home for its error row; its bench name stands in.
std::string shard_key(const sim::MatrixJob& job) {
  try {
    return sim::prepare_key(job);
  } catch (const SimError&) {
    return job.bench;
  }
}

u64 steady_now_ms() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One daemon's connection + sliding submit window + liveness state.
struct Node {
  std::string address;
  Client client;
  u64 window = 8;  ///< in-flight bound, sized to the node's queue_limit
  std::deque<std::pair<std::size_t, u64>> inflight;  ///< (job idx, server id)
  bool alive = false;
  std::string reason;       ///< last failure, for error rows and probes
  NodeHealth health;
  u64 backoff_ms = 0;       ///< current probe backoff
  u64 next_probe_ms = 0;    ///< steady-clock ms gating the next probe
  Rng jitter{1};            ///< desynchronizes this node's probe schedule
};

/// Connect (or reconnect) a node and size its window from the daemon's
/// admission bound. Retries ANY failure with a short sleep until
/// `window_ms` elapses — a just-launched daemon refuses its first connects
/// for a few ms, and that race must not read as node death.
bool connect_node(Node* node, i64 window_ms) {
  const u64 deadline =
      window_ms > 0 ? steady_now_ms() + static_cast<u64>(window_ms) : 0;
  for (;;) {
    try {
      node->client.connect(node->address);
      const Response status = node->client.server_status();
      const trace::JsonValue* limit = status.doc.find("queue_limit");
      if (limit != nullptr && limit->unsigned_integer > 0) {
        // Per-node window sizing: each node's admission bound, not the
        // first node's — a narrow node must not stall (or overflow) a wide
        // one.
        node->window = limit->unsigned_integer;
        node->health.window_from_status = true;
      } else {
        node->health.window_from_status = false;
        std::cerr << "[sweep] warning: node " << node->address
                  << " reported no queue_limit; keeping in-flight window "
                  << node->window << "\n";
      }
      node->health.window = node->window;
      node->alive = true;
      node->reason.clear();
      return true;
    } catch (const SimError& e) {
      node->reason = e.what();
      node->client.close();
      if (deadline == 0 || steady_now_ms() + 20 >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace

std::size_t shard_for_job(const sim::MatrixJob& job, std::size_t nodes) {
  return ShardRing(nodes).node_for(shard_key(job));
}

std::vector<RemoteResult> run_matrix_sharded(
    const std::vector<std::string>& addresses,
    const std::vector<sim::MatrixJob>& jobs, const ShardOptions& options,
    FleetHealth* health) {
  MLP_SIM_CHECK(!addresses.empty(), "serve", "no server addresses");
  std::vector<RemoteResult> results(jobs.size());
  std::vector<u32> attempts(jobs.size(), 0);
  FleetHealth fleet;
  auto tally = [&fleet](const Client& client) {
    fleet.request_timeouts += client.counts().request_timeouts;
    fleet.chaos_injected += client.counts().chaos_injected;
  };

  // Probes heal the fleet; they get a tight deadline of their own (a
  // SIGSTOPped daemon still accepts into its listen backlog, so the ping —
  // not the connect — is what detects the hang) and no chaos.
  ClientOptions probe_opts;
  probe_opts.connect_timeout_ms = static_cast<i64>(options.probe_max_ms);
  probe_opts.request_timeout_ms = static_cast<i64>(options.probe_max_ms);

  const std::size_t count = addresses.size();
  std::vector<Node> nodes(count);

  std::deque<std::size_t> pending;
  auto requeue = [&](std::size_t index, const std::string& why) {
    ++attempts[index];
    ++fleet.retries;
    if (attempts[index] > options.retry_budget) {
      results[index].error = kErrNodeLost;
      results[index].message = "retry budget (" +
                               std::to_string(options.retry_budget) +
                               ") exhausted; last loss: " + why;
      ++fleet.points_lost;
      return;
    }
    pending.push_back(index);
  };

  /// Declare a node dead and put its in-flight points back on the queue.
  auto lose_node = [&](Node* node, const std::string& reason) {
    node->alive = false;
    node->reason = reason;
    node->client.close();
    ++node->health.deaths;
    ++fleet.node_deaths;
    node->backoff_ms = std::max<u64>(options.probe_min_ms, 1);
    node->next_probe_ms = steady_now_ms() + node->backoff_ms;
    std::deque<std::pair<std::size_t, u64>> orphaned;
    orphaned.swap(node->inflight);
    for (const auto& [index, id] : orphaned) {
      requeue(index, node->address + ": " + reason);
    }
  };

  /// Fetch the node's oldest in-flight result, heartbeating through long
  /// jobs: the server parks at most ~half the request deadline and answers
  /// with a typed job-running/job-pending when the job is still in flight,
  /// so a responsive-but-busy node never trips the deadline while a hung
  /// one trips it in one period.
  auto drain_one = [&](Node* node) {
    const auto [index, id] = node->inflight.front();
    const u64 heartbeat_ms =
        options.request_timeout_ms > 0
            ? std::max<u64>(100,
                            static_cast<u64>(options.request_timeout_ms) / 2)
            : 0;
    try {
      for (;;) {
        const Response r = node->client.result(id, /*wait=*/true,
                                               heartbeat_ms);
        if (r.ok) {
          node->inflight.pop_front();
          decode_result_response(r, &results[index]);
          ++node->health.jobs_completed;
          return;
        }
        if (r.error == kErrJobRunning || r.error == kErrJobPending) {
          continue;  // heartbeat: the job is slow but the node is alive
        }
        // The job is unfetchable HERE (e.g. the daemon restarted and lost
        // it) but the node answers — re-dispatch the point, keep the node.
        node->inflight.pop_front();
        requeue(index, node->address + ": " + r.error + ": " + r.message);
        return;
      }
    } catch (const SimError& e) {
      lose_node(node, e.what());
    }
  };

  /// Probe dead nodes and re-admit the ones that resurrected. `force`
  /// ignores the backoff gate (used when the whole fleet looks dead).
  auto probe_dead = [&](bool force) {
    for (Node& node : nodes) {
      if (node.alive) continue;
      const u64 now = steady_now_ms();
      if (!force && now < node.next_probe_ms) continue;
      bool daemon_up = false;
      {
        Client probe(probe_opts);
        try {
          probe.connect(node.address);
          daemon_up = probe.ping().ok;
        } catch (const SimError&) {
          // Refused, reset or timed out: the node stays down.
        }
        tally(probe);
      }
      if (daemon_up &&
          connect_node(&node, static_cast<i64>(options.probe_max_ms))) {
        ++node.health.reconnects;
        ++fleet.reconnects;
        continue;
      }
      // Still down: back off exponentially with ±50% jitter so a fleet of
      // probers does not re-synchronize against a flapping daemon.
      node.backoff_ms = std::min(
          options.probe_max_ms,
          std::max<u64>(1, node.backoff_ms) * 2);
      node.next_probe_ms =
          steady_now_ms() + static_cast<u64>(static_cast<double>(
                                node.backoff_ms) *
                            (0.5 + node.jitter.uniform()));
    }
  };

  /// Place one point on `node`: make a window slot, submit, and convert any
  /// transport loss into a re-dispatch. queue-full is the node's
  /// backpressure, never an error row: free one of this sweep's slots there
  /// or, holding none (other clients fill the node), back off in place and
  /// resubmit.
  auto place_point = [&](Node* node, std::size_t index) {
    while (node->alive && node->inflight.size() >= node->window) {
      drain_one(node);
    }
    if (!node->alive) {
      requeue(index, node->address + ": " + node->reason);
      return;
    }
    u64 backoff_ms = options.probe_min_ms;
    try {
      for (;;) {
        const Response r = node->client.submit(JobSpec{jobs[index], 0});
        if (r.ok) {
          node->inflight.emplace_back(index, r.doc.u64_at("id"));
          return;
        }
        if (r.error == kErrQueueFull) {
          if (node->inflight.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
            backoff_ms = std::min(options.probe_max_ms,
                                  std::max<u64>(1, backoff_ms) * 2);
          } else {
            drain_one(node);
          }
          if (!node->alive) {
            requeue(index, node->address + ": " + node->reason);
            return;
          }
          continue;
        }
        if (r.error == kErrShuttingDown) {
          // A graceful drain is a typed response, not a transport error,
          // but the node is leaving the fleet all the same.
          lose_node(node, "server is draining (shutting-down)");
          requeue(index, node->address + ": shutting-down");
          return;
        }
        // Deterministic per-job rejection (bad-request, ...): no node will
        // accept this job, so it becomes an error row, not a retry.
        results[index].error = r.error;
        results[index].message = r.message;
        return;
      }
    } catch (const SimError& e) {
      lose_node(node, e.what());
      requeue(index, node->address + ": " + e.what());
    }
  };

  // ---- initial fleet bring-up ----
  for (std::size_t n = 0; n < count; ++n) {
    Node& node = nodes[n];
    node.address = addresses[n];
    node.health.address = addresses[n];
    node.health.window = node.window;
    node.jitter.reseed(0x5eed'f1ee'7000'0000ull + n);
    ClientOptions copts;
    copts.connect_timeout_ms = options.connect_timeout_ms;
    copts.request_timeout_ms = options.request_timeout_ms;
    copts.chaos = options.chaos;
    // Per-node chaos streams: decorrelated by node index here and by
    // connection ordinal inside the client.
    copts.chaos.seed ^= 0x9e37'79b9'7f4a'7c15ull * (n + 1);
    node.client.set_options(copts);
    // Nothing is in flight yet, so a failed bring-up requeues nothing.
    if (!connect_node(&node, options.connect_timeout_ms)) {
      lose_node(&node, node.reason);
    }
  }

  const ShardRing ring(count);
  std::vector<std::size_t> home(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    home[i] = ring.node_for(shard_key(jobs[i]));
    pending.push_back(i);
  }

  auto any_inflight = [&] {
    for (const Node& node : nodes) {
      if (!node.inflight.empty()) return true;
    }
    return false;
  };
  auto choose_node = [&](std::size_t index) -> Node* {
    for (std::size_t k = 0; k < count; ++k) {
      Node& node = nodes[(home[index] + k) % count];
      if (!node.alive) continue;
      if (k != 0) ++fleet.failovers;
      return &node;
    }
    return nullptr;
  };

  // ---- main loop: place pending points, drain in-flight results ----
  while (!pending.empty() || any_inflight()) {
    probe_dead(/*force=*/false);
    if (pending.empty()) {
      // Nothing left to place: drain whichever node still owes results.
      // Node loss during the drain refills `pending`, so the loop re-enters
      // placement naturally.
      for (Node& node : nodes) {
        if (node.alive && !node.inflight.empty()) {
          drain_one(&node);
          break;
        }
      }
      continue;
    }
    const std::size_t index = pending.front();
    Node* node = choose_node(index);
    if (node == nullptr) {
      // The whole fleet looks dead — give every node one immediate probe
      // before giving up on the remaining points.
      probe_dead(/*force=*/true);
      node = choose_node(index);
    }
    if (node == nullptr) {
      // No node means NO node — every remaining point meets the same fate;
      // fail them in one sweep instead of re-probing per point.
      const Node& h = nodes[home[index]];
      const std::string message =
          "every node is dead; last loss on " + h.address + ": " + h.reason;
      for (const std::size_t j : pending) {
        results[j].error = kErrNodeLost;
        results[j].message = message;
        ++fleet.points_lost;
      }
      pending.clear();
      continue;
    }
    pending.pop_front();
    place_point(node, index);
  }

  // ---- health report ----
  for (const Node& node : nodes) {
    tally(node.client);
    fleet.nodes.push_back(node.health);
  }
  if (health != nullptr) *health = fleet;
  return results;
}

}  // namespace mlp::serve
