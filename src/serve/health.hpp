#pragma once
// Fleet-health accounting for the self-healing sweep client: the report
// run_matrix_sharded fills for ONE sweep — how degraded the run was
// (retries, failovers, lost points, plus the request timeouts and chaos
// actions its node and probe clients counted) and each node's share of the
// work. mlpsweep prints it on stderr and, behind --fleet-stats, appends it
// to the stats-JSON document footer.

#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/json.hpp"

namespace mlp::serve {

/// One node's share of a sharded sweep.
struct NodeHealth {
  std::string address;
  u64 jobs_completed = 0;  ///< results fetched from this node
  u64 deaths = 0;          ///< times this node was declared dead
  u64 reconnects = 0;      ///< times a probe re-admitted it
  u64 window = 0;          ///< in-flight window the sweep actually used
  bool window_from_status = false;  ///< sized from queue_limit vs. fallback
};

/// How degraded one sharded sweep was. All-zero (except windows) on a
/// healthy run.
struct FleetHealth {
  u64 retries = 0;          ///< point re-dispatches after a node loss
  u64 failovers = 0;        ///< points that ran off their home ring node
  u64 reconnects = 0;       ///< node re-admissions
  u64 node_deaths = 0;      ///< node-death events (a node can die repeatedly)
  u64 request_timeouts = 0; ///< request deadlines tripped
  u64 chaos_injected = 0;   ///< chaos actions fired during the sweep
  u64 points_lost = 0;      ///< points that became error rows
  std::vector<NodeHealth> nodes;

  bool degraded() const {
    return retries != 0 || failovers != 0 || reconnects != 0 ||
           node_deaths != 0 || request_timeouts != 0 || points_lost != 0;
  }
};

/// The FleetHealth as a JSON object (for the --fleet-stats footer and
/// tests). Deterministic member order.
inline std::string fleet_health_json(const FleetHealth& health) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("retries");
  w.value(health.retries);
  w.key("failovers");
  w.value(health.failovers);
  w.key("reconnects");
  w.value(health.reconnects);
  w.key("node_deaths");
  w.value(health.node_deaths);
  w.key("request_timeouts");
  w.value(health.request_timeouts);
  w.key("chaos_injected");
  w.value(health.chaos_injected);
  w.key("points_lost");
  w.value(health.points_lost);
  w.key("nodes");
  w.begin_array();
  for (const NodeHealth& node : health.nodes) {
    w.begin_object();
    w.key("address");
    w.value(node.address);
    w.key("jobs_completed");
    w.value(node.jobs_completed);
    w.key("deaths");
    w.value(node.deaths);
    w.key("reconnects");
    w.value(node.reconnects);
    w.key("window");
    w.value(node.window);
    w.key("window_from_status");
    w.value(node.window_from_status);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace mlp::serve
