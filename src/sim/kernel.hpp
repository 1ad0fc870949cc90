#pragma once
// The shared two-domain simulation kernel. Every architecture model wires
// its components (a corelet array or an SM on the compute domain; prefetch
// buffer, caches and the channel demux on the DRAM-channel domain) onto one
// SimulationKernel and calls run(); the kernel owns the step loop:
//
//  * two ClockDomains advanced in global time order (compute edge first on
//    ties), honoring mid-run compute retunes by Millipede's DFS rate
//    matcher (which holds a pointer to compute_clock());
//  * the forward-progress watchdog, stepped once per edge;
//  * trace wiring (process/track/gauge registration), the interval
//    sampler's tick_compute hook and the closing finish_run;
//  * activity-driven scheduling (sim/tickable.hpp): at each edge only the
//    units whose posted wake has come are ticked, in registration order;
//    every other unit is charged what its tick would have counted at that
//    edge, in bulk and with its state at that edge. Whenever neither
//    domain's next edge has a due unit, both clocks jump to the earliest
//    posted wake, clamped at interval-sampler edges and at the watchdog's
//    trip point. Backpressure parks a refused requester until its backend
//    frees a slot (mem/req.hpp), so a full controller queue costs nothing
//    per edge.
//
// MachineConfig::fast_forward = false (--no-fast-forward) instead ticks
// every unit at every edge: the poll oracle that kernel_test and the CI
// equivalence steps hold every counter, trace event and timeline to.

#include <functional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/watchdog.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::sim {

class SimulationKernel {
 public:
  /// `watchdog_arch` labels watchdog trips; `trace` may be null. The clock
  /// periods, watchdog limits, DRAM bank count (for trace track names) and
  /// the fast-forward switch all come from `cfg`.
  SimulationKernel(const MachineConfig& cfg, std::string watchdog_arch,
                   trace::TraceSession* trace);

  /// Registration order is tick order within a domain (the channel tick
  /// order is architecture-defined: e.g. prefetch buffer before the
  /// controller, L1s before L2s before the controller).
  void add_compute(Tickable* component) { compute_units_.add(component); }
  void add_channel(Tickable* component) { channel_units_.add(component); }

  /// The compute domain, for Millipede's rate matcher (DFS retunes the
  /// period mid-run) and for tests.
  ClockDomain* compute_clock() { return &compute_; }

  /// Lazy machine-state snapshot attached to a watchdog trip's SimError.
  void set_dump(std::function<std::string()> dump) { dump_ = std::move(dump); }

  /// Monotonic progress signature (instructions retired + DRAM bytes moved)
  /// feeding the watchdog, read once per processed edge. Required before
  /// run().
  void set_progress(std::function<u64()> progress) {
    progress_ = std::move(progress);
  }

  /// One-stop trace registration reproducing the pre-kernel per-arch layout:
  /// begin_run(process_name, stats), then `name_tracks` (per-context or
  /// per-warp tracks), the DRAM bank tracks (one per channel x rank x bank;
  /// the flat "dram.bank<b>" names when the hierarchy is 1x1), `arch_hook`
  /// (arch-specific tracks and gauges, e.g. pb/rate), the watchdog track,
  /// and finally the "dram.queue", optional "dram.refresh" (pass an empty
  /// function when refresh is off so default timelines keep their columns)
  /// and "clock.period_ps" gauges. No-op without a trace session; either
  /// hook may be empty.
  void wire_trace(const std::string& process_name, const StatSet* stats,
                  const std::function<void(trace::TraceSession*)>& name_tracks,
                  const std::function<void(trace::TraceSession*)>& arch_hook,
                  std::function<u64()> dram_queue,
                  std::function<u64()> dram_refresh = {});

  // ---- mid-run checkpoints (sim/snapshot.hpp) ----

  /// Register a stateful component's snapshot section. The kernel's own
  /// sections come first (meta, clocks and watchdog, the interval sampler
  /// when traced); then registration order is capture order, and restore
  /// requires exactly these sections in exactly this order. `section_id`
  /// must be unique within one machine and stable across processes.
  void add_state(u32 section_id, Snapshottable* state);

  /// The machine's StatSet, registered as the LAST section (after it, no
  /// add_state): restore applies counters after every component's
  /// checkpoint, whose incidental side effects — e.g. the decode cache
  /// re-decoding its block set — they then overwrite.
  void set_stats(StatSet* stats);

  /// Fills the identity/geometry half of SnapshotMeta (arch label, warp
  /// width, image size, fault sequence); the kernel owns cycle and time.
  /// Also the restore-side validator: a blob whose identity fields disagree
  /// with this machine is rejected with SimError("snapshot").
  void set_meta_fn(std::function<void(SnapshotMeta&)> fn) {
    meta_fn_ = std::move(fn);
  }

  /// Attach the run's checkpoint intent. With `plan->capture`, run() scans
  /// every step-loop top from `checkpoint_at` compute cycles onward and
  /// captures at the first where every registered component is quiescent —
  /// non-invasively: the run continues bit-identically. A run that finishes
  /// first simply leaves `captured_ok` false.
  void set_plan(SnapshotPlan* plan) { plan_ = plan; }

  /// Apply a captured blob to the freshly-constructed machine. Must be
  /// called after wire_trace (the sampler restore needs the counter columns)
  /// and before run(). Throws SimError("snapshot") on any mismatch.
  void restore(const std::string& blob);

  /// Runs until `done()` — typically "all corelets halted". Throws
  /// SimError (watchdog trip, memory-fault retry exhaustion, ...) with the
  /// trace left partially written, exactly like the old per-arch loops.
  /// Returns the final simulated time in picoseconds.
  Picos run(const std::function<bool()>& done);

  u64 compute_cycles() const { return compute_.ticks(); }
  double final_clock_mhz() const { return compute_.frequency_mhz(); }
  Picos now() const { return now_; }
  KernelWork work() const {
    return {compute_edges_, channel_edges_,
            compute_units_.unit_ticks() + channel_units_.unit_ticks()};
  }

 private:
  /// When no unit is due at the next edge of either domain, skip both
  /// clocks to the first edge with a posted wake or an interval sample.
  /// Does nothing in a deadlock (no posted wake at all) or when the skip
  /// would cross the watchdog's trip point: edges are then processed one by
  /// one so the trip fires from a real step() at its exact iteration.
  void jump(u64 signature);

  /// Charges owed by both domains, before counters are read.
  void settle_all() {
    compute_units_.settle_all();
    channel_units_.settle_all();
  }

  bool all_quiescent() const;
  void capture();
  /// The kernel's own sections: identity, clocks + `now` + watchdog, and
  /// every counter by name.
  void checkpoint_meta(StateIO& io);
  void checkpoint_clocks(StateIO& io);
  void checkpoint_counters(StateIO& io);

  /// One checkpoint section: its id and the function naming its fields.
  struct Section {
    u32 id;
    std::function<void(StateIO&)> checkpoint;
  };

  ClockDomain compute_;
  ClockDomain channel_;
  u32 channels_, ranks_, banks_;
  bool fast_forward_;
  trace::TraceSession* trace_;

  Schedule compute_units_{&compute_};
  Schedule channel_units_{&channel_};
  std::function<std::string()> dump_;
  std::function<u64()> progress_;
  /// A member so restore can write its trip state in place; its wall-clock
  /// budget (a deployment setting, off by default) runs from construction.
  Watchdog watchdog_;

  std::vector<Section> sections_;
  std::vector<const Snapshottable*> states_;  ///< asked for quiescence
  StatSet* stats_ = nullptr;
  std::function<void(SnapshotMeta&)> meta_fn_;
  SnapshotPlan* plan_ = nullptr;

  Picos now_ = 0;
  u64 compute_edges_ = 0;  ///< processed edges, for work()
  u64 channel_edges_ = 0;
};

}  // namespace mlp::sim
