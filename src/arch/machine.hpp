#pragma once
// The part of a simulated system every architecture shares. The paper holds
// the DRAM, the BMLA inputs and the on-die memory identical across Millipede,
// SSMC, GPGPU/VWS and the multicore (Figs. 3-5), so the systems differ only
// in their input path and issue engine. A Machine builds and owns the rest:
//
//  * the run's private copy of the prepared input, the StatSet, the
//    per-channel DRAM controllers attached to that image, the simulation
//    kernel and the decoded-block cache;
//  * one local store per core (or SM lane), plus the MIMD corelets with
//    their CSRs bound to the slab mapping (add_corelets);
//  * the progress signature, the watchdog dump, checkpoint registration in
//    one fixed section order, and the trace wiring with the DRAM queue and
//    refresh gauges;
//  * the result tail: derived metrics, DRAM energy and verification.
//
// Each *_system.cpp adds only its input port, its extra components in tick
// order with their snapshot sections, its trace hook and its core and
// leakage energy. A Machine is neither copyable nor movable: every component
// holds pointers into it, so it stays where it was built.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arch/system.hpp"
#include "core/corelet.hpp"
#include "core/decode_cache.hpp"
#include "mem/cache.hpp"
#include "mem/channels.hpp"
#include "mem/prefetcher.hpp"
#include "sim/kernel.hpp"

namespace mlp::arch {

/// One run as run_arch resolves it: the config tuned for the ArchKind and
/// validated, and a prepared input that is never null (the machine copies
/// it; a checkpoint's image delta is taken against it).
struct RunSpec {
  const char* label;  ///< arch_name(kind): result, trace process, snapshot
  const MachineConfig& cfg;
  const workloads::Workload& workload;
  const PreparedInput& prepared;
  trace::TraceSession* trace;
  sim::SnapshotPlan* snapshot;

  bool restoring() const {
    return snapshot != nullptr && snapshot->restore_from != nullptr;
  }
};

using TraceHook = std::function<void(trace::TraceSession*)>;
using DumpHook = std::function<std::string()>;

class Machine {
 public:
  /// What the run loop and the result tail read from the issue engine.
  /// add_corelets fills it for the MIMD corelets; the SM systems fill it.
  struct Engine {
    const Counter* instructions = nullptr;  ///< thread instructions retired
    const Counter* branches = nullptr;      ///< per thread, or per warp
    u32 warp_width = 0;                     ///< SM warp width; 0 for MIMD
    std::function<bool()> done;             ///< the run is over
    TraceHook name_tracks;                  ///< per-context or per-warp tracks
    DumpHook dump;                          ///< issue state for watchdog dumps
  };

  /// `family` names the system in watchdog trips and dumps ("millipede"
  /// for all three Millipede variants, "gpgpu" for GPGPU and both VWS).
  /// `offchip_dram` prices DRAM traffic at the off-chip energy.
  Machine(const RunSpec& spec, const char* family, bool offchip_dram = false);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  Machine(Machine&&) = delete;
  Machine& operator=(Machine&&) = delete;

  /// One corelet per core issuing through `port`, each context's CSRs bound
  /// to its slab of the input. The caller registers the corelets (or its
  /// wrappers of them) as compute units.
  void add_corelets(core::GlobalPort* port);

  /// Registration order is tick order; the controller ticks last.
  void add_compute(sim::Tickable* unit) { kernel.add_compute(unit); }
  void add_channel(sim::Tickable* unit) { kernel.add_channel(unit); }

  /// Checkpoint sections, registered only when the run has a snapshot plan.
  /// Capture order: the image delta, the controller, every add_state in call
  /// order, the decoded-block cache, then per core its corelet followed by
  /// its add_core_state sections (section id `base + core`) in call order.
  void add_state(u32 section, sim::Snapshottable* state) {
    states_.push_back({section, state});
  }
  void add_core_state(u32 base, u32 core, sim::Snapshottable* state) {
    core_states_.push_back({core, base + core, state});
  }

  trace::TraceSession* trace() const { return spec_.trace; }

  /// Wires the shared hooks, restores a planned snapshot and runs the kernel
  /// until engine.done; returns the final simulated time. `arch_trace` adds
  /// arch tracks and gauges, `arch_dump` arch state between the engine's and
  /// the controller's in watchdog dumps.
  Picos simulate(const TraceHook& arch_trace = {},
                 const DumpHook& arch_dump = {});

  /// simulate, then the shared result tail: every field but the core and
  /// leakage energy, which the architecture adds.
  RunResult run(const TraceHook& arch_trace = {},
                const DumpHook& arch_dump = {});

  const MachineConfig& cfg;
  const workloads::Workload& workload;
  /// The run's private copy: the controller attaches to it and no-ECC fault
  /// injection may corrupt it.
  PreparedInput input;
  StatSet stats;
  mem::ChannelDemux dram;
  mem::ControllerBackend backend;  ///< the DRAM behind a cache hierarchy
  sim::SimulationKernel kernel;
  /// One per job, shared read-only by every corelet or warp.
  core::DecodedBlockCache dcache;
  std::vector<mem::LocalStore> locals;  ///< one per core or SM lane
  core::ExecStats exec;                 ///< the corelets' counters
  std::vector<core::Corelet> corelets;  ///< empty on the SM systems
  Engine engine;

 private:
  struct CoreState {
    u32 core;
    u32 section;
    sim::Snapshottable* state;
  };

  void register_states();

  const RunSpec spec_;
  std::string family_;
  bool offchip_dram_;
  std::vector<std::pair<u32, sim::Snapshottable*>> states_;
  std::vector<CoreState> core_states_;
  std::optional<sim::DramImageDelta> image_delta_;
};

/// Input loads and live-state accesses through a per-core L1: the SSMC's
/// L1D, or the multicore's L1 in front of its L2. The live state sits in a
/// row-aligned per-core region of the global address space past the input
/// image, so it competes with the prefetched input stream for the cache.
class CachedPort : public core::GlobalPort {
 public:
  CachedPort(const Machine& m, std::vector<mem::Cache>* l1s,
             std::vector<mem::StreamTable>* prefetchers);

  core::PortResult load(u32 core, u32 ctx, Addr addr, Picos now,
                        std::function<void(Picos)> wakeup) override;
  core::PortResult local_access(u32 core, u32 ctx, Addr addr, bool is_write,
                                Picos fixed, Picos now,
                                std::function<void(Picos)> wakeup) override;

 private:
  core::PortResult access(mem::Cache& l1, Addr addr, bool is_write, Picos now,
                          std::function<void(Picos)> wakeup);

  std::vector<mem::Cache>* l1s_;
  std::vector<mem::StreamTable>* prefetchers_;
  Addr state_base_;
  u32 state_stride_;
};

// One entry point per system family (millipede_system.cpp, ...).
RunResult run_millipede(const RunSpec& spec);
RunResult run_ssmc(const RunSpec& spec);
RunResult run_gpgpu(const RunSpec& spec);
RunResult run_multicore(const RunSpec& spec);

/// The multicore's machine: its own core count, SMT depth and clock, and
/// off-chip DRAM at a fraction of the die-stacked bandwidth.
MachineConfig multicore_config(const MachineConfig& cfg);

}  // namespace mlp::arch
