#pragma once
// The in-order, fine-grain multithreaded simple core used as the Millipede
// corelet and the SSMC core (the paper holds the pipeline identical across
// architectures). Each cycle the core issues at most one instruction from
// the next runnable hardware context in round-robin order; memory latency is
// tolerated by switching contexts, exactly the "small-scale hardware
// multithreading" of Section IV-A. The conventional multicore reuses it with
// an issue width above one (see the constructor).

#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/functional.hpp"
#include "core/port.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::core {

class DecodedBlockCache;

/// Execution counters aggregated across all corelets of a processor; the
/// energy model and Table IV derive from these.
struct ExecStats {
  Counter instructions;
  Counter int_alu, float_alu, local_ops, global_loads, global_stores;
  Counter branches, branches_taken, jumps;
  Counter busy_cycles, idle_cycles, retry_stalls;

  void register_with(StatSet* stats, const std::string& prefix) {
    if (stats == nullptr) return;
    stats->add(prefix + ".instructions", &instructions);
    stats->add(prefix + ".int_alu", &int_alu);
    stats->add(prefix + ".float_alu", &float_alu);
    stats->add(prefix + ".local_ops", &local_ops);
    stats->add(prefix + ".global_loads", &global_loads);
    stats->add(prefix + ".global_stores", &global_stores);
    stats->add(prefix + ".branches", &branches);
    stats->add(prefix + ".branches_taken", &branches_taken);
    stats->add(prefix + ".jumps", &jumps);
    stats->add(prefix + ".busy_cycles", &busy_cycles);
    stats->add(prefix + ".idle_cycles", &idle_cycles);
    stats->add(prefix + ".retry_stalls", &retry_stalls);
  }
};

class Corelet : public sim::Tickable, public sim::Snapshottable {
 public:
  /// `dcache` is optional (tests drive bare corelets without one); when
  /// present it provides decode accounting and, if its dispatch flag is on,
  /// the predecoded fast path. Shared read-only across a job's corelets.
  /// `issue_width` > 1 approximates the multicore's wide issue: each edge
  /// runs that many single-issue steps across the contexts. `live_corelets`,
  /// when given, counts corelets with a context not yet halted.
  Corelet(u32 core_id, const CoreConfig& cfg, const isa::Program* program,
          mem::LocalStore* local, mem::DramImage* dram, GlobalPort* port,
          ExecStats* stats, trace::TraceSession* trace = nullptr,
          DecodedBlockCache* dcache = nullptr, u32 issue_width = 1,
          u32* live_corelets = nullptr);

  /// One compute-clock edge: issue up to `issue_width` instructions.
  /// `period_ps` is the current compute period (DFS may change it).
  Picos tick(Picos now, Picos period_ps) override;

  /// Earliest edge at which some context could issue: the soonest kReady
  /// wake-up. Mem-stalled and halted contexts only change via port
  /// callbacks, which post the context's wake-up as this corelet's wake.
  Picos next_event(Picos now) const override;

  /// Idle accounting for edges without a tick (matches tick()'s
  /// nothing-runnable path).
  void skip_idle(u64 edges) override;

  bool halted() const { return live_contexts_ == 0; }

  // sim::Snapshottable: every context's architectural state, the round-robin
  // cursor and this corelet's local-store words. A context blocked on a
  // global load holds an unserializable port continuation, so capture waits
  // until no context is in kWaitMem (barrier waiters are kWaitMem too).
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotCursor& r) override;
  bool quiescent() const override {
    for (const Context& ctx : contexts_) {
      if (ctx.state == Context::State::kWaitMem) return false;
    }
    return true;
  }

  Context& context(u32 i) { return contexts_[i]; }
  const Context& context(u32 i) const { return contexts_[i]; }
  u32 num_contexts() const { return static_cast<u32>(contexts_.size()); }
  u32 core_id() const { return core_id_; }

 private:
  /// Issue one instruction from runnable context `chosen_index`; true when
  /// that context is still ready afterwards (it may go again next edge).
  bool issue(u32 chosen_index, Picos now, Picos period_ps);
  /// The context after `index` in round-robin order (no division: the
  /// pick runs on every issue slot).
  u32 following(u32 index) const {
    return index + 1 == contexts_.size() ? 0 : index + 1;
  }
  /// Port callback: the context's data is usable at `at`.
  void wake(Context& ctx, Picos at) {
    ctx.state = Context::State::kReady;
    ctx.ready_at = at;
    wake_at(at);
  }
  /// Recount live contexts (construction, restore) and keep the shared
  /// live-corelet count in step.
  void recount_live();

  u32 core_id_;
  CoreConfig cfg_;
  const isa::Program* program_;
  mem::LocalStore* local_;
  mem::DramImage* dram_;
  GlobalPort* port_;
  ExecStats* stats_;
  trace::TraceSession* trace_;
  DecodedBlockCache* dcache_;

  u32 issue_width_;
  u32* live_corelets_;

  std::vector<Context> contexts_;
  u32 live_contexts_ = 0;
  u32 rr_next_ = 0;
};

}  // namespace mlp::core
