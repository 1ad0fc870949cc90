#pragma once
// The in-order, fine-grain multithreaded simple core used as the Millipede
// corelet and the SSMC core (the paper holds the pipeline identical across
// architectures). Each cycle the core issues at most one instruction from
// the next runnable hardware context in round-robin order; memory latency is
// tolerated by switching contexts, exactly the "small-scale hardware
// multithreading" of Section IV-A. The conventional multicore reuses it with
// an issue width above one (see the constructor).

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/barrier.hpp"
#include "core/functional.hpp"
#include "core/port.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "sim/wake.hpp"
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

/// A MIMD processor (Millipede, SSMC, the multicore) as one compute unit, as
/// the SM is for the GPGPU. It holds every context of the processor in one
/// table, indexed `core * contexts + context` (also the wake index and the
/// context's trace track), is the waiter for all of them, and keeps each
/// core's wake: what the core's tick returned, lowered by its contexts'
/// wakes. A tick runs, in core order, only the cores whose wake has come
/// (every core when polled) and charges the live cores it passes over their
/// idle issue slots. With `bar` in the program it holds the processor-wide
/// Barrier over all its threads: `bar` arrives there, `halt` deregisters.
class CoreletArray : public sim::Tickable, public sim::Waitable {
 public:
  /// `cfg.cores` cores of `cfg.contexts` contexts each, core `c` owning
  /// `locals[c]`. `dcache` decodes and dispatches every issued instruction
  /// (it also names the program). Each core issues through `port`, up to
  /// `issue_width` instructions per edge; a width above one approximates the
  /// multicore's wide issue.
  CoreletArray(const CoreConfig& cfg, DecodedBlockCache* dcache,
               std::span<mem::LocalStore> locals, mem::DramImage* dram,
               GlobalPort* port, ExecStats* stats,
               trace::TraceSession* trace = nullptr, u32 issue_width = 1);
  // Its sections, its kernel slot and pending wakes hold its address.
  CoreletArray(const CoreletArray&) = delete;
  CoreletArray& operator=(const CoreletArray&) = delete;

  Picos tick(Picos now, Picos period_ps) override;
  /// The soonest core wake.
  Picos next_event(Picos now) const override;
  /// Every live core idles `issue_width` slots per edge.
  void skip_idle(u64 edges) override {
    stats_->idle_cycles.inc(edges * live_cores_ * issue_width_);
  }
  /// sim::Waitable: context `index` of the table has its data (or its
  /// barrier release) at `at`. A traced context closes its load's stall
  /// slice here.
  void wake(u32 index, Picos at) override;

  /// No core has a context left (O(1): the kernel asks every edge).
  bool halted() const { return live_cores_ == 0; }
  /// Core ticks so far (scheduling work, not a simulated counter).
  u64 core_ticks() const { return core_ticks_; }

  Context& context(u32 core, u32 x) { return contexts_[core * per_core_ + x]; }
  /// Core `c`'s snapshot section: its contexts' architectural state, its
  /// round-robin cursor and its local-store words.
  sim::Snapshottable* section(u32 c) { return &sections_[c]; }
  /// The processor's barrier; null unless the program contains `bar`.
  Barrier* barrier() { return barrier_ ? &*barrier_ : nullptr; }

  /// One line per context (PC, state, ready time, instret) for watchdog
  /// dumps.
  std::string debug_dump() const;

 private:
  /// How a kind issues. A kind with a counter runs straight: execute, count,
  /// and become ready after `cycles` (plus the branch penalty when taken).
  /// The other kinds (global accesses, barriers, halt, and live-state
  /// accesses on a port that times them) negotiate the port first.
  struct KindTiming {
    Counter* counter = nullptr;
    u32 cycles = 1;
  };

  /// A traced context's pending global load: its stall slice opens at
  /// `began` and closes when the load's wake fires.
  struct IssueRecord {
    Picos began = 0;
    Addr addr = 0;
    bool traced = false;
  };

  /// What a core keeps besides its contexts.
  struct Core {
    Picos wake = 0;
    u32 rr_next = 0;  ///< the context its next pick starts from
    u32 live = 0;     ///< contexts not halted
  };

  /// A core's `kSecCoreletBase + c` section. A context blocked on a global
  /// load is a live wake in some port's waiter list, so capture waits until
  /// no context of the core is in kWaitMem (barrier waiters are kWaitMem
  /// too).
  class CoreSection : public sim::Snapshottable {
   public:
    CoreSection(CoreletArray* array, u32 core) : array_(array), core_(core) {}
    void checkpoint(sim::StateIO& io) override;
    bool quiescent() const override;

   private:
    CoreletArray* array_;
    u32 core_;
  };

  /// One compute-clock edge of core `c`: issue up to `issue_width`
  /// instructions. Returns the core's next wake: the soonest ready
  /// context's wake-up, or `now` while a context that just issued is still
  /// ready.
  Picos tick_core(u32 c, Picos now, Picos period_ps);
  /// Issue one instruction from runnable context `x` of core `c`, whose
  /// contexts start at `ctxs`; true when that context is still ready
  /// afterwards (it may go again next edge).
  bool issue(u32 c, Core& core, Context* ctxs, mem::LocalStore& local, u32 x,
             Picos now, Picos period_ps);
  /// issue() for the kinds that go through the port or the barrier.
  bool issue_to_port(const DecodedInstr& de, Context& ctx, u32 c, Picos now,
                     Picos period_ps);
  /// The context after `x` in its core's round-robin order (no division:
  /// the pick runs on every issue slot).
  u32 following(u32 x) const { return x + 1 == per_core_ ? 0 : x + 1; }
  /// Recount every core's live contexts and the live cores (construction,
  /// a core's restore).
  void recount_live();

  // What every issue reads comes first.
  std::vector<Context> contexts_;
  std::vector<Core> cores_;
  u32 per_core_;  ///< contexts per core
  u32 issue_width_;
  u32 branch_penalty_;
  u32 local_latency_;
  DecodedBlockCache* dcache_;
  std::span<mem::LocalStore> locals_;
  mem::DramImage* dram_;
  ExecStats* stats_;
  std::array<KindTiming, kNumStepKinds> timing_;
  GlobalPort* port_;
  trace::TraceSession* trace_;
  std::vector<IssueRecord> issued_;  ///< per context; used when traced

  /// The soonest wake fired since this edge's tick began.
  Picos woken_ = sim::kNoEvent;
  u32 live_cores_ = 0;
  u64 core_ticks_ = 0;
  std::optional<Barrier> barrier_;
  std::vector<CoreSection> sections_;
};

}  // namespace mlp::core
