#pragma once
// The component interface of the shared simulation kernel. A Tickable is
// anything wired onto one of the kernel's two clock domains (a MIMD
// processor's corelet array or the SM on the compute domain; prefetch
// buffer, caches and the channel demux on the DRAM-channel domain).
//
// The kernel is activity-driven (sim/kernel.hpp): each unit has a posted
// wake time, and the kernel ticks a unit only at the edges of its domain at
// or after that time. Every tick returns the unit's next wake; a stimulus
// from outside that tick — a fill arriving, a context waking, a push into
// the controller, a backend freeing a slot — posts an earlier wake through
// wake_at(). An extra wake is always safe (the tick is then a no-op apart
// from its per-edge accounting); a missing one is a bug that the poll
// oracle (--no-fast-forward) exposes.
//
// The edges at which a unit is not ticked still owe the accounting its tick
// would have done there (idle cycles, idle issue slots, one refused push
// for a parked requester). The kernel charges them in bulk through
// skip_idle(), with the unit's state at charge time; a unit about to change
// what skip_idle() charges calls settle() first, so no charge is ever
// deferred past a stimulus.

#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"

namespace mlp::sim {

/// next_event() return value: this component cannot change state without
/// external stimulus (a callback fired by another component's tick).
inline constexpr Picos kNoEvent = ~Picos{0};

/// The scheduling work of one run. A scheduling regression moves no
/// simulated counter, so tests pin these instead; they stay out of the
/// StatSet and every report. Jumped compute edges are compute_cycles minus
/// compute_edges (a restored run counts from the restore).
struct KernelWork {
  u64 compute_edges = 0;  ///< compute edges processed
  u64 channel_edges = 0;  ///< channel edges processed
  u64 unit_ticks = 0;     ///< Tickable::tick calls, both domains
  u64 core_ticks = 0;     ///< Corelet::tick calls by a CoreletArray
};

class Schedule;

class Tickable {
 public:
  virtual ~Tickable() = default;

  /// One clock edge in this component's domain. `period_ps` is the domain's
  /// current period (the compute domain's may be retuned mid-run by DFS
  /// rate matching). Returns the unit's next wake: next_event(now) after
  /// the tick, or any earlier time (`now` means "tick me at the next edge").
  virtual Picos tick(Picos now, Picos period_ps) = 0;

  /// Earliest picosecond (>= now) at which this component could change any
  /// observable state — counters, queues, trace events — on its own, or
  /// kNoEvent when it is entirely at the mercy of callbacks. The contract:
  /// a tick() at any time strictly before next_event(now), with no
  /// intervening stimulus, is a no-op except for the accounting that
  /// skip_idle() replicates.
  virtual Picos next_event(Picos now) const = 0;

  /// Account `edges` edges of this component's domain at which it was not
  /// ticked: exactly what that many no-op tick() calls in its current state
  /// would have counted. Components with no per-edge accounting keep the
  /// no-op default.
  virtual void skip_idle(u64 edges) { (void)edges; }

 protected:
  /// False while polled: every edge ticks the unit.
  bool scheduled() const { return schedule_ != nullptr; }

  /// A stimulus from outside this unit's own tick may let it act at `at`.
  /// No-op when the unit is not scheduled by an activity-driven kernel.
  void wake_at(Picos at);

  /// Charge the edges this unit has finished but not yet been charged for,
  /// with its current state. Call before a stimulus changes what
  /// skip_idle() would charge (e.g. a requester parking or unparking).
  void settle();

 private:
  friend class Schedule;
  Schedule* schedule_ = nullptr;
  u32 slot_ = 0;
};

/// One clock domain's units in tick order, with each unit's posted wake and
/// the count of the domain's edges already charged to it. Owned by the
/// SimulationKernel; every method is only meaningful once attach()ed.
class Schedule {
 public:
  explicit Schedule(const ClockDomain* clock) : clock_(clock) {}
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// Registration order is tick order within the domain.
  void add(Tickable* unit) { units_.push_back(unit); }

  /// Poll mode: tick every unit at this edge.
  void tick_all(Picos now, Picos period_ps) {
    for (Tickable* unit : units_) unit->tick(now, period_ps);
    unit_ticks_ += units_.size();
  }

  /// Activity-driven mode: bind every unit to this schedule, post its
  /// next_event at the pending edge and charge it from the current tick
  /// count (a restored run starts its charges at the restore point).
  void attach();

  /// Tick, in registration order, the units whose wake has come at this
  /// edge (the clock's pending one), charging each its owed edges first and
  /// posting the wake each tick returns.
  void tick_due(Picos now, Picos period_ps);

  /// Bring every unit's charges up to the edges it has finished: before
  /// counters are read (interval samples, checkpoints, the end of a run).
  void settle_all() {
    for (u32 slot = 0; slot < units_.size(); ++slot) settle(slot);
  }

  void settle(u32 slot) {
    const u64 ticks = clock_->ticks();
    const u64 finished = ticks == edge_ && slot < passed_ ? ticks + 1 : ticks;
    if (finished > charged_[slot]) {
      units_[slot]->skip_idle(finished - charged_[slot]);
      charged_[slot] = finished;
    }
  }

  void post(u32 slot, Picos at) {
    if (at < wake_[slot]) {
      wake_[slot] = at;
      if (at < earliest_) earliest_ = at;
    }
  }

  /// The earliest posted wake in the domain (kNoEvent: nothing will act
  /// without a stimulus from the other domain).
  Picos earliest() const { return earliest_; }

  /// Tickable::tick calls made in either mode.
  u64 unit_ticks() const { return unit_ticks_; }

 private:
  const ClockDomain* clock_;
  std::vector<Tickable*> units_;
  std::vector<Picos> wake_;
  std::vector<u64> charged_;  ///< edges of the domain charged to each unit
  Picos earliest_ = kNoEvent;
  /// The edge tick_due is processing and how many units have passed it:
  /// a unit's finished edges include that edge once its turn has come.
  u64 edge_ = ~u64{0};
  u32 passed_ = 0;
  u64 unit_ticks_ = 0;
};

inline void Tickable::wake_at(Picos at) {
  if (schedule_ != nullptr) schedule_->post(slot_, at);
}

inline void Tickable::settle() {
  if (schedule_ != nullptr) schedule_->settle(slot_);
}

}  // namespace mlp::sim
