#pragma once
// Coarse-grain compute-memory rate matching (Section IV-F): a one-dimensional
// hill-climbing controller that retunes the whole processor's clock in small
// (default 5%) steps. Votes arrive from the prefetch buffer:
//   * memory-bound vote  — a leading corelet found the buffers EMPTY (it
//     stalled on an unfilled entry): compute is outrunning memory, step the
//     clock DOWN.
//   * compute-bound vote — a prefetch trigger found the buffers FULL of
//     already-delivered rows: memory is outrunning compute, step the clock
//     UP (capped at the nominal frequency).
// Votes are accumulated over a window and the majority decides each step,
// which converges once at the start of the (behaviourally stationary) BMLA
// and then oscillates within one step, as the paper argues.

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/snapshot.hpp"
#include "trace/trace.hpp"

namespace mlp::millipede {

class RateMatcher : public sim::Snapshottable {
 public:
  RateMatcher(const MillipedeConfig& cfg, const CoreConfig& core,
              ClockDomain* compute_clock, StatSet* stats,
              const std::string& prefix,
              trace::TraceSession* trace = nullptr);

  void vote_memory_bound(Picos now = 0);
  void vote_compute_bound(Picos now = 0);

  double current_mhz() const { return clock_->frequency_mhz(); }

  // sim::Snapshottable: the in-window vote tallies (the clock period itself
  // is restored with the compute ClockDomain by the kernel section).
  void checkpoint(sim::StateIO& io) override {
    io.field(memory_votes_);
    io.field(compute_votes_);
  }

 private:
  void maybe_step(Picos now);

  MillipedeConfig cfg_;
  Picos nominal_period_ps_;
  Picos max_period_ps_;
  ClockDomain* clock_;
  trace::TraceSession* trace_ = nullptr;

  u32 memory_votes_ = 0;
  u32 compute_votes_ = 0;
  Counter steps_down_, steps_up_;
};

}  // namespace mlp::millipede
