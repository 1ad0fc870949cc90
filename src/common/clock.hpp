#pragma once
// Two-domain clock scheduling. The compute domain (corelets / SM / cores,
// nominally 700 MHz) and the DRAM channel domain (1.2 GHz) tick
// independently; the system run loop always advances to whichever domain has
// the earlier next edge. The compute domain's period may be rescaled at run
// time, which is exactly the hook Millipede's DFS rate-matcher uses.

#include "common/types.hpp"
#include "common/units.hpp"
#include "sim/snapshot.hpp"

namespace mlp {

class ClockDomain {
 public:
  ClockDomain() = default;
  explicit ClockDomain(Picos period_ps) : period_ps_(period_ps) {
    MLP_CHECK(period_ps_ > 0, "clock period must be positive");
  }

  Picos period_ps() const { return period_ps_; }
  Picos next_edge_ps() const { return next_edge_ps_; }
  u64 ticks() const { return ticks_; }
  double frequency_mhz() const { return mhz_from_period_ps(period_ps_); }

  /// Consume the pending edge: advance the domain to its next edge and
  /// account one tick. The caller performs the domain's per-cycle work.
  void advance() {
    ++ticks_;
    next_edge_ps_ += period_ps_;
  }

  /// Consume `n` consecutive edges at the current period in one step. Used
  /// by the simulation kernel's idle-gap fast-forward; equivalent to calling
  /// advance() `n` times with no work in between.
  void advance_by(u64 n) {
    ticks_ += n;
    next_edge_ps_ += static_cast<Picos>(n) * period_ps_;
  }

  /// Rescale the period (dynamic frequency scaling). Applies from the next
  /// edge onward; the pending edge keeps its already-scheduled time, matching
  /// how a PLL retunes between cycles.
  void set_period_ps(Picos period_ps) {
    MLP_CHECK(period_ps > 0, "clock period must be positive");
    period_ps_ = period_ps;
  }

  /// Align the first edge (used when constructing a system at time zero).
  void reset(Picos first_edge_ps = 0) {
    next_edge_ps_ = first_edge_ps;
    ticks_ = 0;
  }

  /// Checkpoint state: the exact mid-run edge grid — period (DFS may have
  /// retuned it), pending edge, and tick count.
  void checkpoint(sim::StateIO& io) {
    io.positive(period_ps_, "clock period");
    io.field(next_edge_ps_);
    io.field(ticks_);
  }

 private:
  Picos period_ps_ = 1;
  Picos next_edge_ps_ = 0;
  u64 ticks_ = 0;
};

}  // namespace mlp
