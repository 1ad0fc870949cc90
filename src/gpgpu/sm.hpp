#pragma once
// GPGPU streaming multiprocessor timing model. One SM has `cores.cores`
// lanes (32), ganged into warps of `warp_width` lanes (32, or 4 under VWS),
// with `cores.contexts` warps per lane group — so thread count and peak
// issue width match the MIMD architectures exactly, as the paper requires.
//
// Modeled effects (the ones the paper's comparison hinges on):
//  * SIMT divergence via an IPDom reconvergence stack — BMLAs' 70/30
//    data-dependent branches serialize the arms;
//  * shared-memory bank conflicts for the live state (conflict-free under
//    the lane-striped BMLA mapping of Section III-E);
//  * global-access coalescing into 128 B L1 lines + sequential cache-block
//    prefetch (the paper grants the GPGPU baseline a prefetcher);
//  * optionally (VWS-row) the input stream is served by Millipede's row
//    prefetch buffer instead of the L1D.

#include <array>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/decode_cache.hpp"
#include "core/functional.hpp"
#include "gpgpu/simt_stack.hpp"
#include "isa/cfg.hpp"
#include "mem/cache.hpp"
#include "mem/prefetcher.hpp"
#include "mem/sharedmem.hpp"
#include "millipede/prefetch_buffer.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "sim/wake.hpp"
#include "trace/trace.hpp"

namespace mlp::gpgpu {

/// Counters for performance analysis, the energy model and the VWS policy.
struct SmStats {
  Counter warp_instructions, thread_instructions;
  Counter thread_float_ops, thread_local_accesses, thread_global_loads;
  Counter branches, divergent_branches;
  Counter shared_accesses, shared_conflict_cycles;
  Counter global_load_warps, global_lines;
  Counter issue_slots_idle, issue_slots_busy;
  Counter inactive_lane_slots;  ///< lanes clocked but masked off (divergence)

  void register_with(StatSet* stats, const std::string& prefix) {
    if (stats == nullptr) return;
    stats->add(prefix + ".warp_instructions", &warp_instructions);
    stats->add(prefix + ".thread_instructions", &thread_instructions);
    stats->add(prefix + ".thread_float_ops", &thread_float_ops);
    stats->add(prefix + ".thread_local_accesses", &thread_local_accesses);
    stats->add(prefix + ".thread_global_loads", &thread_global_loads);
    stats->add(prefix + ".branches", &branches);
    stats->add(prefix + ".divergent_branches", &divergent_branches);
    stats->add(prefix + ".shared_accesses", &shared_accesses);
    stats->add(prefix + ".shared_conflict_cycles", &shared_conflict_cycles);
    stats->add(prefix + ".global_load_warps", &global_load_warps);
    stats->add(prefix + ".global_lines", &global_lines);
    stats->add(prefix + ".issue_slots_idle", &issue_slots_idle);
    stats->add(prefix + ".issue_slots_busy", &issue_slots_busy);
    stats->add(prefix + ".inactive_lane_slots", &inactive_lane_slots);
  }
};

class StreamingMultiprocessor : public sim::Tickable,
                                public sim::Snapshottable,
                                public sim::Waitable {
 public:
  /// Most lanes a warp can have: one bit of a LaneMask each.
  static constexpr u32 kMaxLanes = 64;

  struct Deps {
    /// Decodes and dispatches every warp instruction; names the program.
    core::DecodedBlockCache* dcache = nullptr;
    std::vector<mem::LocalStore>* lane_state = nullptr;  ///< one per lane
    mem::DramImage* dram = nullptr;
    mem::Cache* l1d = nullptr;                        ///< input path (plain)
    mem::SequentialPrefetcher* prefetcher = nullptr;  ///< optional
    millipede::PrefetchBuffer* pb = nullptr;          ///< input path (row)
    const mem::SharedMemBanking* banking = nullptr;
    SmStats* stats = nullptr;
    trace::TraceSession* trace = nullptr;
  };

  StreamingMultiprocessor(const MachineConfig& cfg, u32 warp_width, Deps deps);

  /// Thread context for (group, warp slot, lane-in-warp); the system
  /// initializes CSRs through this before running.
  core::Context& context(u32 group, u32 slot, u32 lane);

  /// One compute-clock edge: each lane group may issue one warp instruction.
  Picos tick(Picos now, Picos period_ps) override;

  /// Earliest edge with SM-side work: `now` while any warp has MSHR-bounced
  /// lines to replay (the replay touches L1 counters every edge, so it stays
  /// polled), otherwise the soonest wake-up among non-waiting, non-halted
  /// warps. A warp's last fill posts its wake-up as the SM's wake.
  Picos next_event(Picos now) const override;

  /// Idle accounting for edges without a tick: every live lane group
  /// charges an idle issue slot and `warp_width` inactive lane slots per
  /// edge, matching tick()'s nothing-runnable path.
  void skip_idle(u64 edges) override;

  /// sim::Waitable: one of warp `index`'s outstanding line or word fills
  /// arrived at `at`; the last one releases the warp.
  void wake(u32 index, Picos at) override { fill_done(warps_[index], at); }

  bool halted() const;

  u32 warp_width() const { return warp_width_; }
  u32 groups() const { return groups_; }

  // sim::Snapshottable: every warp's SIMT stack, lane contexts and timing
  // fields, the per-group schedulers and the per-lane local state. A warp
  // with outstanding fills or bounced lines is a live wake or replay state,
  // so capture waits for all of those to drain.
  void checkpoint(sim::StateIO& io) override;
  bool quiescent() const override {
    for (const Warp& warp : warps_) {
      if (warp.waiting || warp.outstanding != 0 || !warp.retry_lines.empty()) {
        return false;
      }
    }
    return true;
  }

  /// Per-warp scheduling state (waiting, outstanding fills, lane PCs) for
  /// watchdog diagnostics.
  std::string debug_dump() const;

 private:
  struct Warp {
    SimtStack stack;
    std::vector<core::Context> lanes;
    bool waiting = false;     ///< blocked on outstanding global fills
    Picos ready_at = 0;
    u32 outstanding = 0;
    Picos latest_fill = 0;
    Picos wait_began = 0;  ///< issue time of the blocking load (trace)
    u32 index = 0;         ///< position in warps_: wake index, trace track
    std::vector<Addr> retry_lines;  ///< lines bounced by a full MSHR

    explicit Warp(u32 width) : stack(width), lanes(width) {}
    bool runnable(Picos now) const {
      return !waiting && !stack.all_halted() && ready_at <= now;
    }
  };

  void issue(Warp& warp, u32 group, Picos now, Picos period_ps);
  /// The coalescer: adds `line` to lines_ unless present, keeping them in
  /// ascending address order.
  void add_line(Addr line);
  void start_line_fill(Warp& warp, Addr line, Picos now);
  /// One outstanding line/word fill arrived at `at`; releases the warp (and
  /// closes its trace stall slice) when it was the last one.
  void fill_done(Warp& warp, Picos at);
  /// Marks the warp blocked on global fills, latching the stall begin time.
  void begin_wait(Warp& warp, Picos now) {
    if (!warp.waiting) warp.wait_began = now;
    warp.waiting = true;
  }
  u32 lane_id(u32 group, u32 lane_in_warp) const {
    return group * warp_width_ + lane_in_warp;
  }

  MachineConfig cfg_;
  u32 warp_width_;
  u32 groups_;
  Deps deps_;
  isa::ReconvergenceTable reconv_;

  /// warps_[group * contexts + slot]
  std::vector<Warp> warps_;
  std::vector<u32> rr_;  ///< per-group round-robin cursor

  // Per-instruction scratch, reused so issuing a warp never allocates.
  std::array<mem::SharedMemBanking::LaneAccess, kMaxLanes> lane_accesses_;
  std::array<Addr, kMaxLanes> lines_;  ///< distinct lines, ascending
  u32 num_lines_ = 0;
  std::vector<Addr> prefetch_lines_;
};

}  // namespace mlp::gpgpu
