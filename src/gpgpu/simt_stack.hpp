#pragma once
// Per-warp SIMT reconvergence stack (classic immediate-post-dominator
// scheme, as in GPGPU-Sim). The top entry holds the warp's current pc and
// active mask; divergent branches split the top into taken/fall-through
// entries that re-merge when execution reaches the reconvergence pc.

#include <vector>

#include "common/types.hpp"
#include "isa/cfg.hpp"
#include "sim/snapshot.hpp"

namespace mlp::gpgpu {

using LaneMask = u64;

class SimtStack {
 public:
  static constexpr u32 kNoReconv = isa::ReconvergenceTable::kNoReconv;

  /// Starts all `width` lanes active at pc 0.
  explicit SimtStack(u32 width);

  u32 pc() const { return stack_.back().pc; }
  LaneMask active_mask() const { return stack_.back().mask; }
  bool empty() const { return stack_.empty(); }
  size_t depth() const { return stack_.size(); }

  /// Advance the warp past a non-branch instruction to `next_pc`
  /// (next sequential pc or a uniform jump target). Handles reconvergence
  /// pops when next_pc reaches the top entry's rpc.
  void advance(u32 next_pc);

  /// Resolve a branch at the current pc. `taken` holds one bit per lane
  /// (restricted to the active mask). `target` is the taken pc,
  /// `fallthrough` the not-taken pc, `reconv` the IPDom reconvergence pc.
  /// Returns true if the branch diverged.
  bool branch(LaneMask taken, u32 target, u32 fallthrough, u32 reconv);

  /// Permanently deactivate `lanes` (they executed halt) in every entry.
  void halt_lanes(LaneMask lanes);

  bool all_halted() const { return stack_.empty(); }

  struct Entry {
    u32 pc;
    u32 rpc;
    LaneMask mask;
  };

  /// Checkpoint state: every entry, each pc inside a program of
  /// `program_size` instructions (an rpc may also be kNoReconv) and each
  /// mask inside a warp `width` lanes wide.
  void checkpoint(sim::StateIO& io, u32 program_size, u32 width);

 private:
  void pop_converged();

  std::vector<Entry> stack_;
};

}  // namespace mlp::gpgpu
