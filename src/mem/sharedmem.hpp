#pragma once
// GPGPU shared-memory bank-conflict model. The SM's shared memory has
// `banks` single-ported banks; a warp's simultaneous accesses serialize by
// the maximum number of lanes mapping to one bank.
//
// Two mappings matter for the paper:
//  * kLanePrivate — the BMLA mapping from Section III-E: the i-th thread's
//    live state is striped so its accesses always fall in the i-th bank,
//    making indirect (data-dependent) accesses conflict-free.
//  * kWordInterleaved — the generic CUDA mapping (bank = word % banks),
//    under which indirect accesses from different lanes can collide.

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace mlp::mem {

enum class BankMapping : u8 { kLanePrivate, kWordInterleaved };

class SharedMemBanking {
 public:
  SharedMemBanking(u32 banks, BankMapping mapping)
      : banks_(banks), mapping_(mapping), per_bank_(banks, 0) {
    MLP_CHECK(banks_ > 0, "need at least one bank");
  }

  struct LaneAccess {
    u32 lane;
    u32 addr;  ///< local-space byte address
  };

  /// Cycles to service all of a warp's accesses in one shared-memory op.
  /// Not reentrant: the per-bank histogram is reused across calls.
  u32 conflict_cycles(std::span<const LaneAccess> accesses) const {
    u32 worst = 0;
    for (const LaneAccess& a : accesses) {
      worst = std::max(worst, ++per_bank_[bank_of(a)]);
    }
    for (const LaneAccess& a : accesses) per_bank_[bank_of(a)] = 0;
    return worst;
  }

  BankMapping mapping() const { return mapping_; }

 private:
  u32 bank_of(const LaneAccess& a) const {
    return mapping_ == BankMapping::kLanePrivate ? a.lane % banks_
                                                 : (a.addr / 4) % banks_;
  }

  u32 banks_;
  BankMapping mapping_;
  mutable std::vector<u32> per_bank_;  ///< all zero between calls
};

}  // namespace mlp::mem
