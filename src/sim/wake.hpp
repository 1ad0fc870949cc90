#pragma once
// Completion signalling from the memory side back to the issue engines. A
// context, warp or thread blocked on a load, a live-state access or a
// barrier is named by a Wake: the unit that owns it plus its index there.
// Ports, caches, the prefetch buffer and the barrier store these handles
// in their waiter lists and fire them when the data (or the release) is
// there, so an access that completes at once builds no continuation at
// all. Requests to DRAM keep their MemRequest::on_complete (mem/req.hpp).

#include "common/types.hpp"

namespace mlp::sim {

/// An issue engine whose contexts (the corelet) or warps (the SM) can block.
class Waitable {
 public:
  /// The blocked context or warp `index` can go on at `at`.
  virtual void wake(u32 index, Picos at) = 0;

 protected:
  ~Waitable() = default;
};

/// Trivially copyable handle naming one blocked context or warp.
struct Wake {
  Waitable* unit = nullptr;
  u32 index = 0;

  void operator()(Picos at) const { unit->wake(index, at); }
};

}  // namespace mlp::sim
