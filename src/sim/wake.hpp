#pragma once
// Completion signalling from the memory side back to whoever waits on it.
// A context, warp or thread blocked on a load, a live-state access or a
// barrier is named by a Wake: the unit that owns it plus its index there.
// Ports, caches, the prefetch buffer and the barrier store these handles
// in their waiter lists and fire them when the data (or the release) is
// there, so an access that completes at once builds no continuation at
// all. A DRAM transfer completes the same way: its MemRequest::done names
// the cache line, buffer row, victim slab, stripe join or context waiting.

#include "common/types.hpp"

namespace mlp::sim {

/// A unit with waiters: an issue engine whose contexts (the corelet array)
/// or warps (the SM) block, or a memory unit whose fills wait on DRAM.
class Waitable {
 public:
  /// Waiter `index` can go on at `at`.
  virtual void wake(u32 index, Picos at) = 0;

 protected:
  ~Waitable() = default;
};

/// Trivially copyable handle naming one waiter; null when nobody waits.
struct Wake {
  Waitable* unit = nullptr;
  u32 index = 0;

  explicit operator bool() const { return unit != nullptr; }
  void operator()(Picos at) const { unit->wake(index, at); }
};

}  // namespace mlp::sim
