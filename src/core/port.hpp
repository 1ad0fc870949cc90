#pragma once
// The global-memory port a core issues input-data loads through. Each
// architecture provides its own implementation: Millipede's row prefetch
// buffer (also VWS-row's, per lane), SSMC's per-core L1D, the multicore's
// L1/L2 hierarchy; the plain GPGPU's SM coalesces into its L1D itself.
// Keeping the port virtual is what lets one corelet timing model serve
// several architectures.

#include "common/types.hpp"
#include "sim/wake.hpp"

namespace mlp::core {

enum class PortStatus : u8 {
  kDone,     ///< satisfied locally; data ready at `ready_at`
  kPending,  ///< in flight; the wake will fire
  kRetry,    ///< structural hazard (MSHR/queue full); retry next cycle
};

struct PortResult {
  PortStatus status = PortStatus::kDone;
  Picos ready_at = 0;  ///< meaningful for kDone
};

class GlobalPort {
 public:
  /// `local_latency_fixed`: every live-state access completes after the
  /// caller's fixed latency (the local_access default below), so a core
  /// may time those accesses itself without calling local_access.
  explicit GlobalPort(bool local_latency_fixed = true)
      : local_latency_fixed_(local_latency_fixed) {}
  virtual ~GlobalPort() = default;

  bool local_latency_fixed() const { return local_latency_fixed_; }

  /// Word load from the input stream by `core`.
  /// On kPending, `wake` fires exactly once when the data is usable.
  virtual PortResult load(u32 core, Addr addr, Picos now, sim::Wake wake) = 0;

  /// Live-state (local-space) access timing. Millipede and the GPGPU have a
  /// dedicated local memory / shared memory, so the default is a fixed
  /// latency supplied by the caller. SSMC and the conventional multicore
  /// override this (and construct with `local_latency_fixed` false) to
  /// route the access through their data caches, where the input stream
  /// competes with the state for capacity.
  virtual PortResult local_access(u32 core, Addr addr, bool is_write,
                                  Picos fixed_ready_at, Picos now,
                                  sim::Wake wake) {
    (void)core; (void)addr; (void)is_write; (void)now; (void)wake;
    return PortResult{PortStatus::kDone, fixed_ready_at};
  }

 private:
  bool local_latency_fixed_;
};

}  // namespace mlp::core
