#pragma once
// Stand-in for the issue engines in tests that drive a port, cache,
// prefetch buffer or barrier directly: it records every wake it receives
// and can run a callback on each.

#include <functional>
#include <utility>
#include <vector>

#include "sim/wake.hpp"

namespace mlp::test {

class WakeProbe : public sim::Waitable {
 public:
  WakeProbe() = default;
  explicit WakeProbe(std::function<void(Picos)> on_wake)
      : on_wake_(std::move(on_wake)) {}

  /// The handle naming waiter `index` of this probe.
  sim::Wake handle(u32 index = 0) { return {this, index}; }
  operator sim::Wake() { return handle(); }

  void wake(u32 index, Picos at) override {
    woken.emplace_back(index, at);
    if (on_wake_) on_wake_(at);
  }

  std::vector<std::pair<u32, Picos>> woken;  ///< (index, time), fire order

 private:
  std::function<void(Picos)> on_wake_;
};

}  // namespace mlp::test
