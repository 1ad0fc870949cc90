#pragma once
// Processor-wide software barrier used by the record-granularity-barrier
// ablation (Section IV-C): the paper argues MapReduce-expressible barriers
// are the only software alternative to hardware flow control, and shows
// they do not help. A thread executing `bar` blocks until every live
// (non-halted) thread has arrived; halted threads deregister so tail
// imbalance cannot deadlock the machine. A processor's CoreletArray holds
// it when the program contains `bar`.

#include <vector>

#include "common/types.hpp"
#include "core/port.hpp"
#include "sim/snapshot.hpp"

namespace mlp::core {

class Barrier : public sim::Snapshottable {
 public:
  explicit Barrier(u32 expected) : expected_(expected) {
    MLP_CHECK(expected_ > 0, "barrier needs participants");
  }

  /// A thread arrives. Returns kDone (releasing everyone) if this arrival
  /// completes the barrier; otherwise registers `wake` and returns
  /// kPending.
  PortResult arrive(Picos now, Picos period_ps, sim::Wake wake) {
    ++arrived_;
    if (arrived_ >= expected_) {
      release(now + period_ps);
      return {PortStatus::kDone, now + period_ps};
    }
    waiters_.push_back(wake);
    return {PortStatus::kPending, 0};
  }

  /// A thread halted: it will never arrive again. May release the barrier.
  void deregister(Picos now, Picos period_ps) {
    MLP_CHECK(expected_ > 0, "deregister below zero");
    --expected_;
    if (expected_ > 0 && arrived_ >= expected_) release(now + period_ps);
  }

  u32 waiting() const { return static_cast<u32>(waiters_.size()); }
  u64 episodes() const { return episodes_; }

  // sim::Snapshottable: a barrier-blocked thread is a live wake, so capture
  // requires no waiters; then arrived_ is guaranteed 0 and only the
  // halt-decayed expectation and the episode count carry state.
  bool quiescent() const override { return waiters_.empty(); }
  void checkpoint(sim::StateIO& io) override {
    io.positive(expected_, "barrier expectation");
    io.field(episodes_);
  }

 private:
  void release(Picos at) {
    ++episodes_;
    arrived_ = 0;
    std::vector<sim::Wake> batch = std::move(waiters_);
    waiters_.clear();
    for (const sim::Wake& waiter : batch) waiter(at);
  }

  u32 expected_;
  u32 arrived_ = 0;
  u64 episodes_ = 0;
  std::vector<sim::Wake> waiters_;
};

}  // namespace mlp::core
