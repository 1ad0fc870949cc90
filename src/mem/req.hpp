#pragma once
// Memory request/response types exchanged between cores, caches, prefetch
// buffers and the memory controller, and the backpressure contract between
// a requester and the backend it pushes into.

#include <deque>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "sim/tickable.hpp"
#include "sim/wake.hpp"

namespace mlp::mem {

/// A read or write of `bytes` starting at `addr`. Completion fires `done`
/// with the time the last data beat leaves the channel. Timing-only:
/// functional data lives in the flat DramImage.
struct MemRequest {
  Addr addr = 0;
  u32 bytes = 0;
  bool is_write = false;
  bool is_prefetch = false;
  sim::Wake done;  ///< null when nobody waits (writebacks)
};
static_assert(std::is_trivially_copyable_v<MemRequest>);

class Requester;

/// Downstream of a requester: the channel demux or a larger cache.
class MemBackend {
 public:
  virtual ~MemBackend() = default;

  /// Submit a request. May fire its `done` immediately (with a future
  /// timestamp) or later. Returns false when the backend cannot accept the
  /// request now; the caller keeps it and retries on a later edge.
  virtual bool request(MemRequest request, Picos now) = 0;

  /// `requester` was just refused: call its slot_freed() once this backend
  /// frees room that a refused request could use (a controller issuing from
  /// its queue, a cache retiring an MSHR). Waking on every such event is
  /// enough: until one happens, every retry would be refused again.
  virtual void park(Requester* requester) = 0;

  /// Count `n` refused requests exactly as `n` refused request() calls
  /// would (the demux's queue rejections, a cache's MSHR stalls).
  virtual void count_refusals(u64 n) = 0;
};

/// The retry side of backpressure, shared by the caches and the prefetch
/// buffer: requests the backend refused wait in order, and the requester
/// parks — it is not due on the channel domain — until the backend frees a
/// slot. A parked requester is charged one refused push per channel edge,
/// exactly what retrying its oldest request every edge would have counted.
class Requester : public sim::Tickable {
 public:
  explicit Requester(MemBackend* backend) : backend_(backend) {}

  /// Retry waiting requests in order until one is refused.
  void pump(Picos now) {
    while (!waiting_.empty()) {
      if (!backend_->request(waiting_.front(), now)) {
        wait_for_slot();
        return;
      }
      waiting_.pop_front();
    }
    parked_ = false;  // nothing left to refuse
  }

  /// The oldest waiting request was refused and no slot has freed since.
  bool parked() const { return parked_; }

  /// Called by the backend after a park(): retry at this requester's next
  /// turn (later this edge if it ticks after the backend, as polling would).
  void slot_freed(Picos now) {
    settle();
    parked_ = false;
    listed_ = false;
    wake_at(now);
  }

  // sim::Tickable: a channel edge retries the waiting requests; a parked
  // requester has nothing to do until its backend wakes it.
  Picos tick(Picos now, Picos /*period_ps*/) override {
    pump(now);
    return next_event(now);
  }
  Picos next_event(Picos now) const override {
    return waiting_.empty() || parked_ ? sim::kNoEvent : now;
  }
  void skip_idle(u64 edges) override {
    if (parked_) backend_->count_refusals(edges);
  }

 protected:
  /// Push now, or queue behind the waiting requests and park.
  void submit(MemRequest request, Picos now) {
    if (!backend_->request(request, now)) {
      waiting_.push_back(std::move(request));
      wait_for_slot();
    }
  }

  bool nothing_waiting() const { return waiting_.empty(); }

 private:
  void wait_for_slot() {
    settle();
    parked_ = true;
    if (!listed_) {
      listed_ = true;
      backend_->park(this);
    }
  }

  MemBackend* backend_;
  std::deque<MemRequest> waiting_;
  bool parked_ = false;  ///< the oldest waiting request was refused
  bool listed_ = false;  ///< on the backend's park list
};

/// For a backend that just freed room: wake every requester parked on it.
inline void wake_parked(std::vector<Requester*>* parked, Picos now) {
  std::vector<Requester*> woken = std::move(*parked);
  parked->clear();
  for (Requester* requester : woken) requester->slot_freed(now);
}

}  // namespace mlp::mem
