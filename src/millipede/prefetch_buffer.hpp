#pragma once
// Millipede's row-oriented, flow-controlled, cross-corelet prefetch buffer
// (Sections IV-B and IV-C). The paper's core mechanism:
//
//  * Entries form a circular queue; each holds one full DRAM row, split into
//    one fixed 64 B slab per corelet (slab c = bytes [c*slab, (c+1)*slab)).
//  * The row stream is strictly sequential (interleaved layout), so "next
//    prefetch" is always the next row id — 100% accurate by construction.
//  * PFT bit: the FIRST demand access to an entry triggers allocation of the
//    next row; later accesses don't re-trigger (like an MSHR's full/empty bit).
//  * DF counter: counts corelets that have fully consumed their slab of the
//    entry (tracked by per-corelet word bitmasks against an expected mask so
//    partial tail groups can't deadlock). Only a saturated head entry may be
//    re-allocated — that is the cross-corelet flow control.
//  * Without flow control (the Millipede-no-flow-control ablation), a full
//    queue evicts the unsaturated head; lagging corelets then miss and pay a
//    direct DRAM fetch, losing row locality — the failure mode the paper
//    quantifies in Fig. 3.
//  * Rate-matching votes: a stall on an unfilled entry votes "memory-bound";
//    a deferred trigger against a fully-delivered queue votes "compute-bound".

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/port.hpp"
#include "mem/channels.hpp"
#include "millipede/rate_match.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::millipede {

/// Describes the sequential row stream the kernel will consume and which
/// slab words each corelet will demand from each row (tail groups may have
/// partially-used rows).
struct RowPlan {
  u64 first_row = 0;
  u64 num_rows = 0;
  /// Bitmask over the corelet's slab words (bit w = word w) that the corelet
  /// will demand-fetch from this row; 0 if the corelet never touches it.
  std::function<u64(u64 row, u32 corelet)> expected_mask;
};

class PrefetchBuffer : public core::GlobalPort, public mem::Requester,
                       public sim::Snapshottable, public sim::Waitable {
 public:
  /// `rate_matcher` (may be null) receives the per-row votes;
  /// `flow_control` false is the no-flow-control ablation.
  PrefetchBuffer(const MachineConfig& cfg, RowPlan plan,
                 mem::ChannelDemux* ctrl, RateMatcher* rate_matcher,
                 bool flow_control, StatSet* stats, const std::string& prefix,
                 trace::TraceSession* trace = nullptr);

  /// Issue the initial row prefetches (fills the queue) before kernel start.
  void prime(Picos now);

  /// GlobalPort: demand access from a corelet to an input word.
  core::PortResult load(u32 core, Addr addr, Picos now,
                        sim::Wake wake) override;

  // mem::Requester (the channel-domain Tickable): a channel edge retries
  // issues the controller refused; otherwise the buffer only reacts to
  // fills and demand accesses driven from other components.

  /// sim::Waitable: the fill of row `index` (rows stay below 2^21) arrived
  /// at `at`. A row evicted before its data arrived ignores the fill.
  void wake(u32 index, Picos at) override;

  /// Quiesce for snapshot capture: no backpressured issues, no waiters
  /// anywhere (entry waiters, flow-control waits, victim-slab waits) and every allocated entry's row data delivered. Holds whenever
  /// the window is fully filled and compute lags — including the final
  /// compute-only reduce phase.
  bool quiescent() const override {
    if (!nothing_waiting() || !future_waiters_.empty()) return false;
    for (u32 i = 0; i < count_; ++i) {
      const Entry& entry = entries_[(head_ + i) % num_entries_];
      if (!entry.filled || !entry.waiters.empty()) return false;
    }
    for (const auto& [key, slab] : victim_slabs_) {
      if (!slab.filled || !slab.waiters.empty()) return false;
    }
    return true;
  }

  // sim::Snapshottable: ring state, per-entry PFT/DF/consumption masks,
  // trigger backlog, rate-match warmup cursor and the victim-slab keys.
  void checkpoint(sim::StateIO& io) override;

  // Observability for tests and the rate matcher.
  u32 occupancy() const { return count_; }
  /// Entries whose DF counter saturated (every corelet consumed its slab).
  u32 saturated_entries() const {
    u32 n = 0;
    for (u32 i = 0; i < count_; ++i) {
      if (entries_[(head_ + i) % num_entries_].df >= cfg_.core.cores) ++n;
    }
    return n;
  }
  u64 premature_evictions() const { return premature_evictions_.value; }
  u64 direct_fetches() const { return direct_fetches_.value; }

  /// Per-entry PFT/DF/fill state plus pending triggers and flow-control
  /// waiters, for watchdog diagnostics: a flow-control deadlock shows up
  /// here as an unsaturated head entry and a pile of future waiters.
  std::string debug_dump() const;

 private:
  struct Entry {
    u64 row = 0;
    bool valid = false;
    bool filled = false;
    bool pft = true;
    bool demanded_before_fill = false;  ///< rate-matching per-row signal
    u32 df = 0;  ///< corelets that fully consumed their slab
    std::vector<u64> consumed;  ///< per-corelet consumed-word bitmask
    std::vector<u64> expected;  ///< per-corelet expected-word bitmask
    std::vector<sim::Wake> waiters;
  };

  u32 index_of(u64 row) const;   ///< entry index; entries hold consecutive rows
  Entry* find(u64 row);
  u64 head_row() const { return entries_[head_].row; }

  void allocate_next(Picos now);
  void issue_prefetch(u64 row, Picos now);
  void retire_saturated_heads(Picos now);
  /// Consume pending allocation triggers. Without flow control,
  /// `force_evict` (set when a leading corelet's demand wrapped past the
  /// window) re-allocates unsaturated heads — the premature eviction the
  /// paper quantifies; ordinary triggers defer exactly like flow control.
  void trigger(Picos now, bool force_evict = false);
  core::PortResult victim_fetch(u32 core, u64 row, Picos now,
                                sim::Wake wake);

  MachineConfig cfg_;
  RowPlan plan_;
  mem::ChannelDemux* ctrl_;
  RateMatcher* rate_matcher_;
  bool flow_control_;
  trace::TraceSession* trace_ = nullptr;

  u32 num_entries_;
  u32 slab_bytes_;
  u32 slab_words_;
  u32 row_shift_;
  Picos hit_latency_ps_;

  std::vector<Entry> entries_;
  u32 head_ = 0;
  u32 count_ = 0;
  u64 next_row_;  ///< next row id to allocate (plan-relative stream)
  u32 pending_triggers_ = 0;
  u64 retired_rows_ = 0;  ///< for the rate-matching warmup window

  /// Flow-control waits: demands for rows beyond the allocated window.
  std::map<u64, std::vector<sim::Wake>> future_waiters_;

  /// Victim slabs (no-flow-control only): after a premature eviction, a
  /// lagging corelet refetches its 64 B slab once; later words of the slab
  /// hit this side structure instead of issuing further DRAM traffic. Each
  /// slab is the waitable its fetch wakes.
  struct VictimSlab final : sim::Waitable {
    explicit VictimSlab(Picos latency) : hit_latency_ps(latency) {}
    void wake(u32 index, Picos at) override;

    Picos hit_latency_ps;
    bool filled = false;
    std::vector<sim::Wake> waiters;
  };
  std::map<std::pair<u64, u32>, VictimSlab> victim_slabs_;

  Counter row_prefetches_, hits_, fill_waits_, flow_waits_,
      premature_evictions_, direct_fetches_, votes_memory_, votes_compute_;
};

}  // namespace mlp::millipede
