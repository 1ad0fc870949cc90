#pragma once
// Channel demultiplexer: the memory subsystem the architecture models wire
// up. Owns the configurable AddressMap plus one FR-FCFS MemoryController
// per channel, decodes every request through the mapping, and — for
// mappings that interleave channel/rank/bank fields below the column field
// — stripes a single request into per-channel sub-transfers whose
// completions are joined back into the caller's wake.
//
// The demux is the channel-domain sim::Tickable, the kSecController
// sim::Snapshottable and the MemBackend that caches and the prefetch buffer
// push into. next_event is the min over channels (including refresh
// accrual/issue points), so the kernel ticks the controllers only when one
// has work; a push posts the demux's wake, and a controller issuing from its
// queue wakes the requesters parked on a refused push. Snapshots frame
// every channel's bank/refresh state in one section.
//
// All channels share one set of "dram.*" counters (a 1-channel run is
// bit-identical to the pre-hierarchy controller); per-channel traffic is
// additionally visible as "dram.ch<k>.bytes" when channels > 1, and the
// refresh/page-policy counters appear only when those features are enabled
// (the fault-injector registration convention).

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "mem/addrmap.hpp"
#include "mem/controller.hpp"
#include "mem/dram_image.hpp"
#include "mem/req.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::mem {

class ChannelDemux : public sim::Tickable, public sim::Snapshottable,
                     public MemBackend, public sim::Waitable {
 public:
  /// Builds the AddressMap (throws SimError("config") on bad geometry or a
  /// malformed mapping) and one controller per channel. Registers the
  /// shared "dram.*" counters plus the conditional feature counters.
  ChannelDemux(const DramConfig& cfg, std::string stat_prefix, StatSet* stats,
               trace::TraceSession* trace = nullptr);

  /// Functional image backing the memory system; consulted by the fault
  /// model (no-ECC bit flips corrupt the transferred bytes in place).
  void attach_image(DramImage* image);

  /// Decode, stripe and enqueue a request. Returns false (and counts one
  /// queue rejection) when any target channel's scheduler window lacks the
  /// room — the push is all-or-nothing, callers retry on a later tick.
  bool try_push(MemRequest request, Picos now);

  // MemBackend: a refused requester parks until a controller issues from
  // its queue.
  bool request(MemRequest request, Picos now) override {
    return try_push(std::move(request), now);
  }
  void park(Requester* requester) override { parked_.push_back(requester); }
  void count_refusals(u64 n) override { counters_.rejected.inc(n); }

  /// sim::Waitable: a stripe of the striped request joined in slot `index`
  /// finished at `at`.
  void wake(u32 index, Picos at) override;

  /// Advance one channel clock edge on every channel.
  void tick(Picos now);
  Picos tick(Picos now, Picos /*period_ps*/) override {
    tick(now);
    return next_event(now);
  }

  /// Earliest channel edge with work on any channel.
  Picos next_event(Picos now) const override {
    Picos at = sim::kNoEvent;
    for (const auto& channel : channels_) {
      at = std::min(at, channel->next_event(now));
    }
    return at;
  }

  bool idle() const {
    for (const auto& channel : channels_) {
      if (!channel->idle()) return false;
    }
    return true;
  }
  u32 queue_size() const {
    u32 total = 0;
    for (const auto& channel : channels_) total += channel->queue_size();
    return total;
  }
  u32 queue_capacity() const {
    return cfg_.queue_depth * static_cast<u32>(channels_.size());
  }
  u32 in_flight_size() const {
    u32 total = 0;
    for (const auto& channel : channels_) total += channel->in_flight_size();
    return total;
  }

  const AddressMap& address_map() const { return map_; }
  const DramConfig& config() const { return cfg_; }

  // Energy/analysis counters.
  u64 activations() const { return counters_.row_misses.value; }
  u64 bytes_transferred() const { return counters_.bytes.value; }
  u64 row_hits() const { return counters_.row_hits.value; }
  u64 row_misses() const { return counters_.row_misses.value; }
  /// Summed bus-busy time across channels (equals the single bus's
  /// occupancy when channels == 1).
  Picos busy_ps() const {
    Picos total = 0;
    for (const auto& channel : channels_) total += channel->busy_ps();
    return total;
  }

  // Resilience counters.
  u64 ecc_corrected() const { return counters_.ecc_corrected.value; }
  u64 ecc_detected() const { return counters_.ecc_detected.value; }
  u64 fault_retries() const { return counters_.retries.value; }
  bool fault_injection_enabled() const {
    return channels_[0]->fault_injection_enabled();
  }

  /// Transfers drawn by the fault injectors so far, summed over channels
  /// (0 without injection); recorded in SnapshotMeta for mlpsweep's
  /// fork-safety proof.
  u64 fault_sequence() const {
    u64 total = 0;
    for (const auto& channel : channels_) total += channel->fault_sequence();
    return total;
  }

  // Refresh/page-policy observability.
  bool refresh_enabled() const { return refresh_.enabled; }
  u64 refreshes() const { return counters_.refreshes.value; }
  u64 explicit_precharges() const {
    return counters_.explicit_precharges.value;
  }
  /// Outstanding refresh debt across all channels and ranks, for the
  /// "dram.refresh" interval gauge.
  u64 refresh_debt() const {
    u64 debt = 0;
    for (const auto& channel : channels_) debt += channel->refresh_debt();
    return debt;
  }

  // sim::Snapshottable: the channel count frames each controller's bank
  // timing, page-policy and refresh-debt state. Captured only at quiesce
  // (every channel's queue and in-flight transfers empty).
  void checkpoint(sim::StateIO& io) override;
  bool quiescent() const override { return idle(); }

  /// One-line-per-item state snapshot for watchdog diagnostics.
  std::string debug_dump() const;

 private:
  /// Join slot for a striped request: the caller's wake fires once when
  /// the last stripe retires, with the latest stripe finish time.
  struct StripeJoin {
    u32 remaining = 0;
    Picos latest = 0;
    sim::Wake done;
  };

  DramConfig cfg_;
  AddressMap map_;
  DramCounters counters_;
  std::vector<std::unique_ptr<Counter>> channel_bytes_;
  std::vector<std::unique_ptr<MemoryController>> channels_;
  std::vector<Requester*> parked_;  ///< refused, waiting for a free slot
  std::vector<StripeJoin> joins_;   ///< a slot with no stripe left is free
  RefreshSpec refresh_;
  PagePolicy policy_;
};

}  // namespace mlp::mem
