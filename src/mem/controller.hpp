#pragma once
// FR-FCFS memory controller for ONE die-stacked channel with per-bank page
// policy and per-rank refresh (Table III: 16-deep queue, 4 banks, tCAS-tRP-
// tRCD-tRAS = 9-9-9-27 channel cycles, 128-bit bus at 1.2 GHz). Systems do
// not construct this class directly: mem::ChannelDemux (mem/channels.hpp)
// owns one controller per channel, decodes/stripes requests through the
// configurable AddressMap, and demuxes them here.
//
// Scheduling: one request is selected per channel tick — first any ready
// row-buffer hit (FR), otherwise the oldest request whose bank can start its
// precharge/activate sequence (FCFS). Requests larger than one row-column
// (e.g. Millipede's full 2 KB row fetch) occupy the data bus for the
// corresponding number of beats; bank-level parallelism lets the next bank's
// activation proceed under the current transfer.
//
// Page policy (PagePolicy, default open-page): an explicit PRE closes a row
// after `max_row_idle` idle channel cycles or `max_row_hits` accesses;
// closed-page autoprecharge is max_row_hits == 1. Refresh (RefreshSpec,
// default off): every tREFI channel cycles each rank owes one refresh; a
// refresh blocks all banks of the rank for tRFC and may be postponed while
// demand is queued for the rank, up to the JEDEC debt window of
// `max_postponed` — at the cap the rank stops accepting demand issues until
// it catches up. Refresh times feed next_event() so the kernel's idle
// fast-forward performs refreshes instead of skipping them (poll and
// fast-forward runs stay bit-identical).
//
// The controller is timing-only; functional bytes live in DramImage. The
// exception is the resilience layer: when seeded fault injection is enabled
// (DramConfig::fault), transfers may arrive with flipped bits, delayed, or
// dropped. A SECDED ECC model (64-bit data words, 8 check bits each)
// corrects single-bit flips, detects double-bit flips and re-issues the
// transfer (bounded retry, also used for dropped responses); exhausting the
// retry budget throws a recoverable SimError("memory-fault"). Without ECC,
// flipped bits are applied to the attached DramImage — silent corruption
// that the golden verification surfaces at the end of the run.

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "mem/addrmap.hpp"
#include "mem/dram_image.hpp"
#include "mem/fault.hpp"
#include "mem/req.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "trace/trace.hpp"

namespace mlp::mem {

/// Counters shared by every channel of one DRAM subsystem, owned and
/// registered (under "dram.*") by the ChannelDemux so multi-channel runs
/// aggregate into the same stat names single-channel runs always used.
/// The refresh/page-policy counters are only registered when their feature
/// is enabled (same convention as the fault injector's "dram.fault.*"), so
/// default-knob stat dumps stay bit-identical to the pre-hierarchy model.
struct DramCounters {
  Counter reads, writes, row_hits, row_misses, bytes, rejected;
  Counter ecc_corrected, ecc_detected, retries, silent_corruptions;
  Counter refreshes;            ///< REF commands issued (all ranks/channels)
  Counter refresh_stall_ps;     ///< refresh time with demand queued behind it
  Counter explicit_precharges;  ///< page-policy PREs (idle timeout/hit cap)
};

class MemoryController {
 public:
  /// `channel` is this controller's index in the demux; `map` (owned by the
  /// demux) provides geometry and trace-track layout; `counters` are the
  /// shared subsystem counters and `channel_bytes` the per-channel bytes
  /// counter. `stats` is only used to register this channel's fault
  /// injector ("dram.fault" for channel 0, "dram.ch<k>.fault" beyond).
  MemoryController(const DramConfig& cfg, u32 channel, const AddressMap* map,
                   DramCounters* counters, Counter* channel_bytes,
                   StatSet* stats, const std::string& stat_prefix,
                   trace::TraceSession* trace = nullptr);

  /// Functional image backing this channel; only consulted by the fault
  /// model (no-ECC bit flips corrupt the transferred bytes in place).
  void attach_image(DramImage* image) { image_ = image; }

  /// Enqueue a request already decoded (and, for sub-row interleaves,
  /// striped) by the demux; returns false when the scheduler window is full
  /// (the caller must retry on a later tick, modelling backpressure).
  bool try_push(MemRequest request, const DramCoord& coord, Picos now);

  /// Queue slots available this tick (the demux pre-checks striped fan-outs
  /// so a multi-stripe push is all-or-nothing). Zero, not negative, while
  /// fault retries hold the queue past its depth.
  u32 free_slots() const {
    const u32 size = static_cast<u32>(queue_.size());
    return size < cfg_.queue_depth ? cfg_.queue_depth - size : 0;
  }

  /// Advance one channel clock edge: apply page-policy closures, accrue and
  /// issue refreshes, schedule at most one queued request and retire any
  /// transfers whose data has fully arrived. Returns true when a request
  /// left the queue (a slot freed). Throws SimError("memory-fault") when a
  /// transfer exhausts its retry budget.
  bool tick(Picos now);

  /// Earliest channel edge with controller work: an in-flight transfer
  /// retiring, a queued request whose bank turns ready, a page-policy idle
  /// closure, or a refresh accrual/issue point (so fast-forward never skips
  /// an observable state change).
  Picos next_event(Picos now) const;

  bool idle() const { return queue_.empty() && in_flight_.empty(); }
  u32 queue_size() const { return static_cast<u32>(queue_.size()); }
  u32 queue_capacity() const { return cfg_.queue_depth; }
  u32 in_flight_size() const { return static_cast<u32>(in_flight_.size()); }
  Picos busy_ps() const { return busy_ps_; }

  bool fault_injection_enabled() const { return injector_ != nullptr; }

  /// Transfers drawn by this channel's fault injector so far (0 without
  /// injection); summed by the demux into SnapshotMeta's fork-safety proof.
  u64 fault_sequence() const {
    return injector_ != nullptr ? injector_->transfers_drawn() : 0;
  }

  /// Outstanding (accrued, unissued) refreshes across this channel's ranks,
  /// for the "dram.refresh" interval gauge. Lazily accrued in tick(), which
  /// next_event() keeps current across fast-forward.
  u64 refresh_debt() const {
    u64 debt = 0;
    for (const RankState& rank : ranks_) debt += rank.debt;
    return debt;
  }

  // Snapshot body (framed by the demux's kSecController section): bank
  // timing + page-policy state, per-rank refresh debt, scheduler order, bus
  // occupancy and the fault injector's sequence number. Captured only at
  // quiesce (queue and in-flight transfers empty), so requests never
  // serialize.
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotCursor& r);

  /// One-line-per-item state snapshot (queue, in-flight transfers, banks)
  /// for watchdog diagnostics.
  std::string debug_dump() const;

 private:
  struct Bank {
    bool has_open_row = false;
    u64 open_row = 0;          ///< row index within this bank
    Picos ready_at = 0;        ///< earliest next command issue
    Picos activated_at = 0;    ///< for the tRAS constraint
    u32 accesses = 0;          ///< column accesses since the last activate
  };

  struct RankState {
    Picos next_due = 0;  ///< next tREFI accrual edge
    u32 debt = 0;        ///< accrued refreshes not yet issued
  };

  struct Pending {
    MemRequest request;
    DramCoord coord;
    Picos arrived_at = 0;
    u64 order = 0;
    u32 attempts = 0;  ///< prior issues of this transfer (retries)
  };

  struct InFlight {
    MemRequest request;
    DramCoord coord;
    Picos done_at = 0;
    u32 attempts = 0;
    bool needs_retry = false;  ///< dropped response or uncorrectable ECC
  };

  Picos cycles(u32 n) const { return static_cast<Picos>(n) * period_ps_; }
  Picos transfer_ps(u32 bytes) const {
    const u32 beats = (bytes + bytes_per_cycle_ - 1) / bytes_per_cycle_;
    // Derate by the effective bus efficiency (command/turnaround overheads
    // folded into the transfer occupancy; refresh only while it is not
    // modelled explicitly — see DramConfig::bus_efficiency).
    const double effective =
        static_cast<double>(beats) / cfg_.bus_efficiency;
    return cycles(static_cast<u32>(effective + 0.5));
  }

  Bank& bank_at(const DramCoord& coord) {
    return banks_[coord.rank * cfg_.banks + coord.bank];
  }
  const Bank& bank_at(const DramCoord& coord) const {
    return banks_[coord.rank * cfg_.banks + coord.bank];
  }
  u32 bank_track(const DramCoord& coord) const {
    return track_base_ + coord.rank * cfg_.banks + coord.bank;
  }

  /// Attempt to issue `pending` now; returns true and fills `done_at` if the
  /// bank and bus constraints allow starting this tick.
  bool try_issue(Pending& pending, Picos now, bool row_hit_only);

  /// Page-policy sweep: explicitly precharge rows idle past max_row_idle.
  void apply_idle_closures(Picos now);

  /// Accrue tREFI debt and issue any refresh the postponement rules allow.
  void run_refresh(Picos now);

  /// Earliest time rank `r` could start a refresh: all its banks command-
  /// ready and every open row past its tRAS window.
  Picos rank_refresh_ready(u32 r) const;

  bool rank_has_demand(u32 r) const {
    for (const Pending& pending : queue_) {
      if (pending.coord.rank == r) return true;
    }
    return false;
  }

  /// Draw and apply this transfer's injected faults; returns the extra
  /// response latency and sets `needs_retry` for drops / ECC detections.
  Picos apply_faults(const MemRequest& request, const DramCoord& coord,
                     Picos now, bool* needs_retry);

  /// Re-enqueue a transfer whose response was dropped or failed ECC; throws
  /// SimError("memory-fault") once the retry budget is exhausted.
  void requeue(InFlight&& transfer, Picos now);

  DramConfig cfg_;
  u32 channel_ = 0;
  trace::TraceSession* trace_ = nullptr;
  const AddressMap* map_;
  PagePolicy policy_;
  RefreshSpec refresh_;
  Picos period_ps_;
  Picos trefi_ps_ = 0;
  Picos trfc_ps_ = 0;
  u32 bytes_per_cycle_;
  u32 track_base_;
  std::unique_ptr<FaultInjector> injector_;
  DramImage* image_ = nullptr;
  DramCounters* counters_;
  Counter* channel_bytes_;

  std::vector<Bank> banks_;       ///< ranks x banks, rank-major
  std::vector<RankState> ranks_;  ///< refresh state per rank
  std::deque<Pending> queue_;
  std::vector<InFlight> in_flight_;
  u64 next_order_ = 0;
  Picos bus_free_at_ = 0;
  Picos busy_ps_ = 0;
};

}  // namespace mlp::mem
