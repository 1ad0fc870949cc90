#include "mem/controller.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace mlp::mem {

MemoryController::MemoryController(const DramConfig& cfg, u32 channel,
                                   const AddressMap* map,
                                   DramCounters* counters,
                                   Counter* channel_bytes, StatSet* stats,
                                   const std::string& stat_prefix,
                                   trace::TraceSession* trace)
    : cfg_(cfg),
      channel_(channel),
      trace_(trace),
      map_(map),
      policy_(parse_page_policy(cfg.page_policy)),
      refresh_(parse_refresh(cfg.refresh)),
      period_ps_(cfg.period_ps()),
      bytes_per_cycle_(cfg.bytes_per_cycle()),
      track_base_(trace::kDramTrackBase + channel * cfg.ranks * cfg.banks),
      counters_(counters),
      channel_bytes_(channel_bytes),
      banks_(static_cast<size_t>(cfg.ranks) * cfg.banks),
      ranks_(cfg.ranks) {
  if (refresh_.enabled) {
    trefi_ps_ = cycles(refresh_.t_refi);
    trfc_ps_ = cycles(refresh_.t_rfc);
    for (RankState& rank : ranks_) rank.next_due = trefi_ps_;
  }
  if (cfg.fault.enabled()) {
    // Each channel draws an independent, deterministic fault stream:
    // channel 0 keeps the configured seed (bit-identity with the
    // single-channel model), further channels mix the channel index in.
    FaultConfig fault_cfg = cfg.fault;
    fault_cfg.seed += u64{0x9e3779b97f4a7c15} * channel;
    const std::string prefix =
        channel == 0 ? stat_prefix + ".fault"
                     : stat_prefix + ".ch" + std::to_string(channel) +
                           ".fault";
    injector_ = std::make_unique<FaultInjector>(fault_cfg, stats, prefix);
  }
}

bool MemoryController::try_push(MemRequest request, const DramCoord& coord,
                                Picos now) {
  if (queue_.size() >= cfg_.queue_depth) {
    counters_->rejected.inc();
    return false;
  }
  MLP_SIM_CHECK(request.bytes > 0, "config", "empty request");
  // A request must not straddle a row boundary: callers split at rows (and
  // the demux splits sub-row interleaves into per-bank stripes).
  MLP_SIM_CHECK(coord.column + request.bytes <= cfg_.row_bytes, "config",
                "request crosses a row boundary");
  Pending pending;
  pending.coord = coord;
  pending.request = std::move(request);
  pending.arrived_at = now;
  pending.order = next_order_++;
  queue_.push_back(std::move(pending));
  return true;
}

Picos MemoryController::apply_faults(const MemRequest& request,
                                     const DramCoord& coord, Picos now,
                                     bool* needs_retry) {
  TransferFaults faults = injector_->draw(request.bytes);
  Picos extra = 0;
  if (faults.delayed) extra += cycles(cfg_.fault.delay_cycles);
  if (faults.dropped) *needs_retry = true;
  if (trace_ != nullptr &&
      (faults.delayed || faults.dropped || !faults.flipped_bits.empty())) {
    const u64 kind = !faults.flipped_bits.empty() ? 1 : faults.delayed ? 2 : 3;
    trace_->emit(trace::Domain::kChannel, trace::EventKind::kFault, now,
                 bank_track(coord), request.addr, kind);
  }

  if (!faults.flipped_bits.empty()) {
    if (cfg_.fault.ecc) {
      // SECDED over 64-bit data words: one flip per word corrects, two or
      // more detect as uncorrectable — the whole transfer is re-read.
      u64 word = ~u64{0};
      u32 flips_in_word = 0;
      for (const u32 bit : faults.flipped_bits) {  // bits arrive sorted
        if (bit / 64 != word) {
          if (flips_in_word == 1) counters_->ecc_corrected.inc();
          word = bit / 64;
          flips_in_word = 0;
        }
        ++flips_in_word;
        if (flips_in_word == 2) {
          counters_->ecc_detected.inc();
          *needs_retry = true;
        }
      }
      if (flips_in_word == 1) counters_->ecc_corrected.inc();
    } else {
      // No ECC: the flips land in the functional bytes. Golden verification
      // turns this into a per-job failure instead of a silent wrong result.
      for (const u32 bit : faults.flipped_bits) {
        if (image_ != nullptr) {
          image_->flip_bit(request.addr + bit / 8, bit % 8);
        }
        counters_->silent_corruptions.inc();
      }
    }
  }
  return extra;
}

bool MemoryController::try_issue(Pending& pending, Picos now,
                                 bool row_hit_only) {
  // A rank at its refresh-postponement cap stops issuing demand accesses
  // until it catches up (the JEDEC debt window).
  if (refresh_.enabled &&
      ranks_[pending.coord.rank].debt >= refresh_.max_postponed) {
    return false;
  }
  Bank& bank = bank_at(pending.coord);
  if (bank.ready_at > now) return false;

  const bool row_hit = bank.has_open_row && bank.open_row == pending.coord.row;
  if (row_hit_only && !row_hit) return false;

  const u32 track = bank_track(pending.coord);
  Picos cas_start;
  if (row_hit) {
    cas_start = now;
    counters_->row_hits.inc();
    ++bank.accesses;
  } else {
    Picos start = now;
    if (bank.has_open_row) {
      // Respect tRAS before precharging the currently open row.
      const Picos ras_done = bank.activated_at + cycles(cfg_.t_ras);
      const Picos pre_start = std::max(start, ras_done);
      start = pre_start + cycles(cfg_.t_rp);
      if (trace_ != nullptr) {
        trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramPrecharge,
                     pre_start, track, bank.open_row);
      }
    }
    const Picos act_start = start;
    cas_start = act_start + cycles(cfg_.t_rcd);
    bank.has_open_row = true;
    bank.open_row = pending.coord.row;
    bank.activated_at = act_start;
    bank.accesses = 1;
    counters_->row_misses.inc();
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramActivate,
                   act_start, track, pending.coord.row);
    }
  }

  const Picos data_start =
      std::max(cas_start + cycles(cfg_.t_cas), bus_free_at_);
  Picos data_end = data_start + transfer_ps(pending.request.bytes);
  bus_free_at_ = data_end;
  bank.ready_at = data_end;
  busy_ps_ += data_end - data_start;

  counters_->bytes.inc(pending.request.bytes);
  if (channel_bytes_ != nullptr) channel_bytes_->inc(pending.request.bytes);
  if (pending.request.is_write) {
    counters_->writes.inc();
  } else {
    counters_->reads.inc();
  }
  if (trace_ != nullptr) {
    trace_->emit(trace::Domain::kChannel,
                 pending.request.is_write ? trace::EventKind::kDramWrite
                                          : trace::EventKind::kDramRead,
                 data_start, track, pending.coord.row, row_hit ? 1 : 0);
  }

  // Hit-streak cap: autoprecharge after this access once the row has served
  // max_row_hits column accesses (closed-page when the cap is 1).
  if (policy_.max_row_hits != 0 && bank.accesses >= policy_.max_row_hits) {
    const Picos pre_start =
        std::max(data_end, bank.activated_at + cycles(cfg_.t_ras));
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramPrecharge,
                   pre_start, track, bank.open_row);
    }
    counters_->explicit_precharges.inc();
    bank.has_open_row = false;
    bank.accesses = 0;
    bank.ready_at = pre_start + cycles(cfg_.t_rp);
  }

  InFlight transfer;
  transfer.attempts = pending.attempts;
  transfer.coord = pending.coord;
  if (injector_ != nullptr) {
    // Fault draw at issue: the injected delay lands on the response time
    // only (the bus/bank occupancy above is the physical transfer).
    data_end += apply_faults(pending.request, pending.coord, now,
                             &transfer.needs_retry);
  }
  transfer.request = std::move(pending.request);
  transfer.done_at = data_end;
  in_flight_.push_back(std::move(transfer));
  return true;
}

void MemoryController::apply_idle_closures(Picos now) {
  const Picos idle_ps = cycles(policy_.max_row_idle);
  for (u32 b = 0; b < banks_.size(); ++b) {
    Bank& bank = banks_[b];
    if (!bank.has_open_row) continue;
    // The row starts idling when its last transfer leaves the bank
    // (ready_at); a future ready_at means a transfer is still in progress.
    const Picos deadline = bank.ready_at + idle_ps;
    if (deadline > now) continue;
    const Picos pre_start =
        std::max(deadline, bank.activated_at + cycles(cfg_.t_ras));
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramPrecharge,
                   pre_start, track_base_ + b, bank.open_row);
    }
    counters_->explicit_precharges.inc();
    bank.has_open_row = false;
    bank.accesses = 0;
    bank.ready_at = pre_start + cycles(cfg_.t_rp);
  }
}

Picos MemoryController::rank_refresh_ready(u32 r) const {
  Picos ready = 0;
  for (u32 b = 0; b < cfg_.banks; ++b) {
    const Bank& bank = banks_[r * cfg_.banks + b];
    ready = std::max(ready, bank.ready_at);
    if (bank.has_open_row) {
      ready = std::max(ready, bank.activated_at + cycles(cfg_.t_ras));
    }
  }
  return ready;
}

void MemoryController::run_refresh(Picos now) {
  for (u32 r = 0; r < ranks_.size(); ++r) {
    RankState& rank = ranks_[r];
    while (now >= rank.next_due) {
      ++rank.debt;
      rank.next_due += trefi_ps_;
    }
    if (rank.debt == 0) continue;
    // Postpone while demand is queued for the rank, unless the JEDEC debt
    // window is exhausted (try_issue then blocks the rank's demand, so the
    // banks drain and the refresh goes through).
    const bool demand = rank_has_demand(r);
    if (demand && rank.debt < refresh_.max_postponed) continue;
    if (rank_refresh_ready(r) > now) continue;

    // All banks of the rank must be precharged for REF; close any open rows
    // first (one extra tRP) and block the rank for tRFC.
    bool any_open = false;
    for (u32 b = 0; b < cfg_.banks; ++b) {
      if (banks_[r * cfg_.banks + b].has_open_row) any_open = true;
    }
    const Picos stall = (any_open ? cycles(cfg_.t_rp) : 0) + trfc_ps_;
    for (u32 b = 0; b < cfg_.banks; ++b) {
      Bank& bank = banks_[r * cfg_.banks + b];
      if (bank.has_open_row && trace_ != nullptr) {
        trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramPrecharge,
                     now, track_base_ + r * cfg_.banks + b, bank.open_row);
      }
      bank.has_open_row = false;
      bank.accesses = 0;
      bank.ready_at = now + stall;
    }
    counters_->refreshes.inc();
    // Deterministic stall attribution: a refresh only counts as interference
    // when demand was queued behind it at issue time.
    if (demand) counters_->refresh_stall_ps.inc(stall);
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kChannel, trace::EventKind::kDramRefresh,
                   now, track_base_ + r * cfg_.banks, r, rank.debt);
    }
    --rank.debt;
  }
}

void MemoryController::requeue(InFlight&& transfer, Picos now) {
  if (transfer.attempts + 1 > cfg_.fault.max_retries) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "transfer addr=0x%llx bytes=%u failed %u attempts",
                  static_cast<unsigned long long>(transfer.request.addr),
                  transfer.request.bytes, transfer.attempts + 1);
    throw SimError("memory-fault",
                   cfg_.fault.ecc
                       ? "uncorrectable ECC error: retry budget exhausted"
                       : "dropped response: retry budget exhausted",
                   detail);
  }
  counters_->retries.inc();
  Pending pending;
  pending.coord = transfer.coord;
  pending.request = std::move(transfer.request);
  pending.arrived_at = now;
  pending.order = next_order_++;
  pending.attempts = transfer.attempts + 1;
  // Retries bypass the scheduler-window cap: the slot the original transfer
  // occupied has already drained, and rejecting a retry could deadlock
  // callers that have no retry loop for completions.
  queue_.push_back(std::move(pending));
}

bool MemoryController::tick(Picos now) {
  // Retire completed transfers.
  for (size_t i = 0; i < in_flight_.size();) {
    if (in_flight_[i].done_at <= now) {
      InFlight transfer = std::move(in_flight_[i]);
      in_flight_[i] = std::move(in_flight_.back());
      in_flight_.pop_back();
      if (transfer.needs_retry) {
        requeue(std::move(transfer), now);
      } else if (transfer.request.done) {
        transfer.request.done(transfer.done_at);
      }
    } else {
      ++i;
    }
  }

  if (policy_.max_row_idle != 0) apply_idle_closures(now);
  if (refresh_.enabled) run_refresh(now);

  // FR: any ready row-buffer hit, oldest first.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (try_issue(*it, now, /*row_hit_only=*/true)) {
      queue_.erase(it);
      return true;
    }
  }
  // FCFS: oldest request whose bank can begin the activate sequence.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (try_issue(*it, now, /*row_hit_only=*/false)) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

Picos MemoryController::next_event(Picos now) const {
  Picos at = sim::kNoEvent;
  for (const InFlight& transfer : in_flight_) {
    at = std::min(at, std::max(transfer.done_at, now));
  }
  for (const Pending& pending : queue_) {
    at = std::min(at, std::max(bank_at(pending.coord).ready_at, now));
  }
  if (policy_.max_row_idle != 0) {
    const Picos idle_ps = cycles(policy_.max_row_idle);
    for (const Bank& bank : banks_) {
      if (bank.has_open_row) {
        at = std::min(at, std::max(bank.ready_at + idle_ps, now));
      }
    }
  }
  if (refresh_.enabled) {
    for (u32 r = 0; r < ranks_.size(); ++r) {
      const RankState& rank = ranks_[r];
      // Accrual edges are observable (the refresh-debt gauge), and once debt
      // is owed the issue point matters; postponed-by-demand refreshes wake
      // through the pending entries above.
      at = std::min(at, std::max(rank.next_due, now));
      if (rank.debt > 0 &&
          (rank.debt >= refresh_.max_postponed || !rank_has_demand(r))) {
        at = std::min(at, std::max(rank_refresh_ready(r), now));
      }
    }
  }
  return at;
}

void MemoryController::checkpoint(sim::StateIO& io) {
  io.expect(static_cast<u32>(banks_.size()), "bank count");
  for (Bank& bank : banks_) {
    io.field(bank.has_open_row);
    io.field(bank.open_row);
    io.field(bank.ready_at);
    io.field(bank.activated_at);
    io.field(bank.accesses);
  }
  io.expect(static_cast<u32>(ranks_.size()), "rank count");
  for (RankState& rank : ranks_) {
    io.field(rank.next_due);
    io.field(rank.debt);
  }
  io.field(next_order_);
  io.field(bus_free_at_);
  io.field(busy_ps_);
  u64 sequence = injector_ != nullptr ? injector_->transfers_drawn() : ~u64{0};
  io.field(sequence);
  io.require((sequence == ~u64{0}) == (injector_ == nullptr),
             "fault-injection mode");
  if (io.loading() && injector_ != nullptr) injector_->set_sequence(sequence);
}

std::string MemoryController::debug_dump() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "  dram: queue=%u/%u in_flight=%u bus_free_at=%llu\n",
                queue_size(), queue_capacity(), in_flight_size(),
                static_cast<unsigned long long>(bus_free_at_));
  out += line;
  for (const Pending& p : queue_) {
    std::snprintf(line, sizeof(line),
                  "    queued addr=0x%llx bytes=%u bank=%u attempts=%u\n",
                  static_cast<unsigned long long>(p.request.addr),
                  p.request.bytes, p.coord.rank * cfg_.banks + p.coord.bank,
                  p.attempts);
    out += line;
  }
  for (const InFlight& f : in_flight_) {
    std::snprintf(line, sizeof(line),
                  "    in-flight addr=0x%llx bytes=%u done_at=%llu%s\n",
                  static_cast<unsigned long long>(f.request.addr),
                  f.request.bytes,
                  static_cast<unsigned long long>(f.done_at),
                  f.needs_retry ? " (retry pending)" : "");
    out += line;
  }
  for (u32 b = 0; b < banks_.size(); ++b) {
    std::snprintf(line, sizeof(line),
                  "    bank[%u] open=%d row=%llu ready_at=%llu\n", b,
                  banks_[b].has_open_row ? 1 : 0,
                  static_cast<unsigned long long>(banks_[b].open_row),
                  static_cast<unsigned long long>(banks_[b].ready_at));
    out += line;
  }
  if (refresh_.enabled) {
    for (u32 r = 0; r < ranks_.size(); ++r) {
      std::snprintf(line, sizeof(line),
                    "    rank[%u] refresh_debt=%u next_due=%llu\n", r,
                    ranks_[r].debt,
                    static_cast<unsigned long long>(ranks_[r].next_due));
      out += line;
    }
  }
  return out;
}

}  // namespace mlp::mem
