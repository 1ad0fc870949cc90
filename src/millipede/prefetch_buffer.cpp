#include "millipede/prefetch_buffer.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/units.hpp"

namespace mlp::millipede {

PrefetchBuffer::PrefetchBuffer(const MachineConfig& cfg, RowPlan plan,
                               mem::ChannelDemux* ctrl,
                               RateMatcher* rate_matcher, bool flow_control,
                               StatSet* stats, const std::string& prefix,
                               trace::TraceSession* trace)
    : mem::Requester(ctrl),
      cfg_(cfg),
      plan_(std::move(plan)),
      ctrl_(ctrl),
      rate_matcher_(rate_matcher),
      flow_control_(flow_control),
      trace_(trace),
      num_entries_(cfg.millipede.pf_entries),
      slab_bytes_(cfg.dram.row_bytes / cfg.core.cores),
      slab_words_(slab_bytes_ / 4),
      row_shift_(log2_exact(cfg.dram.row_bytes)),
      hit_latency_ps_(static_cast<Picos>(cfg.millipede.pb_hit_latency) *
                      cfg.core.period_ps()),
      entries_(num_entries_),
      next_row_(plan_.first_row) {
  MLP_CHECK(ctrl_ != nullptr, "prefetch buffer needs a controller");
  MLP_SIM_CHECK(slab_words_ <= 64, "config",
                "slab word mask limited to 64 words");
  MLP_CHECK(plan_.expected_mask != nullptr, "row plan needs an expected mask");
  if (stats != nullptr) {
    stats->add(prefix + ".row_prefetches", &row_prefetches_);
    stats->add(prefix + ".hits", &hits_);
    stats->add(prefix + ".fill_waits", &fill_waits_);
    stats->add(prefix + ".flow_waits", &flow_waits_);
    stats->add(prefix + ".premature_evictions", &premature_evictions_);
    stats->add(prefix + ".direct_fetches", &direct_fetches_);
    stats->add(prefix + ".votes_memory", &votes_memory_);
    stats->add(prefix + ".votes_compute", &votes_compute_);
  }
}

u32 PrefetchBuffer::index_of(u64 row) const {
  // row is in the window, so the sum is below twice the entry count: wrap
  // with a subtraction rather than a division on every demand access.
  const u32 index = head_ + static_cast<u32>(row - head_row());
  return index >= num_entries_ ? index - num_entries_ : index;
}

PrefetchBuffer::Entry* PrefetchBuffer::find(u64 row) {
  if (count_ == 0) return nullptr;
  if (row < head_row() || row >= head_row() + count_) return nullptr;
  Entry& entry = entries_[index_of(row)];
  MLP_CHECK(entry.valid && entry.row == row, "prefetch queue out of order");
  return &entry;
}

void PrefetchBuffer::prime(Picos now) {
  const u64 end = plan_.first_row + plan_.num_rows;
  // Steady-state run-ahead equals the priming depth (each entry's first
  // demand access triggers exactly one further row), so prime deep enough
  // to cover all the rows a record's fields touch concurrently — by default
  // the whole queue, as in the paper.
  const u32 depth = cfg_.millipede.prime_rows == 0
                        ? num_entries_
                        : cfg_.millipede.prime_rows;
  while (count_ < depth && next_row_ < end) allocate_next(now);
}

void PrefetchBuffer::allocate_next(Picos now) {
  MLP_CHECK(count_ < num_entries_, "allocation into a full queue");
  const u64 row = next_row_++;
  Entry& entry = entries_[(head_ + count_) % num_entries_];
  ++count_;
  entry.row = row;
  entry.valid = true;
  entry.filled = false;
  entry.pft = true;
  entry.df = 0;
  entry.consumed.assign(cfg_.core.cores, 0);
  entry.expected.resize(cfg_.core.cores);
  for (u32 c = 0; c < cfg_.core.cores; ++c) {
    entry.expected[c] = plan_.expected_mask(row, c);
    if (entry.expected[c] == 0) ++entry.df;  // nothing to consume
  }
  entry.waiters.clear();
  entry.demanded_before_fill = false;
  // Leading corelets already blocked on this row (flow-control waits): the
  // demand clearly precedes the data.
  auto pending = future_waiters_.find(row);
  if (pending != future_waiters_.end()) {
    entry.waiters = std::move(pending->second);
    entry.demanded_before_fill = !entry.waiters.empty();
    future_waiters_.erase(pending);
  }
  issue_prefetch(row, now);
}

void PrefetchBuffer::issue_prefetch(u64 row, Picos now) {
  mem::MemRequest req;
  req.addr = ctrl_->address_map().row_base(row);
  req.bytes = cfg_.dram.row_bytes;
  req.is_prefetch = true;
  req.done = {this, static_cast<u32>(row)};
  row_prefetches_.inc();
  if (trace_ != nullptr) {
    trace_->emit(trace::Domain::kChannel, trace::EventKind::kPrefetchIssue,
                 now, trace::kPrefetchTrack, row);
  }
  submit(std::move(req), now);
}

void PrefetchBuffer::wake(u32 index, Picos at) {
  const u64 row = index;
  Entry* entry = find(row);
  if (entry == nullptr) return;  // evicted before arrival (no flow control)
  entry->filled = true;
  if (trace_ != nullptr) {
    trace_->emit(trace::Domain::kChannel, trace::EventKind::kPrefetchFill, at,
                 trace::kPrefetchTrack, row);
  }
  std::vector<sim::Wake> waiters = std::move(entry->waiters);
  entry->waiters.clear();
  for (const sim::Wake& waiter : waiters) waiter(at + hit_latency_ps_);
  retire_saturated_heads(at);
}

void PrefetchBuffer::retire_saturated_heads(Picos now) {
  while (count_ > 0) {
    Entry& head = entries_[head_];
    if (!head.filled || head.df < cfg_.core.cores) break;
    // Rate-matching signal, one vote per retired row: a row some corelet had
    // to WAIT for means the buffers ran empty ahead of compute (memory
    // behind -> slow the clock); a row whose data arrived before anyone
    // asked means memory ran ahead (compute behind -> speed up, capped at
    // nominal). The equilibrium is just-in-time delivery — exactly
    // compute-memory rate matching. Startup rows are warmup and do not vote.
    if (rate_matcher_ != nullptr &&
        retired_rows_ > 2ull * num_entries_) {
      if (head.demanded_before_fill) {
        votes_memory_.inc();
        rate_matcher_->vote_memory_bound(now);
      } else {
        votes_compute_.inc();
        rate_matcher_->vote_compute_bound(now);
      }
    }
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kChannel, trace::EventKind::kPrefetchRetire,
                   now, trace::kPrefetchTrack, head.row,
                   (u64{head.df} << 1) | (head.pft ? 1 : 0));
    }
    ++retired_rows_;
    head.valid = false;
    head_ = (head_ + 1) % num_entries_;
    --count_;
  }
  trigger(now);
}

void PrefetchBuffer::trigger(Picos now, bool force_evict) {
  const u64 end = plan_.first_row + plan_.num_rows;
  while (pending_triggers_ > 0 && next_row_ < end) {
    if (count_ < num_entries_) {
      allocate_next(now);
      --pending_triggers_;
      continue;
    }
    // Forced eviction only runs until every wrapped demand is covered.
    if (force_evict && future_waiters_.empty()) force_evict = false;
    if (flow_control_ || !force_evict) {
      // Deferred until the head's DF counter saturates. Without flow
      // control ordinary PFT triggers also wait — eviction happens only
      // when a leading corelet's demand wraps past the whole window
      // (force_evict), which is what makes it "not frequent with 16
      // buffers" in the paper.
      return;
    }
    // Premature eviction: re-allocate the unsaturated head.
    Entry& head = entries_[head_];
    if (head.df < cfg_.core.cores || !head.filled) {
      premature_evictions_.inc();
      if (trace_ != nullptr) {
        trace_->emit(trace::Domain::kChannel, trace::EventKind::kPrefetchEvict,
                     now, trace::kPrefetchTrack, head.row,
                     (u64{head.df} << 1) | (head.pft ? 1 : 0));
      }
      // Orphaned waiters must still get data: direct slab fetches.
      for (const sim::Wake& waiter : head.waiters) {
        mem::MemRequest req;
        req.addr = ctrl_->address_map().row_base(head.row);
        req.bytes = slab_bytes_;
        req.done = waiter;
        direct_fetches_.inc();
        submit(std::move(req), now);
      }
    }
    head.valid = false;
    head.waiters.clear();
    head_ = (head_ + 1) % num_entries_;
    --count_;
    allocate_next(now);
    --pending_triggers_;
  }
}

void PrefetchBuffer::checkpoint(sim::StateIO& io) {
  const u32 cores = cfg_.core.cores;
  io.expect(num_entries_, "prefetch-buffer depth");
  io.index(head_, num_entries_, "prefetch-buffer head");
  io.field(count_);
  io.require(count_ <= num_entries_, "prefetch-buffer occupancy");
  io.field(next_row_);
  io.field(pending_triggers_);
  io.field(retired_rows_);
  for (Entry& entry : entries_) {
    io.field(entry.row);
    io.field(entry.valid);
    io.field(entry.filled);
    io.field(entry.pft);
    io.field(entry.demanded_before_fill);
    io.field(entry.df);
    // Never-allocated slots carry empty masks; allocated ones one per core.
    u64 masks = entry.consumed.size();
    io.field(masks);
    io.require(masks == 0 || masks == cores, "prefetch-buffer mask width");
    entry.consumed.resize(masks);
    entry.expected.resize(masks);
    for (u64& mask : entry.consumed) io.field(mask);
    for (u64& mask : entry.expected) io.field(mask);
  }
  // The window holds rows next_row_ - count_ .. next_row_ - 1 in ring order.
  for (u32 i = 0; i < count_; ++i) {
    const Entry& entry = entries_[(head_ + i) % num_entries_];
    io.require(entry.valid && entry.consumed.size() == cores &&
                   entry.row == next_row_ - count_ + i,
               "prefetch-buffer window");
  }
  // Quiescent victim slabs are all filled, so only their keys are kept.
  std::vector<std::pair<u64, u32>> slabs;
  for (const auto& [key, slab] : victim_slabs_) slabs.push_back(key);
  u64 count = slabs.size();
  io.field(count);
  for (u64 i = 0; i < count; ++i) {
    std::pair<u64, u32> key = io.loading() ? std::pair<u64, u32>{} : slabs[i];
    io.field(key.first);
    io.index(key.second, cores, "victim-slab corelet");
    if (io.loading()) {
      victim_slabs_.try_emplace(key, hit_latency_ps_).first->second.filled =
          true;
    }
  }
}

std::string PrefetchBuffer::debug_dump() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "  pb: occupancy=%u/%u next_row=%llu pending_triggers=%u "
                "future_waiter_rows=%zu\n",
                count_, num_entries_,
                static_cast<unsigned long long>(next_row_), pending_triggers_,
                future_waiters_.size());
  out += line;
  for (u32 i = 0; i < count_; ++i) {
    const Entry& e = entries_[(head_ + i) % num_entries_];
    std::snprintf(line, sizeof(line),
                  "    entry[%u] row=%llu filled=%d pft=%d df=%u/%u "
                  "waiters=%zu\n",
                  (head_ + i) % num_entries_,
                  static_cast<unsigned long long>(e.row), e.filled ? 1 : 0,
                  e.pft ? 1 : 0, e.df, cfg_.core.cores, e.waiters.size());
    out += line;
  }
  for (const auto& [row, waiters] : future_waiters_) {
    std::snprintf(line, sizeof(line),
                  "    flow-wait row=%llu waiters=%zu (beyond window)\n",
                  static_cast<unsigned long long>(row), waiters.size());
    out += line;
  }
  return out;
}

core::PortResult PrefetchBuffer::victim_fetch(u32 core, u64 row, Picos now,
                                              sim::Wake wake) {
  auto [it, fresh] =
      victim_slabs_.try_emplace(std::make_pair(row, core), hit_latency_ps_);
  VictimSlab& slab = it->second;
  if (slab.filled) return {core::PortStatus::kDone, now + hit_latency_ps_};
  slab.waiters.push_back(wake);
  if (!fresh) return {core::PortStatus::kPending, 0};
  mem::MemRequest req;
  req.addr = ctrl_->address_map().row_base(row) +
             static_cast<Addr>(core) * slab_bytes_;
  req.bytes = slab_bytes_;
  req.done = {&slab, 0};
  direct_fetches_.inc();
  submit(std::move(req), now);
  return {core::PortStatus::kPending, 0};
}

void PrefetchBuffer::VictimSlab::wake(u32 /*index*/, Picos at) {
  filled = true;
  std::vector<sim::Wake> batch = std::move(waiters);
  waiters.clear();
  for (const sim::Wake& waiter : batch) waiter(at + hit_latency_ps);
}

core::PortResult PrefetchBuffer::load(u32 core, Addr addr, Picos now,
                                      sim::Wake wake) {
  const u64 row = addr >> row_shift_;
  Entry* entry = find(row);

  if (entry == nullptr) {
    if (count_ > 0 && row < head_row()) {
      // Only reachable without flow control: the row was prematurely
      // re-allocated before this lagging corelet consumed its slab. Pay a
      // direct DRAM fetch — once per (row, corelet) slab; later words of
      // the refetched slab hit the victim-slab side structure.
      MLP_CHECK(!flow_control_,
                "flow control must prevent post-retirement demands");
      return victim_fetch(core, row, now, wake);
    }
    // The row is beyond the allocated window: a leading corelet ran into the
    // flow-control barrier (or, without flow control, raced ahead of the
    // trigger chain). Register the demand as triggers and wait.
    MLP_CHECK(count_ == 0 || row >= next_row_,
              "demand below allocated window with flow control");
    if (row >= next_row_) {
      const u64 needed = row - next_row_ + 1;
      pending_triggers_ += static_cast<u32>(needed);
    }
    flow_waits_.inc();
    future_waiters_[row].push_back(wake);
    // A demand past the window is the "leading corelet wrapping around":
    // without flow control it may evict unsaturated heads.
    trigger(now, /*force_evict=*/!flow_control_);
    // The trigger may have allocated (and even satisfied) the row when space
    // was available; the waiter list was moved into the entry in that case.
    return {core::PortStatus::kPending, 0};
  }

  // Slab discipline: the interleaved layout routes each corelet only to its
  // own slab slice, keeping the buffer-to-corelet interconnect trivial.
  const u32 offset = static_cast<u32>(addr & (cfg_.dram.row_bytes - 1));
  const u32 slab = offset / slab_bytes_;
  MLP_CHECK(slab == core, "corelet accessed a foreign slab");
  const u32 word = (offset % slab_bytes_) / 4;

  // Decide the access outcome and update consumption state FIRST; the
  // trigger/retire calls below may re-allocate the very slot `entry` points
  // to, so no dereference is allowed after them.
  const bool was_filled = entry->filled;
  const u64 bit = u64{1} << word;
  if ((entry->consumed[core] & bit) == 0) {
    entry->consumed[core] |= bit;
    if (entry->consumed[core] == entry->expected[core]) ++entry->df;
  }
  const bool head_retires = entry == &entries_[head_] && was_filled &&
                            entry->df == cfg_.core.cores;

  core::PortResult result;
  if (was_filled) {
    hits_.inc();
    result = {core::PortStatus::kDone, now + hit_latency_ps_};
  } else {
    fill_waits_.inc();
    entry->demanded_before_fill = true;
    entry->waiters.push_back(wake);
    result = {core::PortStatus::kPending, 0};
  }

  if (entry->pft) {
    entry->pft = false;
    ++pending_triggers_;
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kCompute, trace::EventKind::kPrefetchFirstUse,
                   now, trace::kPrefetchTrack, row,
                   (u64{entry->df} << 1) | (was_filled ? 1 : 0));
    }
  }
  if (head_retires) {
    retire_saturated_heads(now);  // also runs trigger()
  } else {
    trigger(now);
  }
  return result;
}

}  // namespace mlp::millipede
