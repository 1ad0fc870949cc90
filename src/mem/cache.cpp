#include "mem/cache.hpp"

#include "common/units.hpp"

namespace mlp::mem {

Cache::Cache(std::string name, u32 size_bytes, u32 line_bytes, u32 assoc,
             u32 mshrs, Picos hit_latency_ps, MemBackend* backend,
             StatSet* stats)
    : Requester(backend),
      name_(std::move(name)),
      line_bytes_(line_bytes),
      line_shift_(log2_exact(line_bytes)),
      sets_(size_bytes / (line_bytes * assoc)),
      assoc_(assoc),
      max_mshrs_(mshrs),
      hit_latency_ps_(hit_latency_ps) {
  MLP_CHECK(sets_ > 0 && is_pow2(sets_), "cache sets must be a power of two");
  MLP_CHECK(is_pow2(line_bytes_), "line size must be a power of two");
  MLP_CHECK(backend != nullptr, "cache needs a backend");
  lines_.resize(sets_);
  if (stats != nullptr) {
    stats->add(name_ + ".hits", &hits_);
    stats->add(name_ + ".misses", &misses_);
    stats->add(name_ + ".mshr_merges", &mshr_merges_);
    stats->add(name_ + ".mshr_stalls", &mshr_stalls_);
    stats->add(name_ + ".writebacks", &writebacks_);
    stats->add(name_ + ".prefetch_issued", &prefetch_issued_);
    stats->add(name_ + ".prefetch_useful", &prefetch_useful_);
    stats->add(name_ + ".evictions", &evictions_);
  }
}

Cache::Line* Cache::find(Addr line) {
  const u64 tag = tag_of(line);
  for (Line& way : lines_[set_of(line)]) {
    if (way.tag == tag) return &way;
  }
  return nullptr;
}

template <typename Wait>
AccessStatus Cache::lookup(Addr addr, bool is_write, Picos now, Wait wait) {
  const Addr line = line_base(addr);
  if (Line* hit = find(line)) {
    hit->lru = ++lru_clock_;
    hit->dirty |= is_write;
    if (hit->prefetched) {
      hit->prefetched = false;
      prefetch_useful_.inc();
    }
    hits_.inc();
    return AccessStatus::kHit;
  }

  auto it = mshrs_.find(line);
  if (it != mshrs_.end()) {
    wait(it->second);
    it->second.dirty |= is_write;
    it->second.is_prefetch = false;  // demand access upgrades a prefetch
    mshr_merges_.inc();
    misses_.inc();
    return AccessStatus::kMiss;
  }

  if (mshrs_.size() >= max_mshrs_) {
    mshr_stalls_.inc();
    return AccessStatus::kMshrFull;
  }

  Mshr& mshr = mshrs_[line];
  wait(mshr);
  mshr.dirty = is_write;
  misses_.inc();
  queue_fill(line, now);
  return AccessStatus::kMiss;
}

AccessStatus Cache::access(Addr addr, bool is_write, Picos now,
                           sim::Wake on_fill) {
  return lookup(addr, is_write, now,
                [on_fill](Mshr& mshr) { mshr.waiters.push_back(on_fill); });
}

void Cache::prefetch(Addr addr, Picos now) {
  const Addr line = line_base(addr);
  if (find(line) != nullptr) return;
  if (mshrs_.count(line) != 0) return;
  if (mshrs_.size() >= max_mshrs_) return;
  Mshr& mshr = mshrs_[line];
  mshr.is_prefetch = true;
  prefetch_issued_.inc();
  queue_fill(line, now);
}

void Cache::queue_fill(Addr line, Picos now) {
  MemRequest fill;
  fill.addr = line;
  fill.bytes = line_bytes_;
  fill.is_write = false;
  fill.is_prefetch = mshrs_[line].is_prefetch;
  fill.on_complete = [this, line](Picos at) { on_fill_arrived(line, at); };
  submit(std::move(fill), now);
}

void Cache::on_fill_arrived(Addr line, Picos at) {
  auto it = mshrs_.find(line);
  MLP_CHECK(it != mshrs_.end(), "fill for unknown MSHR");
  Mshr mshr = std::move(it->second);
  mshrs_.erase(it);
  wake_parked(&upstream_, at);  // the freed MSHR may admit a refused miss

  // A demand merge clears is_prefetch, so a prefetch-only MSHR has no
  // waiters: its line installs as prefetched.
  install(line, mshr.dirty, mshr.is_prefetch, at);
  for (const sim::Wake& waiter : mshr.waiters) waiter(at + hit_latency_ps_);
  for (const auto& forward : mshr.forwards) forward(at + hit_latency_ps_);
}

void Cache::install(Addr line, bool dirty, bool prefetched, Picos now) {
  auto& set = lines_[set_of(line)];
  Line* victim = nullptr;
  if (set.size() < assoc_) {
    victim = &set.emplace_back();  // the set's first invalid way
  } else {
    victim = &set.front();  // least recently used, first on ties
    for (Line& way : set) {
      if (way.lru < victim->lru) victim = &way;
    }
    evictions_.inc();
    if (victim->dirty) {
      // The tag holds the full line number (the set index is hashed).
      const Addr victim_line = victim->tag * line_bytes_;
      MemRequest wb;
      wb.addr = victim_line;
      wb.bytes = line_bytes_;
      wb.is_write = true;
      writebacks_.inc();
      submit(std::move(wb), now);
    }
  }
  victim->dirty = dirty;
  victim->prefetched = prefetched;
  victim->tag = tag_of(line);
  victim->lru = ++lru_clock_;
}

void Cache::checkpoint(sim::StateIO& io) {
  io.expect(sets_, "cache set count");
  io.expect(assoc_, "cache way count");
  for (auto& set : lines_) {
    // Restore rebuilds each set's valid prefix from the per-way flags.
    if (io.loading()) set.clear();
    for (u32 way = 0; way < assoc_; ++way) {
      bool valid = way < set.size();
      Line line = valid ? set[way] : Line{};
      io.field(valid);
      io.field(line.dirty);
      io.field(line.prefetched);
      io.field(line.tag);
      io.field(line.lru);
      if (!io.loading() || !valid) continue;
      io.require(set.size() == way, "cache valid way after an invalid one");
      set.push_back(line);
    }
  }
  io.field(lru_clock_);
}

bool Cache::request(MemRequest request, Picos now) {
  // Serving as a backend (e.g. L2 under L1): a hit completes after our hit
  // latency; a miss is tracked by an MSHR like any demand access.
  MLP_CHECK(request.bytes <= line_bytes_, "upstream line larger than ours");
  std::function<void(Picos)>& done = request.on_complete;
  const AccessStatus status =
      lookup(request.addr, request.is_write, now, [&done](Mshr& mshr) {
        if (done) mshr.forwards.push_back(std::move(done));
      });
  if (status == AccessStatus::kHit) {
    if (done) done(now + hit_latency_ps_);
    return true;
  }
  return status != AccessStatus::kMshrFull;
}

}  // namespace mlp::mem
