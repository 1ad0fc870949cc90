#pragma once
// Set-associative, write-back, write-allocate cache with MSHRs and a retry
// path for controller backpressure. Used as: SSMC per-core 5 KB L1D, GPGPU
// per-SM 32 KB L1D, and the conventional multicore's L1/L2 (an L2 cache can
// serve as another cache's backend: it refuses an upstream miss while its
// MSHRs are full and wakes the parked upstream cache when one retires).
// Timing-only: data comes from DramImage.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "mem/req.hpp"
#include "sim/snapshot.hpp"
#include "sim/tickable.hpp"
#include "sim/wake.hpp"

namespace mlp::mem {

enum class AccessStatus : u8 {
  kHit,       ///< data available after the cache's hit latency
  kMiss,      ///< an MSHR tracks the fill; callback fires on arrival
  kMshrFull,  ///< structural stall: retry next cycle
};

class Cache : public MemBackend, public Requester,
              public sim::Snapshottable {
 public:
  Cache(std::string name, u32 size_bytes, u32 line_bytes, u32 assoc, u32 mshrs,
        Picos hit_latency_ps, MemBackend* backend, StatSet* stats);

  /// Demand access. On kMiss, `on_fill` fires once the line (plus hit
  /// latency) is available; on kHit the caller adds hit_latency itself.
  AccessStatus access(Addr addr, bool is_write, Picos now, sim::Wake on_fill);

  /// Best-effort prefetch of the line containing `addr`; silently dropped if
  /// the line is present, already being fetched, or no MSHR is free.
  void prefetch(Addr addr, Picos now);

  // Requester (the channel-domain Tickable): a channel edge retries
  // downstream requests (fills, writebacks) the backend refused; fills
  // arrive via backend callbacks, not self-scheduled work.

  /// MemBackend: lets this cache be another cache's next level.
  bool request(MemRequest request, Picos now) override;
  void park(Requester* requester) override { upstream_.push_back(requester); }
  void count_refusals(u64 n) override { mshr_stalls_.inc(n); }

  bool quiescent() const override {
    return mshrs_.empty() && nothing_waiting();
  }

  // sim::Snapshottable: the full tag/LRU/dirty array plus the LRU clock;
  // MSHRs hold waiters and the issue queue callbacks, so capture requires
  // quiesce.
  void checkpoint(sim::StateIO& io) override;

  Picos hit_latency_ps() const { return hit_latency_ps_; }
  u32 line_bytes() const { return line_bytes_; }

 private:
  struct Line {
    bool dirty = false;
    bool prefetched = false;  ///< filled by prefetch, not yet demanded
    u64 tag = 0;
    u64 lru = 0;
  };

  /// One line in flight. A cache serves either cores (wakes) or the
  /// cache above it (forwarded request completions), never both.
  struct Mshr {
    bool is_prefetch = false;
    bool dirty = false;  ///< some merged demand was a write
    std::vector<sim::Wake> waiters;
    std::vector<std::function<void(Picos)>> forwards;
  };

  Addr line_base(Addr addr) const { return addr & ~static_cast<Addr>(line_bytes_ - 1); }
  /// XOR-folded set index: the interleaved layout strides streams by whole
  /// DRAM rows (2 KB = 16 lines), which would alias every stream of a core
  /// into one set of a small cache. Real L1s hash the index for exactly this
  /// reason; fold higher line-number bits in.
  u32 set_of(Addr line) const {
    const u64 n = tag_of(line);
    return static_cast<u32>((n ^ (n >> 4) ^ (n >> 8)) & (sets_ - 1));
  }
  /// The line number (a shift: the line size is a power of two).
  u64 tag_of(Addr line) const { return line >> line_shift_; }

  Line* find(Addr line);
  /// The hit / MSHR-merge / MSHR-allocate decision of a demand access or an
  /// upstream request; on a miss `wait(mshr)` registers the waiter before
  /// the fill is queued.
  template <typename Wait>
  AccessStatus lookup(Addr addr, bool is_write, Picos now, Wait wait);
  void install(Addr line, bool dirty, bool prefetched, Picos now);
  void queue_fill(Addr line, Picos now);
  void on_fill_arrived(Addr line, Picos at);

  std::string name_;
  u32 line_bytes_;
  u32 line_shift_;  ///< log2(line_bytes_)
  u32 sets_;
  u32 assoc_;
  u32 max_mshrs_;
  Picos hit_latency_ps_;

  /// [set] -> its valid ways in way order. No line is ever invalidated, so
  /// a set fills its ways in order and its invalid ways are exactly those
  /// past the stored ones: host memory follows the lines installed rather
  /// than the capacity (the multicore's L2 is 1 MB per core).
  std::vector<std::vector<Line>> lines_;
  std::map<Addr, Mshr> mshrs_;            ///< keyed by line base address
  std::vector<Requester*> upstream_;      ///< refused for want of an MSHR
  u64 lru_clock_ = 0;

  Counter hits_, misses_, mshr_merges_, mshr_stalls_, writebacks_,
      prefetch_issued_, prefetch_useful_, evictions_;
};

}  // namespace mlp::mem
