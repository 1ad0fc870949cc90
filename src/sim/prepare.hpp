#pragma once
// Memoizable job preparation: everything about a simulation job that does
// NOT depend on the architecture that will run it — the assembled kernel
// binary, the generated record set materialized in the initial DramImage,
// the interleaved layout, and the host golden verification reference. A
// 4-architecture x 8-benchmark matrix shares one PreparedJob per benchmark
// instead of assembling and generating 32 times; the mlpserved daemon keeps
// these warm across whole client sessions in an LRU-bounded PrepareCache.
//
// Sharing is safe because runs never mutate a PreparedJob: run_arch copies
// the prepared input (the controller attaches to — and no-ECC fault
// injection corrupts — the copy), and the Workload's closures only read
// their captured state.

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/lru.hpp"
#include "sim/runner.hpp"

namespace mlp::sim {

/// The architecture-independent artifacts of one job, produced once and
/// shared (read-only) by every run with an equivalent preparation key.
struct PreparedJob {
  workloads::Workload workload;  ///< assembled program + generators + schema
  arch::PreparedInput input;     ///< layout + pristine image + golden ref

  u64 bytes() const { return input.image.size(); }
};

using PreparedJobPtr = std::shared_ptr<const PreparedJob>;

/// Canonical cache key: exactly the fields preparation reads — benchmark,
/// effective record count (explicit or sized by rows), generation seed, the
/// record-barrier ablation (compiled into the kernel), and the layout
/// geometry (DRAM row bytes + slab-interleaving switch). Deliberately NOT
/// keyed on the architecture or any timing parameter.
std::string prepare_key(const MatrixJob& job);

/// Process- and platform-independent 64-bit FNV-1a hash. Multi-node sweep
/// sharding hashes prepare keys with this (NOT std::hash, whose value is
/// implementation-defined), so job→node assignment is stable across runs,
/// builds and machines — the property that keeps each node's PrepareCache
/// hot over repeated grids.
u64 stable_hash64(const std::string& text);

/// Build the job's artifacts (uncached). Throws SimError for preparation
/// failures (unknown benchmark, slab layout on a non-power-of-two record
/// width, ...); callers at the run_job boundary convert those into per-job
/// errors.
PreparedJobPtr prepare_job(const MatrixJob& job);

/// Point-in-time counters of a PrepareCache (exposed through the mlpserved
/// `status` response and the tools' --cache-stats reporting).
struct PrepareCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;
  u64 image_bytes = 0;  ///< total pristine-image bytes held
};

/// Thread-safe LRU-bounded memoization of prepare_job. A miss prepares
/// outside the lock, once per key: a concurrent get of the same key waits
/// for that preparation and counts as a hit, and a failed preparation
/// rethrows its SimError to every waiter and caches nothing. Misses on
/// different keys prepare concurrently.
class PrepareCache {
 public:
  explicit PrepareCache(std::size_t max_entries = kDefaultEntries);

  /// Memoized prepare_job. `hit` (optional) reports whether the entry was
  /// already warm — the mlpserved per-job cache-hit flag.
  PreparedJobPtr get(const MatrixJob& job, bool* hit = nullptr);

  PrepareCacheStats stats() const { return lru_.stats(); }

  static constexpr std::size_t kDefaultEntries = 64;

 private:
  LruCache<PreparedJob, PrepareCacheStats, &PrepareCacheStats::image_bytes>
      lru_;
  std::mutex mutex_;  ///< guards preparing_; taken before lru_'s own lock
  std::unordered_map<std::string, std::shared_future<PreparedJobPtr>>
      preparing_;
};

}  // namespace mlp::sim
