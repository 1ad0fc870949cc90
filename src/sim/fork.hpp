#pragma once
// Warm-snapshot forking for sweep grids (mlpsweep --fork-at) and the
// mlpserved snapshot cache. Sweep points that differ ONLY in fault-injection
// rates share a bit-identical warmup: the machine state at a quiescent cycle
// N is independent of the fault configuration as long as no fault fired in
// the first N cycles under either configuration — which FaultInjector's
// deterministic draw stream lets us prove without simulating
// (FaultInjector::transfer_clean). run_matrix_forked simulates each group's
// warmup ONCE in a leader run that captures a snapshot at cycle N, then
// restores the divergent members from the warm blob. Results are merged in
// submission order and are byte-identical to an unforked run (enforced by
// snapshot_test and the CI checkpoint-equivalence step); only the simulated
// warmup cycles are saved.

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runner.hpp"

namespace mlp::sim {

/// True when the runs of `a` and `b` are identical up to any cycle where no
/// fault has fired: same architecture, same preparation (prepare_key), and
/// equal MachineConfigs once the three fault rates (bit flip, delay, drop)
/// are masked. Whether fault injection is wired at all still counts, since
/// the snapshot records the injector's draw sequence. A field added to any
/// config struct joins the comparison without being listed. Compatible
/// jobs may share a warm snapshot when the fault streams check out clean.
bool fork_compatible(const MatrixJob& a, const MatrixJob& b);

/// True when `member` can be restored from a snapshot `leader` captured:
/// fork-compatible, and no fault draw among the `fault_sequence` transfers
/// the leader consumed before capture would have fired under EITHER config
/// (a conservative per-transfer bound of one DRAM row). Unsafe members simply
/// run in full — correctness never depends on this predicate.
bool fork_safe(const MatrixJob& leader, const MatrixJob& member,
               u64 fault_sequence);

/// What forking saved and skipped (reported by mlpsweep to stderr and into
/// the stats-JSON "fork" footer under --fleet-stats).
struct ForkStats {
  u64 groups = 0;         ///< multi-point groups that captured a snapshot
  u64 forked_points = 0;  ///< members restored from a warm snapshot
  u64 unsafe_points = 0;  ///< members that ran in full (dirty fault stream,
                          ///< leader miss/failure, or traced point)
  u64 warmup_cycles_saved = 0;  ///< sum of captured cycles skipped
};

/// run_matrix with warm-snapshot forking: group `jobs` by fork_compatible,
/// run each multi-point group's first job as a capturing leader (checkpoint
/// at the first quiescent cycle >= fork_at), then restore the remaining
/// members from the leader's blob. Singleton groups, traced jobs and unsafe
/// members run exactly as run_matrix would. Results are in submission
/// order, byte-identical to run_matrix for any thread count.
std::vector<MatrixResult> run_matrix_forked(const std::vector<MatrixJob>& jobs,
                                            u64 fork_at, u32 threads = 0,
                                            PrepareCache* cache = nullptr,
                                            ForkStats* fork_stats = nullptr);

/// Thread-safe LRU cache of captured snapshot blobs, keyed by (architecture,
/// benchmark, knobs, requested checkpoint cycle) — the mlpserved
/// `snapshot`/`restore` verbs. Blobs are shared_ptr so a restore can run
/// against an entry concurrently evicted by a later capture.
class SnapshotCache {
 public:
  explicit SnapshotCache(std::size_t max_entries = kDefaultEntries);

  struct Entry {
    std::string blob;
    u64 captured_cycle = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  void put(const std::string& key, std::string blob, u64 captured_cycle);
  /// nullptr on miss.
  EntryPtr get(const std::string& key);

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 entries = 0;
    u64 blob_bytes = 0;
  };
  Stats stats() const;

  static constexpr std::size_t kDefaultEntries = 16;

 private:
  struct Node {
    std::string key;
    EntryPtr value;
  };

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::list<Node> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  Stats stats_;
};

}  // namespace mlp::sim
