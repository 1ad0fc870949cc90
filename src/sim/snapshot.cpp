// Warm-snapshot forking (sim/fork.hpp): fork grouping, the provable
// fault-stream safety predicate, the two-phase forked matrix runner, and the
// mlpserved snapshot blob cache.

#include "sim/fork.hpp"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "mem/fault.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"
#include "sim/snapshot.hpp"

namespace mlp::sim {

namespace {

/// The config with the three fault rates masked. Injector presence stays,
/// folded into the bit-flip rate: a snapshot records the injector's draw
/// cursor, so a no-injector machine cannot restore an injector one.
MachineConfig fork_config(const MachineConfig& cfg) {
  MachineConfig out = cfg;
  FaultConfig& fault = out.dram.fault;
  fault.bit_flip_rate = fault.enabled() ? 1.0 : 0.0;
  fault.delay_rate = 0.0;
  fault.drop_rate = 0.0;
  return out;
}

}  // namespace

bool fork_compatible(const MatrixJob& a, const MatrixJob& b) {
  return a.kind == b.kind && prepare_key(a) == prepare_key(b) &&
         fork_config(a.options.cfg) == fork_config(b.options.cfg);
}

bool fork_safe(const MatrixJob& leader, const MatrixJob& member,
               u64 fault_sequence) {
  if (!fork_compatible(leader, member)) return false;
  // Every transfer the leader's injector drew before capture must have been
  // clean — no flip, no delay, no drop — under BOTH fault configurations;
  // then the member's uninterrupted warmup is bit-identical to the leader's,
  // draw cursor included. One DRAM row bounds any transfer's size.
  const FaultConfig& a = leader.options.cfg.dram.fault;
  const FaultConfig& b = member.options.cfg.dram.fault;
  const u32 bound = leader.options.cfg.dram.row_bytes;
  for (u64 seq = 1; seq <= fault_sequence; ++seq) {
    if (!mem::FaultInjector::transfer_clean(a, seq, bound)) return false;
    if (!mem::FaultInjector::transfer_clean(b, seq, bound)) return false;
  }
  return true;
}

std::vector<MatrixResult> run_matrix_forked(const std::vector<MatrixJob>& jobs,
                                            u64 fork_at, u32 threads,
                                            PrepareCache* cache,
                                            ForkStats* fork_stats) {
  const std::size_t n = jobs.size();
  std::vector<MatrixResult> results(n);

  // Group by fork_compatible: bucket by architecture and prepare key, each
  // computed once per job, then split each bucket by masked config. Traced
  // jobs never fork: a restored member's trace would lack the warmup events
  // an unforked run records, breaking per-point trace byte-identity. Jobs
  // without a prepare key (unknown benchmark, unsizable input) run solo
  // and fail in run_job exactly as run_matrix would fail them.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    try {
      key = std::string(arch::arch_name(jobs[i].kind)) + "|" +
            prepare_key(jobs[i]);
    } catch (const SimError&) {
      // No prepare key: the job runs solo.
    }
    if (key.empty() || jobs[i].options.trace.enabled()) {
      groups.push_back({i});
      continue;
    }
    std::vector<std::size_t>& bucket = buckets[key];
    const MachineConfig cfg = fork_config(jobs[i].options.cfg);
    const auto group = std::find_if(
        bucket.begin(), bucket.end(), [&](std::size_t g) {
          return fork_config(jobs[groups[g].front()].options.cfg) == cfg;
        });
    if (group != bucket.end()) {
      groups[*group].push_back(i);
    } else {
      bucket.push_back(groups.size());
      groups.push_back({i});
    }
  }

  // Leaders capture; everyone else in phase 1 runs plain. group_of[i] points
  // members at their leader's plan.
  std::vector<SnapshotPlan> plans;
  std::vector<std::size_t> leader_of(n, n);  // member index -> leader index
  std::vector<std::size_t> plan_of(n, ~std::size_t{0});
  std::vector<std::size_t> phase1, phase2;
  for (const std::vector<std::size_t>& bucket : groups) {
    if (bucket.size() < 2) {
      phase1.push_back(bucket.front());
      continue;
    }
    const std::size_t leader = bucket.front();
    plans.emplace_back();
    plans.back().capture = true;
    plans.back().checkpoint_at = fork_at;
    const std::size_t plan_index = plans.size() - 1;
    plan_of[leader] = plan_index;
    phase1.push_back(leader);
    for (std::size_t k = 1; k < bucket.size(); ++k) {
      leader_of[bucket[k]] = leader;
      plan_of[bucket[k]] = plan_index;
      phase2.push_back(bucket[k]);
    }
  }
  std::sort(phase1.begin(), phase1.end());
  std::sort(phase2.begin(), phase2.end());

  ForkStats local;
  std::mutex stats_mutex;

  const auto run_one_phase1 = [&](std::size_t i) {
    SnapshotPlan* plan =
        plan_of[i] != ~std::size_t{0} ? &plans[plan_of[i]] : nullptr;
    results[i] = run_job(jobs[i], cache, nullptr, plan);
  };
  const auto run_one_phase2 = [&](std::size_t i) {
    const std::size_t leader = leader_of[i];
    const SnapshotPlan& plan = plans[plan_of[i]];
    bool restored = false;
    if (results[leader].ok() && plan.captured_ok &&
        fork_safe(jobs[leader], jobs[i],
                  snapshot_meta(plan.captured).fault_sequence)) {
      SnapshotPlan restore;
      restore.restore_from = &plan.captured;
      results[i] = run_job(jobs[i], cache, nullptr, &restore);
      // A restore failure is defensive-only: rerun in full so the merged
      // results stay byte-identical to an unforked matrix.
      restored = results[i].ok();
    }
    if (!restored) results[i] = run_job(jobs[i], cache);
    std::lock_guard<std::mutex> lock(stats_mutex);
    if (restored) {
      ++local.forked_points;
      local.warmup_cycles_saved += plan.captured_cycle;
    } else {
      ++local.unsafe_points;
    }
  };

  const auto run_phase = [&](const std::vector<std::size_t>& indices,
                             const auto& fn, ThreadPool* pool) {
    if (pool == nullptr) {
      for (const std::size_t i : indices) fn(i);
      return;
    }
    std::vector<std::future<void>> pending;
    pending.reserve(indices.size());
    for (const std::size_t i : indices) {
      pending.push_back(pool->submit([&fn, i] { fn(i); }));
    }
    for (std::future<void>& f : pending) f.get();
  };

  if (threads == 0) threads = ThreadPool::default_threads();
  threads = static_cast<u32>(
      std::min<std::size_t>(threads, std::max<std::size_t>(1, n)));
  if (threads <= 1) {
    run_phase(phase1, run_one_phase1, nullptr);
    run_phase(phase2, run_one_phase2, nullptr);
  } else {
    ThreadPool pool(threads);
    run_phase(phase1, run_one_phase1, &pool);
    run_phase(phase2, run_one_phase2, &pool);
  }

  for (const SnapshotPlan& plan : plans) {
    if (plan.captured_ok) ++local.groups;
  }
  if (fork_stats != nullptr) *fork_stats = local;
  return results;
}

SnapshotCache::SnapshotCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

void SnapshotCache::put(const std::string& key, std::string blob,
                        u64 captured_cycle) {
  auto value = std::make_shared<const Entry>(
      Entry{std::move(blob), captured_cycle});
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.blob_bytes -= it->second->value->blob.size();
    it->second->value = std::move(value);
    stats_.blob_bytes += it->second->value->blob.size();
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key, std::move(value)});
  index_[key] = lru_.begin();
  stats_.blob_bytes += lru_.front().value->blob.size();
  while (lru_.size() > max_entries_) {
    const Node& victim = lru_.back();
    stats_.blob_bytes -= victim.value->blob.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

SnapshotCache::EntryPtr SnapshotCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->value;
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = lru_.size();
  return out;
}

}  // namespace mlp::sim
