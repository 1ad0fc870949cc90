// Warm-snapshot forking (sim/fork.hpp): fork-key grouping, the provable
// fault-stream safety predicate, the two-phase forked matrix runner, and the
// mlpserved snapshot blob cache.

#include "sim/fork.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <unordered_map>

#include "mem/fault.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"
#include "sim/snapshot.hpp"

namespace mlp::sim {

namespace {

void append_kv(std::string& out, const char* name, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "|%s%.17g", name, value);
  out += buf;
}

void append_kv(std::string& out, const char* name, u64 value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "|%s%llu", name,
                static_cast<unsigned long long>(value));
  out += buf;
}

void append_kv(std::string& out, const char* name, bool value) {
  out += '|';
  out += name;
  out += value ? '1' : '0';
}

void append_kv(std::string& out, const char* name, const std::string& value) {
  out += '|';
  out += name;
  out += value;
}

}  // namespace

std::string fork_key(const MatrixJob& job) {
  const MachineConfig& c = job.options.cfg;
  // arch + preparation identity (bench, effective records, data seed,
  // record-barrier, row geometry, slab layout)...
  std::string key = std::string(arch::arch_name(job.kind)) + "|" +
                    prepare_key(job);
  // ...then EVERY remaining knob that shapes the run, except the three
  // fault-firing rates — those are exactly what forked points diverge in.
  // The injector's presence bit stays: a snapshot records the draw-sequence
  // cursor, so a no-injector machine cannot restore an injector one.
  const FaultConfig& f = c.dram.fault;
  append_kv(key, "fen", f.enabled());
  append_kv(key, "fdc", u64{f.delay_cycles});
  append_kv(key, "fs", f.seed);
  append_kv(key, "fecc", f.ecc);
  append_kv(key, "fmr", u64{f.max_retries});
  append_kv(key, "drb", u64{c.dram.row_bytes});
  append_kv(key, "dbk", u64{c.dram.banks});
  append_kv(key, "dmhz", c.dram.channel_mhz);
  append_kv(key, "dcb", u64{c.dram.channel_bits});
  append_kv(key, "dcas", u64{c.dram.t_cas});
  append_kv(key, "drp", u64{c.dram.t_rp});
  append_kv(key, "drcd", u64{c.dram.t_rcd});
  append_kv(key, "dras", u64{c.dram.t_ras});
  append_kv(key, "dqd", u64{c.dram.queue_depth});
  append_kv(key, "dbe", c.dram.bus_efficiency);
  append_kv(key, "dch", u64{c.dram.channels});
  append_kv(key, "drk", u64{c.dram.ranks});
  append_kv(key, "dmap", c.dram.mapping);
  append_kv(key, "dpp", c.dram.page_policy);
  append_kv(key, "dref", c.dram.refresh);
  append_kv(key, "cmhz", c.core.clock_mhz);
  append_kv(key, "cc", u64{c.core.cores});
  append_kv(key, "cx", u64{c.core.contexts});
  append_kv(key, "cr", u64{c.core.regs});
  append_kv(key, "cic", u64{c.core.icache_bytes});
  append_kv(key, "clm", u64{c.core.local_mem_bytes});
  append_kv(key, "cll", u64{c.core.local_latency});
  append_kv(key, "cbp", u64{c.core.branch_penalty});
  append_kv(key, "mpf", u64{c.millipede.pf_entries});
  append_kv(key, "mpr", u64{c.millipede.prime_rows});
  append_kv(key, "mfc", c.millipede.flow_control);
  append_kv(key, "mrm", c.millipede.rate_match);
  append_kv(key, "mrs", c.millipede.rate_step);
  append_kv(key, "mmc", c.millipede.min_clock_mhz);
  append_kv(key, "mhl", u64{c.millipede.pb_hit_latency});
  append_kv(key, "mrw", u64{c.millipede.rate_window});
  append_kv(key, "musw", c.millipede.unsafe_skip_window_check);
  append_kv(key, "mvs", c.millipede.voltage_scaling);
  append_kv(key, "mmv", c.millipede.min_voltage_ratio);
  append_kv(key, "gww", u64{c.gpgpu.warp_width});
  append_kv(key, "gvws", c.gpgpu.vws);
  append_kv(key, "gro", c.gpgpu.row_oriented);
  append_kv(key, "gl1", u64{c.gpgpu.l1d_bytes});
  append_kv(key, "glb", u64{c.gpgpu.line_bytes});
  append_kv(key, "gla", u64{c.gpgpu.l1d_assoc});
  append_kv(key, "gm", u64{c.gpgpu.mshrs});
  append_kv(key, "gsm", u64{c.gpgpu.shared_mem_bytes});
  append_kv(key, "gsb", u64{c.gpgpu.shared_banks});
  append_kv(key, "ghl", u64{c.gpgpu.l1_hit_latency});
  append_kv(key, "gsl", u64{c.gpgpu.shared_latency});
  append_kv(key, "gdp", u64{c.gpgpu.divergence_penalty});
  append_kv(key, "gpd", u64{c.gpgpu.prefetch_degree});
  append_kv(key, "gpx", u64{c.gpgpu.prefetch_distance});
  append_kv(key, "gps", u64{c.gpgpu.prefetch_streams});
  append_kv(key, "gsma", c.gpgpu.slab_mapping_ablation);
  append_kv(key, "sl1", u64{c.ssmc.l1d_bytes});
  append_kv(key, "slb", u64{c.ssmc.line_bytes});
  append_kv(key, "sa", u64{c.ssmc.assoc});
  append_kv(key, "sm", u64{c.ssmc.mshrs});
  append_kv(key, "shl", u64{c.ssmc.hit_latency});
  append_kv(key, "spd", u64{c.ssmc.prefetch_degree});
  append_kv(key, "spx", u64{c.ssmc.prefetch_distance});
  append_kv(key, "sps", u64{c.ssmc.prefetch_streams});
  append_kv(key, "uc", u64{c.multicore.cores});
  append_kv(key, "us", u64{c.multicore.smt});
  append_kv(key, "uiw", u64{c.multicore.issue_width});
  append_kv(key, "umhz", c.multicore.clock_mhz);
  append_kv(key, "ul1", u64{c.multicore.l1_bytes});
  append_kv(key, "ul1a", u64{c.multicore.l1_assoc});
  append_kv(key, "ul2", u64{c.multicore.l2_bytes});
  append_kv(key, "ul2a", u64{c.multicore.l2_assoc});
  append_kv(key, "ulb", u64{c.multicore.line_bytes});
  append_kv(key, "ul1l", u64{c.multicore.l1_latency});
  append_kv(key, "ul2l", u64{c.multicore.l2_latency});
  append_kv(key, "ubw", c.multicore.offchip_bw_fraction);
  append_kv(key, "wmc", c.watchdog.max_cycles);
  append_kv(key, "wsc", c.watchdog.stall_cycles);
  append_kv(key, "ww", c.watchdog.wall_ms);
  append_kv(key, "sl", c.slab_layout);
  append_kv(key, "ff", c.fast_forward);
  append_kv(key, "bc", c.block_cache);
  return key;
}

bool fork_safe(const MatrixJob& leader, const MatrixJob& member,
               u64 fault_sequence) {
  if (fork_key(leader) != fork_key(member)) return false;
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

  // Group by fork key. Traced jobs never fork: a restored member's trace
  // would lack the warmup events an unforked run records, breaking per-point
  // trace byte-identity. Unknown benchmarks can't compute a prepare key;
  // they run solo and fail in run_job exactly as run_matrix would fail them.
  const std::vector<std::string>& known = workloads::bmla_names();
  std::unordered_map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    if (jobs[i].options.trace.enabled() ||
        std::find(known.begin(), known.end(), jobs[i].bench) == known.end()) {
      key = "!solo" + std::to_string(i);
    } else {
      key = fork_key(jobs[i]);
    }
    groups[key].push_back(i);
  }

  // Leaders capture; everyone else in phase 1 runs plain. group_of[i] points
  // members at their leader's plan.
  std::vector<SnapshotPlan> plans;
  std::vector<std::size_t> leader_of(n, n);  // member index -> leader index
  std::vector<std::size_t> plan_of(n, ~std::size_t{0});
  std::vector<std::size_t> phase1, phase2;
  for (auto& [key, bucket] : groups) {
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
