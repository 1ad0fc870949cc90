#include "sim/prepare.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace mlp::sim {

std::string prepare_key(const MatrixJob& job) {
  const SuiteOptions& o = job.options;
  // The effective record count folds `records`, `rows` and the row geometry
  // into one number, so "--records 49152" and the "--rows 192" sizing that
  // produces 49152 records share an entry.
  u64 records = o.records;
  if (records == 0) {
    const std::vector<std::string>& names = workloads::bmla_names();
    MLP_SIM_CHECK(
        std::find(names.begin(), names.end(), job.bench) != names.end(),
        "prepare", "unknown benchmark: " + job.bench);
    records = records_for(job.bench, o.cfg, o.rows);
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s|n%llu|s%llu|b%d|rb%u|slab%d",
                job.bench.c_str(), static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(o.seed),
                o.record_barrier ? 1 : 0, o.cfg.dram.row_bytes,
                o.cfg.slab_layout ? 1 : 0);
  return buf;
}

u64 stable_hash64(const std::string& text) {
  u64 hash = 14695981039346656037ull;  // FNV offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  // FNV-1a's high bits avalanche poorly for short, similar strings; the
  // consistent-hash ring orders points by the FULL word, so finalize with
  // the murmur3 mixer to spread ring arcs evenly.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

PreparedJobPtr prepare_job(const MatrixJob& job) {
  const std::vector<std::string>& names = workloads::bmla_names();
  MLP_SIM_CHECK(
      std::find(names.begin(), names.end(), job.bench) != names.end(),
      "prepare", "unknown benchmark: " + job.bench);
  workloads::WorkloadParams params;
  params.num_records =
      job.options.records != 0
          ? job.options.records
          : records_for(job.bench, job.options.cfg, job.options.rows);
  params.seed = job.options.seed;
  params.record_barrier = job.options.record_barrier;
  workloads::Workload workload = workloads::make_bmla(job.bench, params);
  arch::PreparedInput input =
      arch::prepare_input(job.options.cfg, workload, job.options.seed);
  return std::make_shared<const PreparedJob>(
      PreparedJob{std::move(workload), std::move(input)});
}

PrepareCache::PrepareCache(std::size_t max_entries) : lru_(max_entries) {}

PreparedJobPtr PrepareCache::get(const MatrixJob& job, bool* hit) {
  const std::string key = prepare_key(job);
  std::promise<PreparedJobPtr> prepared;
  std::shared_future<PreparedJobPtr> in_flight;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = preparing_.find(key);
    if (it != preparing_.end()) {
      in_flight = it->second;
    } else if (PreparedJobPtr value = lru_.get(key)) {
      if (hit != nullptr) *hit = true;
      return value;
    } else {
      preparing_.emplace(key, prepared.get_future().share());
    }
  }
  if (in_flight.valid()) {
    // Another get is preparing this key: wait for it (its SimError rethrows
    // here), then look again, which counts the hit.
    in_flight.get();
    return get(job, hit);
  }
  // Prepare outside the lock: assembly + generation + reference are the
  // expensive part, and a miss on another key must not serialize behind it.
  PreparedJobPtr value;
  try {
    value = prepare_job(job);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      preparing_.erase(key);
    }
    prepared.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.put(key, value);
    preparing_.erase(key);
  }
  prepared.set_value(value);
  if (hit != nullptr) *hit = false;
  return value;
}

}  // namespace mlp::sim
