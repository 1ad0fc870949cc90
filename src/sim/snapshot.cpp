// Warm-snapshot forking (sim/fork.hpp): fork grouping and the provable
// fault-stream safety predicate that run_matrix plans forked grids with.

#include "sim/fork.hpp"

#include <algorithm>
#include <unordered_map>

#include "mem/fault.hpp"
#include "sim/prepare.hpp"

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

std::vector<std::size_t> fork_leaders(const std::vector<MatrixJob>& jobs) {
  // Bucket by architecture and prepare key, each computed once per job,
  // then split each bucket by masked config.
  std::vector<std::size_t> leaders(jobs.size());
  std::unordered_map<std::string, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    leaders[i] = i;
    if (jobs[i].options.trace.enabled()) continue;
    std::string key;
    try {
      key = std::string(arch::arch_name(jobs[i].kind)) + "|" +
            prepare_key(jobs[i]);
    } catch (const SimError&) {
      continue;  // no prepare key: the job runs solo
    }
    std::vector<std::size_t>& bucket = buckets[key];
    const MachineConfig cfg = fork_config(jobs[i].options.cfg);
    const auto leader =
        std::find_if(bucket.begin(), bucket.end(), [&](std::size_t l) {
          return fork_config(jobs[l].options.cfg) == cfg;
        });
    if (leader != bucket.end()) {
      leaders[i] = *leader;
    } else {
      bucket.push_back(i);
    }
  }
  return leaders;
}

}  // namespace mlp::sim
