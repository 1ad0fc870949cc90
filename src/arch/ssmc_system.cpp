// Plain SSMC: the same MIMD corelets as Millipede, but with a per-core 5 KB
// L1 D-cache holding BOTH the live state and the cache-block-prefetched
// input stream (Section III-E). The cores stray from each other, interleave
// row accesses at the shared FR-FCFS controller, and destroy row locality —
// the baseline Millipede's row-orientedness is measured against.

#include "arch/machine.hpp"

namespace mlp::arch {

RunResult run_ssmc(const RunSpec& spec) {
  const MachineConfig& cfg = spec.cfg;
  Machine m(spec, "ssmc");

  const u32 cores = cfg.core.cores;
  const Picos hit_latency =
      static_cast<Picos>(cfg.ssmc.hit_latency) * cfg.core.period_ps();
  std::vector<mem::Cache> caches;
  std::vector<mem::StreamTable> prefetchers;
  caches.reserve(cores);
  prefetchers.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    // Only core 0's cache registers stats to keep snapshots readable; all
    // cores behave statistically alike.
    caches.emplace_back("l1d" + std::to_string(c), cfg.ssmc.l1d_bytes,
                        cfg.ssmc.line_bytes, cfg.ssmc.assoc, cfg.ssmc.mshrs,
                        hit_latency, &m.backend, c == 0 ? &m.stats : nullptr);
    prefetchers.emplace_back(cfg.ssmc.line_bytes, cfg.ssmc.prefetch_degree,
                             cfg.ssmc.prefetch_distance,
                             cfg.ssmc.prefetch_streams);
  }
  CachedPort port(m, &caches, &prefetchers);
  m.add_corelets(&port);

  for (core::Corelet& corelet : m.corelets) m.add_compute(&corelet);
  for (mem::Cache& cache : caches) m.add_channel(&cache);
  for (u32 c = 0; c < cores; ++c) {
    m.add_core_state(sim::kSecL1Base, c, &caches[c]);
    m.add_core_state(sim::kSecStreamTableBase, c, &prefetchers[c]);
  }

  RunResult result = m.run();
  energy::EnergyModel model;
  result.energy.core_j = model.mimd_core_j(m.exec, /*state_via_cache=*/true,
                                           /*input_via_cache=*/true);
  const double sram_kb =
      cores * (cfg.ssmc.l1d_bytes + cfg.core.icache_bytes) / 1024.0;
  result.energy.leak_j = model.leakage_j(cores, sram_kb, result.seconds());
  return result;
}

}  // namespace mlp::arch
