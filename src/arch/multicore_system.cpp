// Conventional multicore baseline for the Fig. 5 comparison: 8 Xeon-like
// cores at 3.6 GHz, 4-way SMT, 4-wide issue (approximated by issuing up to
// 4 instructions per cycle across a core's SMT contexts — see DESIGN.md),
// 64 KB L1 + 1 MB per-core L2, and off-chip DRAM at one quarter of the
// die-stacked channel bandwidth with 70 pJ/bit access energy.

#include "arch/machine.hpp"

namespace mlp::arch {

MachineConfig multicore_config(const MachineConfig& cfg) {
  // Off-chip memory: one quarter of the die-stacked memory bandwidth. A
  // die-stacked cube exposes 4 channels, so the multicore's off-chip DRAM
  // gets one channel's worth of bandwidth (~DDR4-class).
  MachineConfig mc = cfg;
  mc.dram.channel_bits = static_cast<u32>(cfg.dram.channel_bits * 4 *
                                          cfg.multicore.offchip_bw_fraction);
  mc.core.cores = cfg.multicore.cores;
  mc.core.contexts = cfg.multicore.smt;
  mc.core.clock_mhz = cfg.multicore.clock_mhz;
  mc.gpgpu.warp_width = 1;  // unused; keep validation happy
  return mc;
}

RunResult run_multicore(const RunSpec& spec) {
  const MachineConfig& cfg = spec.cfg;  // retuned by multicore_config
  Machine m(spec, "multicore", /*offchip_dram=*/true);

  const u32 cores = cfg.core.cores;
  const Picos period = cfg.core.period_ps();
  std::vector<mem::Cache> l2s, l1s;
  std::vector<mem::StreamTable> prefetchers;
  l2s.reserve(cores);
  l1s.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    l2s.emplace_back("l2." + std::to_string(c), cfg.multicore.l2_bytes,
                     cfg.multicore.line_bytes, cfg.multicore.l2_assoc, 16,
                     static_cast<Picos>(cfg.multicore.l2_latency) * period,
                     &m.dram, c == 0 ? &m.stats : nullptr);
  }
  for (u32 c = 0; c < cores; ++c) {
    l1s.emplace_back("l1." + std::to_string(c), cfg.multicore.l1_bytes,
                     cfg.multicore.line_bytes, cfg.multicore.l1_assoc, 16,
                     static_cast<Picos>(cfg.multicore.l1_latency) * period,
                     &l2s[c], c == 0 ? &m.stats : nullptr);
    prefetchers.emplace_back(cfg.multicore.line_bytes, 4, 16, 8);
  }
  CachedPort port(m, &l1s, &prefetchers);
  // Wide issue: up to issue_width instructions per core per cycle, drawn
  // from its SMT contexts (OoO approximation; DESIGN.md).
  m.add_corelets(&port, cfg.multicore.issue_width);

  for (core::Corelet& corelet : m.corelets) m.add_compute(&corelet);
  for (mem::Cache& l1 : l1s) m.add_channel(&l1);
  for (mem::Cache& l2 : l2s) m.add_channel(&l2);
  for (u32 c = 0; c < cores; ++c) {
    m.add_core_state(sim::kSecL1Base, c, &l1s[c]);
    m.add_core_state(sim::kSecL2Base, c, &l2s[c]);
    m.add_core_state(sim::kSecStreamTableBase, c, &prefetchers[c]);
  }

  RunResult result = m.run();
  // Nominal: no retune, and the ps-quantized period would round-trip off.
  result.final_clock_mhz = cfg.core.clock_mhz;
  energy::EnergyModel model;
  const u64 l1_accesses = m.exec.local_ops.value + m.exec.global_loads.value;
  // Approximate L2 accesses by scaling core 0's L1 miss count to all cores.
  const u64 l2_accesses = m.stats.get("l1.0.misses") * cores;
  result.energy.core_j = model.multicore_core_j(
      m.exec.instructions.value, l1_accesses, l2_accesses,
      m.exec.idle_cycles.value);
  const double sram_kb =
      cores * (cfg.multicore.l1_bytes + cfg.multicore.l2_bytes) / 1024.0;
  result.energy.leak_j =
      model.leakage_j(cores, sram_kb, result.seconds(), /*ooo=*/true);
  return result;
}

}  // namespace mlp::arch
