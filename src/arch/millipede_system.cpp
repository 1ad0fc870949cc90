// The Millipede processor system: 32 MIMD corelets with per-corelet local
// memories, fed by the flow-controlled row-granularity prefetch buffer, with
// DFS rate matching — the paper's proposed architecture, plus the
// no-flow-control and no-rate-match ablations (selected by the ArchKind).

#include <algorithm>
#include <optional>

#include "arch/machine.hpp"
#include "millipede/prefetch_buffer.hpp"

namespace mlp::arch {

RunResult run_millipede(const RunSpec& spec) {
  const MachineConfig& cfg = spec.cfg;
  Machine m(spec, "millipede");

  // DFS retunes the kernel's compute clock, which therefore exists first.
  std::optional<millipede::RateMatcher> rate_matcher;
  if (spec.kind == ArchKind::kMillipede) {
    rate_matcher.emplace(cfg.millipede, cfg.core, m.kernel.compute_clock(),
                         &m.stats, "rate", m.trace());
  }

  millipede::PrefetchBuffer pb(
      cfg, m.row_plan(), &m.dram, rate_matcher ? &*rate_matcher : nullptr,
      /*flow_control=*/spec.kind != ArchKind::kMillipedeNoFlowControl,
      &m.stats, "pb", m.trace());
  m.add_corelets(&pb);

  // On restore, the prefetch buffer's state (and the controller's queue)
  // come from the snapshot; priming would issue duplicate time-0 fetches
  // whose wakes target entries the restore is about to overwrite.
  if (!spec.restoring()) pb.prime(0);
  m.add_channel(&pb);
  m.add_state(sim::kSecPrefetchBuffer, &pb);
  if (rate_matcher) m.add_state(sim::kSecRateMatcher, &*rate_matcher);
  if (core::Barrier* barrier = m.corelets->barrier()) {
    m.add_state(sim::kSecBarrier, barrier);
  }

  RunResult result = m.run(
      [&pb](trace::TraceSession* session) {
        session->set_track_name(trace::kPrefetchTrack, "pb");
        session->set_track_name(trace::kRateMatchTrack, "rate");
        session->add_gauge("pb.occupancy",
                           [&pb] { return static_cast<u64>(pb.occupancy()); });
        session->add_gauge("pb.saturated", [&pb] {
          return static_cast<u64>(pb.saturated_entries());
        });
      },
      [&pb] { return pb.debug_dump(); });

  energy::EnergyModel model;
  result.energy.core_j = model.mimd_core_j(m.exec, /*state_via_cache=*/false,
                                           /*input_via_cache=*/false);
  if (rate_matcher && cfg.millipede.voltage_scaling) {
    // DVS on top of DFS: dynamic energy scales with V^2; approximate V by
    // the converged frequency ratio (the clock converges once, early).
    const double f_ratio = result.final_clock_mhz / cfg.core.clock_mhz;
    const double v_ratio =
        std::max(cfg.millipede.min_voltage_ratio, std::min(1.0, f_ratio));
    result.energy.core_j *= v_ratio * v_ratio;
  }
  // With ECC the prefetch-buffer SRAM also stores the check bits.
  const double pb_scale =
      cfg.dram.fault.ecc ? 1.0 + model.params().ecc_bit_overhead : 1.0;
  const u32 cores = cfg.core.cores;
  const double sram_kb =
      cores * (cfg.core.local_mem_bytes + cfg.core.icache_bytes +
               cfg.millipede.pf_entries * cfg.dram.row_bytes * pb_scale /
                   cores) /
      1024.0;
  result.energy.leak_j = model.leakage_j(cores, sram_kb, result.seconds());
  return result;
}

}  // namespace mlp::arch
