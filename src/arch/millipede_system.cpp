// The Millipede processor system: 32 MIMD corelets with per-corelet local
// memories, fed by the flow-controlled row-granularity prefetch buffer, with
// optional DFS rate matching — the paper's proposed architecture, plus the
// no-flow-control and no-rate-match ablations (selected via MachineConfig).

#include <algorithm>
#include <optional>

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "core/barrier.hpp"
#include "millipede/prefetch_buffer.hpp"

namespace mlp::arch {

RunResult run_millipede(const RunSpec& spec) {
  const MachineConfig& cfg = spec.cfg;
  // A record's field loads touch `record_row_footprint()` concurrent rows
  // (= fields under the field-major layout, 1 under slab-interleaving);
  // flow control deadlocks if the window cannot hold them all. Fail fast —
  // recoverably, so one undersized sweep point cannot kill a whole matrix.
  MLP_SIM_CHECK(cfg.millipede.unsafe_skip_window_check ||
                    cfg.millipede.pf_entries >=
                        spec.prepared.layout.record_row_footprint(),
                "config",
                "prefetch window smaller than a record's row footprint");
  Machine m(spec, "millipede");

  // DFS retunes the kernel's compute clock, which therefore exists first.
  std::optional<millipede::RateMatcher> rate_matcher;
  if (cfg.millipede.rate_match) {
    rate_matcher.emplace(cfg.millipede, cfg.core, m.kernel.compute_clock(),
                         &m.stats, "rate", m.trace());
  }

  millipede::RowPlan plan;
  plan.first_row = m.input.layout.first_row();
  plan.num_rows = m.input.layout.num_rows();
  const workloads::InterleavedLayout layout = m.input.layout;
  const u32 cores = cfg.core.cores;
  plan.expected_mask = [layout, cores](u64 row, u32 corelet) {
    return layout.expected_slab_mask(row, corelet, cores);
  };
  millipede::PrefetchBuffer pb(cfg, plan, &m.dram,
                               rate_matcher ? &*rate_matcher : nullptr,
                               &m.stats, "pb", m.trace());
  // The software-barrier ablation compiles `bar` into the kernels; wire a
  // processor-wide barrier over the prefetch-buffer port when present.
  bool uses_bar = false;
  for (const isa::Instr& in : spec.workload.program.instrs()) {
    uses_bar |= in.op == isa::Opcode::kBar;
  }
  core::BarrierPort barrier_port(&pb, cfg.core.threads());
  m.add_corelets(uses_bar ? static_cast<core::GlobalPort*>(&barrier_port)
                          : static_cast<core::GlobalPort*>(&pb));

  // On restore, the prefetch buffer's state (and the controller's queue)
  // come from the snapshot; priming would issue duplicate time-0 fetches
  // whose callbacks target entries the restore is about to overwrite.
  if (!spec.restoring()) pb.prime(0);
  for (core::Corelet& corelet : m.corelets) m.add_compute(&corelet);
  m.add_channel(&pb);
  m.add_state(sim::kSecPrefetchBuffer, &pb);
  if (rate_matcher) m.add_state(sim::kSecRateMatcher, &*rate_matcher);
  if (uses_bar) m.add_state(sim::kSecBarrier, &barrier_port);

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
  if (cfg.millipede.rate_match && cfg.millipede.voltage_scaling) {
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
  const double sram_kb =
      cores * (cfg.core.local_mem_bytes + cfg.core.icache_bytes +
               cfg.millipede.pf_entries * cfg.dram.row_bytes * pb_scale /
                   cores) /
      1024.0;
  result.energy.leak_j = model.leakage_j(cores, sram_kb, result.seconds());
  return result;
}

}  // namespace mlp::arch
