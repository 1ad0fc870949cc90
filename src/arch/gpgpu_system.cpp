// GPGPU-based PNM system: one SM with the same lane count, thread count and
// on-die memory budget as the Millipede processor. Variants:
//  * plain GPGPU — 32-wide warps, word-interleaved record mapping (coalesced
//    loads), cache-block prefetch into the 32 KB L1D, live state in the
//    128 KB banked shared memory;
//  * VWS — dynamically picks 4- or 32-wide warps from a divergence-sampling
//    pilot run (the paper reports it always picks 4-wide for BMLAs);
//  * VWS-row — VWS plus Millipede's row-oriented, flow-controlled prefetch
//    buffer on the input path (slab record mapping).

#include <algorithm>
#include <optional>

#include "arch/machine.hpp"
#include "common/error.hpp"
#include "gpgpu/sm.hpp"

namespace mlp::arch {
namespace {

/// One SM of `width`-wide warps and its input path (the L1D, or with `row`
/// VWS-row's prefetch buffer) on a Machine, registered as the machine's
/// issue engine. Not movable: the SM holds pointers into it.
class SmSystem {
 public:
  SmSystem(Machine& m, u32 width, bool row);
  SmSystem(const SmSystem&) = delete;
  SmSystem& operator=(const SmSystem&) = delete;

  std::optional<mem::Cache> l1d;                     ///< plain input path
  std::optional<mem::SequentialPrefetcher> prefetcher;
  std::optional<millipede::PrefetchBuffer> pb;       ///< row input path
  mem::SharedMemBanking banking;
  gpgpu::SmStats sm_stats;
  std::optional<gpgpu::StreamingMultiprocessor> sm;
};

SmSystem::SmSystem(Machine& m, u32 width, bool row)
    : banking(m.cfg.gpgpu.shared_banks, mem::BankMapping::kLanePrivate) {
  const MachineConfig& cfg = m.cfg;
  const PreparedInput& input = m.input;
  if (!row) {
    l1d.emplace(
        "l1d", cfg.gpgpu.l1d_bytes, cfg.gpgpu.line_bytes, cfg.gpgpu.l1d_assoc,
        cfg.gpgpu.mshrs,
        static_cast<Picos>(cfg.gpgpu.l1_hit_latency) * cfg.core.period_ps(),
        &m.dram, &m.stats);
    prefetcher.emplace(cfg.gpgpu.line_bytes, cfg.gpgpu.prefetch_degree,
                       cfg.gpgpu.prefetch_distance);
  } else {
    pb.emplace(cfg, m.row_plan(), &m.dram, nullptr, /*flow_control=*/true,
               &m.stats, "pb", m.trace());
  }
  sm_stats.register_with(&m.stats, "sm");

  gpgpu::StreamingMultiprocessor::Deps deps;
  deps.dcache = &m.dcache;
  deps.lane_state = &m.locals;
  deps.dram = &m.input.image;
  deps.l1d = l1d ? &*l1d : nullptr;
  deps.prefetcher = prefetcher ? &*prefetcher : nullptr;
  deps.pb = pb ? &*pb : nullptr;
  deps.banking = &banking;
  deps.stats = &sm_stats;
  deps.trace = m.trace();
  sm.emplace(cfg, width, deps);

  // Thread-to-record mapping and CSR binding.
  const u32 groups = cfg.core.cores / width;
  for (u32 g = 0; g < groups; ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) {
      for (u32 l = 0; l < width; ++l) {
        const u32 lane = g * width + l;
        const u32 tid = s * cfg.core.cores + lane;
        workloads::ThreadSlice slice;
        if (row || cfg.gpgpu.slab_mapping_ablation) {
          // Slab mapping: physical lane == prefetch-buffer slab.
          slice = input.layout.slice(workloads::ThreadMapping::kSlab,
                                     cfg.core.cores, cfg.core.contexts, lane,
                                     s);
        } else {
          // Word-interleaved mapping: warp (g, s) covers consecutive
          // records so its loads coalesce.
          const u32 warp_index = g * cfg.core.contexts + s;
          slice = input.layout.slice(workloads::ThreadMapping::kWordInterleaved,
                                     cfg.core.cores, cfg.core.contexts,
                                     warp_index, l, width);
        }
        workloads::bind_csrs(sm->context(g, s, l).csr, m.workload,
                             input.layout, slice, tid, cfg.core.threads(),
                             lane, cfg.core.cores, s, cfg.core.contexts);
      }
    }
  }

  m.add_compute(&*sm);
  if (pb) m.add_channel(&*pb);
  if (l1d) m.add_channel(&*l1d);
  m.add_state(sim::kSecSm, &*sm);
  if (pb) m.add_state(sim::kSecPrefetchBuffer, &*pb);
  if (prefetcher) m.add_state(sim::kSecSeqPrefetcher, &*prefetcher);
  if (l1d) m.add_core_state(sim::kSecL1Base, 0, &*l1d);

  m.engine.instructions = &sm_stats.thread_instructions;
  m.engine.branches = &sm_stats.branches;
  m.engine.warp_width = width;
  m.engine.done = [this] { return sm->halted(); };
  m.engine.name_tracks = [groups, contexts = cfg.core.contexts](
                             trace::TraceSession* session) {
    for (u32 g = 0; g < groups; ++g) {
      for (u32 s = 0; s < contexts; ++s) {
        session->set_track_name(g * contexts + s, "w" + std::to_string(g) +
                                                      "." + std::to_string(s));
      }
    }
  };
  m.engine.dump = [this] {
    std::string out = sm->debug_dump();
    if (pb) out += pb->debug_dump();
    return out;
  };
}

/// VWS pilot: sample divergence at full width on a second, untraced machine
/// over the same input and the plain input path, then commit to 4-wide warps
/// (every lane when there are fewer) or full-width ones for the real run
/// (Rogers et al. [41], coarse-grained). Untraced because its events and
/// counters would pollute the real run's timeline.
u32 pilot_warp_width(const RunSpec& spec) {
  const u32 lanes = spec.cfg.core.cores;
  Machine pilot({spec.kind, spec.cfg, spec.workload, spec.prepared,
                 /*trace=*/nullptr, /*snapshot=*/nullptr},
                "gpgpu");
  SmSystem system(pilot, lanes, /*row=*/false);
  pilot.engine.done = [&system] {
    return system.sm->halted() ||
           system.sm_stats.warp_instructions.value >= 20000;
  };
  pilot.simulate();
  const double divergence =
      system.sm_stats.branches.value == 0
          ? 0.0
          : static_cast<double>(system.sm_stats.divergent_branches.value) /
                static_cast<double>(system.sm_stats.branches.value);
  // Lane counts are powers of two, so either width divides them.
  return divergence > 0.10 ? std::min(4u, lanes) : lanes;
}

}  // namespace

RunResult run_gpgpu(const RunSpec& spec) {
  const MachineConfig& cfg = spec.cfg;
  // Every kind runs a full-width SM: the plain GPGPU's warps span the lanes,
  // and the VWS pilot samples divergence at that width.
  MLP_SIM_CHECK(cfg.core.cores <= gpgpu::StreamingMultiprocessor::kMaxLanes,
                "config",
                "a warp of " + std::to_string(cfg.core.cores) +
                    " lanes is wider than a lane mask");
  u32 width = cfg.core.cores;
  if (spec.restoring()) {
    // The pilot already ran in the capturing process; its only durable
    // output is the chosen warp width, which the snapshot's meta section
    // carries. Re-running it here would simulate warmup cycles the restore
    // exists to skip.
    width = sim::snapshot_meta(*spec.snapshot->restore_from).warp_width;
    MLP_SIM_CHECK(width != 0 && cfg.core.cores % width == 0, "snapshot",
                  "snapshot warp width does not divide the lane count");
  } else if (spec.kind != ArchKind::kGpgpu) {
    width = pilot_warp_width(spec);
  }

  Machine m(spec, "gpgpu");
  SmSystem system(m, width, spec.kind == ArchKind::kVwsRow);
  if (system.pb && !spec.restoring()) system.pb->prime(0);
  RunResult result = m.run([&system](trace::TraceSession* session) {
    if (system.pb) {
      session->set_track_name(trace::kPrefetchTrack, "pb");
      session->add_gauge("pb.occupancy", [&system] {
        return static_cast<u64>(system.pb->occupancy());
      });
    }
  });
  // The nominal frequency, not the kernel's period-derived value: the GPGPU
  // never retunes, and the ps-quantized period round-trips to ~3610 MHz.
  result.final_clock_mhz = cfg.core.clock_mhz;
  energy::EnergyModel model;
  result.energy.core_j = model.gpgpu_core_j(system.sm_stats);
  const double sram_kb =
      (cfg.gpgpu.l1d_bytes + cfg.gpgpu.shared_mem_bytes +
       cfg.core.icache_bytes) /
      1024.0;
  result.energy.leak_j =
      model.leakage_j(cfg.core.cores, sram_kb, result.seconds());
  return result;
}

}  // namespace mlp::arch
