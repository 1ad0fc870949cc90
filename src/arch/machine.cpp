#include "arch/machine.hpp"

#include <cstdio>

namespace mlp::arch {
namespace {

const char* context_state_name(core::Context::State state) {
  switch (state) {
    case core::Context::State::kReady: return "ready";
    case core::Context::State::kWaitMem: return "wait-mem";
    case core::Context::State::kHalted: return "halted";
  }
  return "?";
}

/// Multi-line per-corelet context snapshot (PC, state, ready time) for the
/// forward-progress watchdog's diagnostic dump.
std::string dump_corelets(const std::vector<core::Corelet>& corelets) {
  std::string out;
  char line[160];
  for (const core::Corelet& corelet : corelets) {
    for (u32 x = 0; x < corelet.num_contexts(); ++x) {
      const core::Context& ctx = corelet.context(x);
      std::snprintf(line, sizeof(line),
                    "  corelet[%u].ctx[%u] pc=%u state=%s ready_at=%llu "
                    "instret=%llu\n",
                    corelet.core_id(), x, ctx.pc,
                    context_state_name(ctx.state),
                    static_cast<unsigned long long>(ctx.ready_at),
                    static_cast<unsigned long long>(ctx.instret));
      out += line;
    }
  }
  return out;
}

/// Reduces the live states and compares them with the golden reference;
/// returns the diagnostic ("" on success). Without ECC, injected bit flips
/// land in the image's functional bytes, so such a run recomputes the
/// reference from the image it actually read instead of using the cached one.
std::string verify_run(const MachineConfig& cfg,
                       const workloads::Workload& workload,
                       const PreparedInput& input,
                       const std::vector<mem::LocalStore>& locals) {
  const bool image_dirty =
      cfg.dram.fault.bit_flip_rate > 0.0 && !cfg.dram.fault.ecc;
  std::vector<double> recomputed;
  if (image_dirty || input.reference.empty()) {
    recomputed = workload.reference(input.image, input.layout);
  }
  const std::vector<double>& reference =
      image_dirty || input.reference.empty() ? recomputed : input.reference;
  std::vector<const mem::LocalStore*> states;
  states.reserve(locals.size());
  for (const mem::LocalStore& local : locals) states.push_back(&local);
  const auto measured = workloads::reduce_state(workload, states);
  return workloads::compare_results(reference, measured, workload.tolerance);
}

}  // namespace

Machine::Machine(const RunSpec& spec, const char* family, bool offchip_dram)
    : cfg(spec.cfg),
      workload(spec.workload),
      input(spec.prepared),
      dram(cfg.dram, "dram", &stats, spec.trace),
      backend(&dram),
      kernel(cfg, family, spec.trace),
      dcache(workload.program, cfg.block_cache),
      spec_(spec),
      family_(family),
      offchip_dram_(offchip_dram) {
  dram.attach_image(&input.image);
  dcache.register_with(&stats, "decode");
  kernel.set_compute_edge_hook([this] { dcache.begin_compute_edge(); });
  locals.reserve(cfg.core.cores);
  for (u32 c = 0; c < cfg.core.cores; ++c) {
    locals.emplace_back(cfg.core.local_mem_bytes);
    if (workload.init_state) workload.init_state(locals.back());
  }
}

void Machine::add_corelets(core::GlobalPort* port) {
  const u32 cores = cfg.core.cores;
  const u32 contexts = cfg.core.contexts;
  exec.register_with(&stats, "exec");
  corelets.reserve(cores);
  for (u32 c = 0; c < cores; ++c) {
    corelets.emplace_back(c, cfg.core, &workload.program, &locals[c],
                          &input.image, port, &exec, spec_.trace, &dcache);
    for (u32 x = 0; x < contexts; ++x) {
      const workloads::ThreadSlice slice = input.layout.slice(
          workloads::ThreadMapping::kSlab, cores, contexts, c, x);
      workloads::bind_csrs(corelets.back().context(x).csr, workload,
                           input.layout, slice, c * contexts + x,
                           cfg.core.threads(), c, cores, x, contexts);
    }
  }
  engine.instructions = &exec.instructions;
  engine.branches = &exec.branches;
  engine.done = [this] {
    for (const auto& corelet : corelets) {
      if (!corelet.halted()) return false;
    }
    return true;
  };
  engine.name_tracks = [cores, contexts](trace::TraceSession* session) {
    trace::name_context_tracks(session, cores, contexts);
  };
  engine.dump = [this] { return dump_corelets(corelets); };
}

void Machine::register_states() {
  image_delta_.emplace(&input.image, &spec_.prepared.image);
  kernel.add_state(sim::kSecDramDelta, &*image_delta_);
  kernel.add_state(sim::kSecController, &dram);
  for (const auto& [section, state] : states_) kernel.add_state(section, state);
  kernel.add_state(sim::kSecDecodeCache, &dcache);
  for (u32 c = 0; c < cfg.core.cores; ++c) {
    if (c < corelets.size()) {
      kernel.add_state(sim::kSecCoreletBase + c, &corelets[c]);
    }
    for (const CoreState& s : core_states_) {
      if (s.core == c) kernel.add_state(s.section, s.state);
    }
  }
  kernel.set_stats(&stats);
  kernel.set_meta_fn([this](sim::SnapshotMeta& m) {
    m.arch_label = spec_.label;
    m.warp_width = engine.warp_width;
    m.image_bytes = input.image.size();
    m.fault_sequence = dram.fault_sequence();
  });
  kernel.set_plan(spec_.snapshot);
}

Picos Machine::simulate(const TraceHook& arch_trace,
                        const DumpHook& arch_dump) {
  kernel.add_channel(&dram);
  kernel.set_progress([instructions = engine.instructions, ctrl = &dram] {
    return instructions->value + ctrl->bytes_transferred();
  });
  kernel.set_dump([this, arch_dump] {
    return family_ + " state:\n" + engine.dump() +
           (arch_dump ? arch_dump() : std::string()) + dram.debug_dump();
  });
  if (spec_.snapshot != nullptr) register_states();
  kernel.wire_trace(
      std::string(spec_.label) + "/" + workload.name, &stats,
      engine.name_tracks, arch_trace,
      [this] { return static_cast<u64>(dram.queue_size()); },
      dram.refresh_enabled()
          ? std::function<u64()>([this] { return dram.refresh_debt(); })
          : std::function<u64()>{});
  if (spec_.restoring()) kernel.restore(*spec_.snapshot->restore_from);
  return kernel.run(engine.done);
}

RunResult Machine::run(const TraceHook& arch_trace,
                       const DumpHook& arch_dump) {
  const Picos runtime = simulate(arch_trace, arch_dump);
  RunResult result;
  result.arch = spec_.label;
  result.workload = workload.name;
  result.compute_cycles = kernel.compute_cycles();
  result.runtime_ps = runtime;
  result.thread_instructions = engine.instructions->value;
  result.input_words = workload.num_records * workload.fields;
  result.final_clock_mhz = kernel.final_clock_mhz();
  result.warp_width = engine.warp_width;
  // The SM counts a branch once per warp; branches_per_inst is per thread.
  const u64 branch_threads = engine.warp_width == 0 ? 1 : engine.warp_width;
  finalize_result(&result, engine.branches->value * branch_threads, stats);
  result.energy.dram_j = energy::EnergyModel().dram_j(
      dram.bytes_transferred(), dram.activations(), offchip_dram_,
      cfg.dram.fault.ecc);
  result.verification = verify_run(cfg, workload, input, locals);
  return result;
}

CachedPort::CachedPort(const Machine& m, std::vector<mem::Cache>* l1s,
                       std::vector<mem::StreamTable>* prefetchers)
    : l1s_(l1s),
      prefetchers_(prefetchers),
      state_base_(m.input.layout.total_bytes()),
      state_stride_((m.cfg.core.local_mem_bytes + m.cfg.dram.row_bytes - 1) /
                    m.cfg.dram.row_bytes * m.cfg.dram.row_bytes) {}

core::PortResult CachedPort::load(u32 core, u32 /*ctx*/, Addr addr, Picos now,
                                  std::function<void(Picos)> wakeup) {
  mem::Cache& l1 = (*l1s_)[core];
  for (Addr line : (*prefetchers_)[core].observe(addr)) {
    l1.prefetch(line, now);
  }
  return access(l1, addr, false, now, std::move(wakeup));
}

core::PortResult CachedPort::local_access(u32 core, u32 /*ctx*/, Addr addr,
                                          bool is_write, Picos /*fixed*/,
                                          Picos now,
                                          std::function<void(Picos)> wakeup) {
  const Addr global =
      state_base_ + static_cast<Addr>(core) * state_stride_ + addr;
  return access((*l1s_)[core], global, is_write, now, std::move(wakeup));
}

core::PortResult CachedPort::access(mem::Cache& l1, Addr addr, bool is_write,
                                    Picos now,
                                    std::function<void(Picos)> wakeup) {
  switch (l1.access(addr, is_write, now, std::move(wakeup))) {
    case mem::AccessStatus::kHit:
      return {core::PortStatus::kDone, now + l1.hit_latency_ps()};
    case mem::AccessStatus::kMiss:
      return {core::PortStatus::kPending, 0};
    case mem::AccessStatus::kMshrFull:
      return {core::PortStatus::kRetry, 0};
  }
  return {core::PortStatus::kRetry, 0};
}

}  // namespace mlp::arch
