#include "arch/machine.hpp"

#include <memory>
#include <utility>

namespace mlp::arch {
namespace {

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

/// The DRAM image serialized as a delta against the run's prepared image
/// (functional stores and no-ECC fault flips are sparse, so warm snapshots
/// stay small): the image size, then maximal runs of differing bytes as
/// (u64 offset, u64 length, bytes).
class ImageDelta : public sim::Snapshottable {
 public:
  ImageDelta(mem::DramImage* live, const mem::DramImage* pristine)
      : live_(live), pristine_(pristine) {}

  void checkpoint(sim::StateIO& io) override {
    const u64 n = live_->size();
    io.expect(n, "image size");
    // Capture lists the runs of bytes that differ from the pristine image;
    // restore starts from the pristine image and patches each run in.
    std::vector<std::pair<u64, u64>> runs;  // offset, length
    if (io.loading()) {
      *live_ = *pristine_;
    } else {
      const u8* a = std::as_const(*live_).raw().data();
      const u8* b = pristine_->raw().data();
      for (u64 i = 0; i < n;) {
        if (a[i] == b[i]) {
          ++i;
          continue;
        }
        u64 j = i;
        while (j < n && a[j] != b[j]) ++j;
        runs.emplace_back(i, j - i);
        i = j;
      }
    }
    u64 count = runs.size();
    io.field(count);
    for (u64 k = 0; k < count; ++k) {
      auto [offset, length] = io.loading() ? std::pair<u64, u64>{} : runs[k];
      io.field(offset);
      io.field(length);
      io.require(length > 0 && offset <= n && n - offset >= length,
                 "image delta run");
      // A run exists only once the live image holds bytes of its own, so on
      // capture this copy-on-write access copies nothing.
      io.bytes(live_->raw().data() + offset, length);
    }
  }

 private:
  mem::DramImage* live_;
  const mem::DramImage* pristine_;
};

}  // namespace

Machine::Machine(const RunSpec& spec, const char* family, bool offchip_dram)
    : cfg(spec.cfg),
      workload(spec.workload),
      input(spec.prepared),
      dram(cfg.dram, "dram", &stats, spec.trace),
      kernel(cfg, family, spec.trace),
      dcache(workload.program, cfg.block_cache),
      spec_(spec),
      family_(family),
      offchip_dram_(offchip_dram) {
  dram.attach_image(&input.image);
  dcache.register_with(&stats, "decode");
  locals.reserve(cfg.core.cores);
  for (u32 c = 0; c < cfg.core.cores; ++c) {
    locals.emplace_back(cfg.core.local_mem_bytes);
    if (workload.init_state) workload.init_state(locals.back());
  }
}

void Machine::add_corelets(core::GlobalPort* port, u32 issue_width) {
  const u32 cores = cfg.core.cores;
  const u32 contexts = cfg.core.contexts;
  exec.register_with(&stats, "exec");
  core::CoreletArray& array =
      corelets.emplace(cfg.core, &dcache, locals, &input.image, port, &exec,
                       spec_.trace, issue_width);
  for (u32 c = 0; c < cores; ++c) {
    for (u32 x = 0; x < contexts; ++x) {
      const workloads::ThreadSlice slice = input.layout.slice(
          workloads::ThreadMapping::kSlab, cores, contexts, c, x);
      workloads::bind_csrs(array.context(c, x).csr, workload,
                           input.layout, slice, c * contexts + x,
                           cfg.core.threads(), c, cores, x, contexts);
    }
  }
  kernel.add_compute(&array);
  engine.instructions = &exec.instructions;
  engine.branches = &exec.branches;
  engine.done = [&array] { return array.halted(); };
  engine.name_tracks = [cores, contexts](trace::TraceSession* session) {
    trace::name_context_tracks(session, cores, contexts);
  };
  engine.dump = [&array] { return array.debug_dump(); };
}

millipede::RowPlan Machine::row_plan() const {
  const workloads::InterleavedLayout& layout = input.layout;
  return {layout.first_row(), layout.num_rows(),
          [layout, cores = cfg.core.cores](u64 row, u32 corelet) {
            return layout.expected_slab_mask(row, corelet, cores);
          }};
}

void Machine::register_states() {
  image_delta_ =
      std::make_unique<ImageDelta>(&input.image, &spec_.prepared.image);
  kernel.add_state(sim::kSecDramDelta, image_delta_.get());
  kernel.add_state(sim::kSecController, &dram);
  for (const auto& [section, state] : states_) kernel.add_state(section, state);
  kernel.add_state(sim::kSecDecodeCache, &dcache);
  for (u32 c = 0; c < cfg.core.cores; ++c) {
    if (corelets) {
      kernel.add_state(sim::kSecCoreletBase + c, corelets->section(c));
    }
    for (const CoreState& s : core_states_) {
      if (s.core == c) kernel.add_state(s.section, s.state);
    }
  }
  kernel.set_stats(&stats);
  kernel.set_meta_fn([this](sim::SnapshotMeta& m) {
    m.arch_label = arch_name(spec_.kind);
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
      std::string(arch_name(spec_.kind)) + "/" + workload.name, &stats,
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
  result.arch = arch_name(spec_.kind);
  result.workload = workload.name;
  result.compute_cycles = kernel.compute_cycles();
  result.runtime_ps = runtime;
  result.thread_instructions = engine.instructions->value;
  result.input_words = workload.num_records * workload.fields;
  result.final_clock_mhz = kernel.final_clock_mhz();
  result.warp_width = engine.warp_width;
  result.work = kernel.work();
  if (corelets) result.work.core_ticks = corelets->core_ticks();
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
    : GlobalPort(/*local_latency_fixed=*/false),
      l1s_(l1s),
      prefetchers_(prefetchers),
      state_base_(m.input.layout.total_bytes()),
      state_stride_((m.cfg.core.local_mem_bytes + m.cfg.dram.row_bytes - 1) /
                    m.cfg.dram.row_bytes * m.cfg.dram.row_bytes) {}

core::PortResult CachedPort::load(u32 core, Addr addr, Picos now,
                                  sim::Wake wake) {
  mem::Cache& l1 = (*l1s_)[core];
  (*prefetchers_)[core].observe(addr, &prefetch_lines_);
  for (const Addr line : prefetch_lines_) l1.prefetch(line, now);
  return access(l1, addr, false, now, wake);
}

core::PortResult CachedPort::local_access(u32 core, Addr addr, bool is_write,
                                          Picos /*fixed*/, Picos now,
                                          sim::Wake wake) {
  const Addr global =
      state_base_ + static_cast<Addr>(core) * state_stride_ + addr;
  return access((*l1s_)[core], global, is_write, now, wake);
}

core::PortResult CachedPort::access(mem::Cache& l1, Addr addr, bool is_write,
                                    Picos now, sim::Wake wake) {
  switch (l1.access(addr, is_write, now, wake)) {
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
