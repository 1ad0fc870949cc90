#include "arch/system.hpp"

#include <optional>

#include "arch/machine.hpp"
#include "common/error.hpp"

namespace mlp::arch {

const char* arch_name(ArchKind kind) {
  switch (kind) {
    case ArchKind::kMillipede: return "millipede";
    case ArchKind::kMillipedeNoFlowControl: return "millipede-no-flow-control";
    case ArchKind::kMillipedeNoRateMatch: return "millipede-no-rate-match";
    case ArchKind::kSsmc: return "ssmc";
    case ArchKind::kGpgpu: return "gpgpu";
    case ArchKind::kVws: return "vws";
    case ArchKind::kVwsRow: return "vws-row";
    case ArchKind::kMulticore: return "multicore";
  }
  return "?";
}

const std::vector<ArchKind>& all_arch_kinds() {
  static const std::vector<ArchKind> kinds = {
      ArchKind::kMillipede,      ArchKind::kMillipedeNoFlowControl,
      ArchKind::kMillipedeNoRateMatch, ArchKind::kSsmc,
      ArchKind::kGpgpu,          ArchKind::kVws,
      ArchKind::kVwsRow,         ArchKind::kMulticore,
  };
  return kinds;
}

bool arch_from_name(const std::string& name, ArchKind* out) {
  for (const ArchKind kind : all_arch_kinds()) {
    if (name == arch_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

PreparedInput prepare_input(const MachineConfig& cfg,
                            const workloads::Workload& workload, u64 seed) {
  const workloads::LayoutMode mode =
      cfg.slab_layout ? workloads::LayoutMode::kRecordContiguous
                      : workloads::LayoutMode::kFieldMajor;
  workloads::InterleavedLayout layout(cfg.dram.row_bytes, workload.fields,
                                      workload.num_records, /*base=*/0, mode);
  PreparedInput input{layout, mem::DramImage(layout.total_bytes()), {}};
  Rng rng(seed);
  workload.generate(input.layout, input.image, rng);
  input.reference = workload.reference(input.image, input.layout);
  return input;
}

void finalize_result(RunResult* result, u64 branch_count,
                     const StatSet& stats) {
  result->insts_per_word =
      result->input_words == 0
          ? 0.0
          : static_cast<double>(result->thread_instructions) /
                static_cast<double>(result->input_words);
  result->branches_per_inst =
      result->thread_instructions == 0
          ? 0.0
          : static_cast<double>(branch_count) /
                static_cast<double>(result->thread_instructions);
  const u64 hits =
      stats.has("dram.row_hits") ? stats.get("dram.row_hits") : 0;
  const u64 misses =
      stats.has("dram.row_misses") ? stats.get("dram.row_misses") : 0;
  result->row_miss_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(misses) / static_cast<double>(hits + misses);
  for (const auto& [name, value] : stats.snapshot()) {
    result->stats.emplace(name, value);
  }
}

RunResult run_arch(ArchKind kind, const MachineConfig& cfg,
                   const workloads::Workload& workload, u64 seed,
                   trace::TraceSession* trace, const PreparedInput* prepared,
                   sim::SnapshotPlan* snapshot) {
  MachineConfig tuned = cfg;
  RunResult (*run)(const RunSpec&) = nullptr;
  bool row_buffer = false;  // the input path is the row prefetch buffer
  switch (kind) {
    case ArchKind::kMillipede:
    case ArchKind::kMillipedeNoFlowControl:
    case ArchKind::kMillipedeNoRateMatch:
      row_buffer = true;
      run = run_millipede;
      break;
    case ArchKind::kSsmc:
      run = run_ssmc;
      break;
    case ArchKind::kGpgpu:
    case ArchKind::kVws:
    case ArchKind::kVwsRow:
      // Checked before preparing, which cannot lay out every field count
      // record-contiguously.
      MLP_SIM_CHECK(!cfg.slab_layout, "config",
                    "the GPGPU needs word-size columns for coalescing "
                    "(paper III-B)");
      row_buffer = kind == ArchKind::kVwsRow;
      run = run_gpgpu;
      break;
    case ArchKind::kMulticore:
      tuned = multicore_config(cfg);
      run = run_multicore;
      break;
  }
  MLP_CHECK(run != nullptr, "unknown architecture");
  // The record-barrier ablation (paper IV-C) is the software alternative to
  // Millipede's flow control: only the Millipede processor has a barrier.
  // The SM's warps are lockstep already.
  MLP_SIM_CHECK(run == run_millipede ||
                    !workload.program.contains(isa::Opcode::kBar),
                "config",
                std::string("record barriers (bar) are not supported on ") +
                    (run == run_gpgpu ? "the SM" : arch_name(kind)));
  tuned.validate();
  // Layout, image and reference depend only on the row geometry and the
  // slab-layout switch, which no tuning above touches.
  std::optional<PreparedInput> own;
  if (prepared == nullptr) {
    prepared = &own.emplace(prepare_input(tuned, workload, seed));
  }
  // A record's field loads touch `record_row_footprint()` concurrent rows
  // (= fields under the field-major layout, 1 under slab-interleaving);
  // flow control deadlocks if the window cannot hold them all. Fail fast —
  // recoverably, so one undersized sweep point cannot kill a whole matrix.
  MLP_SIM_CHECK(!row_buffer || tuned.millipede.unsafe_skip_window_check ||
                    tuned.millipede.pf_entries >=
                        prepared->layout.record_row_footprint(),
                "config",
                "prefetch window smaller than a record's row footprint");
  return run({kind, tuned, workload, *prepared, trace, snapshot});
}

}  // namespace mlp::arch
