#pragma once
// The functional executor: one instruction-set semantics shared by every
// architecture model (corelet, SSMC core, GPGPU lane, multicore context).
// Timing models read an instruction's kind and global address first to
// negotiate structural resources, then run its predecoded handler (`fn`) to
// commit architectural state; step() is the reference interpreter.

#include "core/context.hpp"
#include "isa/program.hpp"
#include "mem/dram_image.hpp"
#include "mem/local_store.hpp"

namespace mlp::core {

enum class StepKind : u8 {
  kAlu,
  kFloat,
  kLocal,        ///< lw.l / sw.l / amoadd.l / famoadd.l
  kGlobalLoad,
  kGlobalStore,
  kBranch,
  kJump,
  kCsr,
  kHalt,
  kBarrier,  ///< processor-wide thread barrier (bar)
};

/// Number of StepKind values (per-kind tables in the timing models).
inline constexpr u32 kNumStepKinds = static_cast<u32>(StepKind::kBarrier) + 1;

struct StepResult {
  StepKind kind = StepKind::kAlu;
  bool branch_taken = false;
};

/// Classification of the instruction at ctx.pc without side effects; timing
/// models use it to reserve ports before committing execution.
StepKind classify(const isa::Instr& instr);

/// Effective global address of the (global) memory instruction at ctx.pc.
Addr global_addr(const Context& ctx, const isa::Instr& instr);

/// The reference interpreter: execute `instr`, the instruction at ctx.pc.
/// Updates registers, pc, instret and the local store; reads global values
/// from `dram` (timing-decoupled). Global stores also write `dram`
/// immediately. Returns what happened for timing.
StepResult step(Context& ctx, const isa::Instr& instr, mem::LocalStore& local,
                mem::DramImage& dram);

/// step() on the instruction the program holds at ctx.pc.
inline StepResult step(Context& ctx, const isa::Program& program,
                       mem::LocalStore& local, mem::DramImage& dram) {
  return step(ctx, program.at(ctx.pc), local, dram);
}

struct DecodedInstr;

/// Execute handler of one predecoded instruction (indirect threaded
/// dispatch): commits every architectural effect of the instruction at
/// ctx.pc, pc and instret included, and returns whether it was a taken
/// branch.
using StepFn = bool (*)(const DecodedInstr& de, Context& ctx,
                        mem::LocalStore& local, mem::DramImage& dram);

/// One predecoded instruction: the raw Instr plus everything the per-edge
/// hot path would otherwise recompute (classification, local-store
/// direction, execute handler, branch-taken target, owning basic block).
/// Produced by DecodedBlockCache; `fn == nullptr` marks a slot whose block
/// has not been decoded yet.
struct DecodedInstr {
  isa::Instr instr;
  StepKind kind = StepKind::kAlu;
  bool is_store = false;  ///< op_info(instr.op).is_store, for local accesses
  StepFn fn = nullptr;
  u32 block = 0;     ///< CFG basic-block id of this pc
  u32 taken_pc = 0;  ///< pc + imm: branch target if taken
};

/// Execute handler for `op`; aborts on kCount_ (never a real instruction).
StepFn step_fn_for(isa::Opcode op);

/// Handler that runs the reference step() on `de.instr` for every opcode:
/// the differential oracle for the per-opcode handlers (--no-block-cache).
bool step_reference(const DecodedInstr& de, Context& ctx,
                    mem::LocalStore& local, mem::DramImage& dram);

}  // namespace mlp::core
