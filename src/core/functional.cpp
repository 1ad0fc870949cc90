#include "core/functional.hpp"

#include <cmath>
#include <cstring>

namespace mlp::core {
namespace {

float as_f(u32 bits) {
  float value;
  std::memcpy(&value, &bits, 4);
  return value;
}

u32 as_u(float value) {
  u32 bits;
  std::memcpy(&bits, &value, 4);
  return bits;
}

// ---- Predecoded dispatch handlers ----------------------------------------
// One function per opcode, mirroring step()'s switch arms exactly. The
// operand prologue (a/b/sa/sb) matches step()'s so the expressions below can
// be byte-for-byte copies of the switch cases; every handler retires its
// instruction itself (instret, next pc), so a caller's dispatch is one
// indirect call.

#define MLP_STEP_ARGS                                                     \
  [[maybe_unused]] const DecodedInstr& de, [[maybe_unused]] Context& ctx, \
      [[maybe_unused]] mem::LocalStore& local,                            \
      [[maybe_unused]] mem::DramImage& dram

/// Retire a non-branch instruction that continues at `next_pc`.
bool retire(Context& ctx, u32 next_pc) {
  ++ctx.instret;
  ctx.pc = next_pc;
  return false;
}

#define MLP_REG_OP(name, expr)                           \
  bool name(MLP_STEP_ARGS) {                             \
    const isa::Instr& in = de.instr;                     \
    [[maybe_unused]] const u32 a = ctx.reg(in.rs1);      \
    [[maybe_unused]] const u32 b = ctx.reg(in.rs2);      \
    [[maybe_unused]] const i32 sa = static_cast<i32>(a); \
    [[maybe_unused]] const i32 sb = static_cast<i32>(b); \
    ctx.set_reg(in.rd, (expr));                          \
    return retire(ctx, ctx.pc + 1);                      \
  }

#define MLP_BRANCH_OP(name, expr)                        \
  bool name(MLP_STEP_ARGS) {                             \
    const isa::Instr& in = de.instr;                     \
    [[maybe_unused]] const u32 a = ctx.reg(in.rs1);      \
    [[maybe_unused]] const u32 b = ctx.reg(in.rs2);      \
    [[maybe_unused]] const i32 sa = static_cast<i32>(a); \
    [[maybe_unused]] const i32 sb = static_cast<i32>(b); \
    const bool taken = (expr);                           \
    ++ctx.instret;                                       \
    ctx.pc = taken ? de.taken_pc : ctx.pc + 1;           \
    return taken;                                        \
  }

MLP_REG_OP(fn_add, a + b)
MLP_REG_OP(fn_sub, a - b)
MLP_REG_OP(fn_mul, a * b)
MLP_REG_OP(fn_mulh,
           static_cast<u32>((static_cast<i64>(sa) * sb) >> 32))
MLP_REG_OP(fn_div, sb == 0 ? 0xffffffffu : static_cast<u32>(sa / sb))
MLP_REG_OP(fn_rem, sb == 0 ? a : static_cast<u32>(sa % sb))
MLP_REG_OP(fn_and, a & b)
MLP_REG_OP(fn_or, a | b)
MLP_REG_OP(fn_xor, a ^ b)
MLP_REG_OP(fn_sll, a << (b & 31))
MLP_REG_OP(fn_srl, a >> (b & 31))
MLP_REG_OP(fn_sra, static_cast<u32>(sa >> (b & 31)))
MLP_REG_OP(fn_slt, sa < sb ? 1 : 0)
MLP_REG_OP(fn_sltu, a < b ? 1 : 0)

MLP_REG_OP(fn_fadd, as_u(as_f(a) + as_f(b)))
MLP_REG_OP(fn_fsub, as_u(as_f(a) - as_f(b)))
MLP_REG_OP(fn_fmul, as_u(as_f(a) * as_f(b)))
MLP_REG_OP(fn_fdiv, as_u(as_f(a) / as_f(b)))
MLP_REG_OP(fn_fmin, as_u(std::fmin(as_f(a), as_f(b))))
MLP_REG_OP(fn_fmax, as_u(std::fmax(as_f(a), as_f(b))))
MLP_REG_OP(fn_flt, as_f(a) < as_f(b) ? 1 : 0)
MLP_REG_OP(fn_fle, as_f(a) <= as_f(b) ? 1 : 0)
MLP_REG_OP(fn_feq, as_f(a) == as_f(b) ? 1 : 0)
MLP_REG_OP(fn_fsqrt, as_u(std::sqrt(as_f(a))))
MLP_REG_OP(fn_fabs, as_u(std::fabs(as_f(a))))
MLP_REG_OP(fn_fneg, as_u(-as_f(a)))
MLP_REG_OP(fn_fcvtws, static_cast<u32>(static_cast<i32>(as_f(a))))
MLP_REG_OP(fn_fcvtsw, as_u(static_cast<float>(sa)))

MLP_REG_OP(fn_addi, a + static_cast<u32>(in.imm))
MLP_REG_OP(fn_andi, a & static_cast<u32>(in.imm))
MLP_REG_OP(fn_ori, a | static_cast<u32>(in.imm))
MLP_REG_OP(fn_xori, a ^ static_cast<u32>(in.imm))
MLP_REG_OP(fn_slli, a << (in.imm & 31))
MLP_REG_OP(fn_srli, a >> (in.imm & 31))
MLP_REG_OP(fn_srai, static_cast<u32>(sa >> (in.imm & 31)))
MLP_REG_OP(fn_slti, sa < in.imm ? 1 : 0)
MLP_REG_OP(fn_lui, static_cast<u32>(in.imm) << 13)

MLP_REG_OP(fn_lw, dram.read_u32(global_addr(ctx, in)))
MLP_REG_OP(fn_lwl, local.load(a + static_cast<u32>(in.imm)))
MLP_REG_OP(fn_amoaddl, local.amoadd(a + static_cast<u32>(in.imm), b))
MLP_REG_OP(fn_famoaddl, local.famoadd(a + static_cast<u32>(in.imm), b))
bool fn_sw(MLP_STEP_ARGS) {
  const isa::Instr& in = de.instr;
  dram.write_u32(global_addr(ctx, in), ctx.reg(in.rs2));
  return retire(ctx, ctx.pc + 1);
}
bool fn_swl(MLP_STEP_ARGS) {
  const isa::Instr& in = de.instr;
  local.store(ctx.reg(in.rs1) + static_cast<u32>(in.imm), ctx.reg(in.rs2));
  return retire(ctx, ctx.pc + 1);
}

MLP_BRANCH_OP(fn_beq, a == b)
MLP_BRANCH_OP(fn_bne, a != b)
MLP_BRANCH_OP(fn_blt, sa < sb)
MLP_BRANCH_OP(fn_bge, sa >= sb)
MLP_BRANCH_OP(fn_bltu, a < b)
MLP_BRANCH_OP(fn_bgeu, a >= b)

bool fn_jal(MLP_STEP_ARGS) {
  const isa::Instr& in = de.instr;
  ctx.set_reg(in.rd, ctx.pc + 1);
  return retire(ctx, static_cast<u32>(static_cast<i32>(ctx.pc) + in.imm));
}
bool fn_jalr(MLP_STEP_ARGS) {
  const isa::Instr& in = de.instr;
  const u32 target = ctx.reg(in.rs1) + static_cast<u32>(in.imm);
  ctx.set_reg(in.rd, ctx.pc + 1);
  return retire(ctx, target);
}
bool fn_csrr(MLP_STEP_ARGS) {
  const isa::Instr& in = de.instr;
  ctx.set_reg(in.rd, ctx.csr.values[static_cast<u32>(in.imm)]);
  return retire(ctx, ctx.pc + 1);
}
bool fn_halt(MLP_STEP_ARGS) {
  ctx.state = Context::State::kHalted;
  ++ctx.instret;  // a halted context keeps its pc
  return false;
}
bool fn_bar(MLP_STEP_ARGS) {
  return retire(ctx, ctx.pc + 1);  // synchronization is the timing model's job
}

#undef MLP_BRANCH_OP
#undef MLP_REG_OP
#undef MLP_STEP_ARGS

}  // namespace

StepKind classify(const isa::Instr& in) {
  using isa::Opcode;
  const isa::OpInfo& info = isa::op_info(in.op);
  if (in.op == Opcode::kHalt) return StepKind::kHalt;
  if (in.op == Opcode::kBar) return StepKind::kBarrier;
  if (info.is_branch) return StepKind::kBranch;
  if (info.is_jump) return StepKind::kJump;
  if (info.is_local_mem) return StepKind::kLocal;
  if (info.is_global_mem) {
    return info.is_load ? StepKind::kGlobalLoad : StepKind::kGlobalStore;
  }
  if (in.op == Opcode::kCsrr) return StepKind::kCsr;
  if (info.is_float) return StepKind::kFloat;
  return StepKind::kAlu;
}

Addr global_addr(const Context& ctx, const isa::Instr& in) {
  return static_cast<Addr>(
      static_cast<i64>(ctx.reg(in.rs1)) + in.imm);
}

StepResult step(Context& ctx, const isa::Instr& in, mem::LocalStore& local,
                mem::DramImage& dram) {
  using isa::Opcode;
  StepResult result;
  result.kind = classify(in);
  ++ctx.instret;

  const u32 a = ctx.reg(in.rs1);
  const u32 b = ctx.reg(in.rs2);
  const i32 sa = static_cast<i32>(a);
  const i32 sb = static_cast<i32>(b);
  u32 next_pc = ctx.pc + 1;

  switch (in.op) {
    case Opcode::kAdd: ctx.set_reg(in.rd, a + b); break;
    case Opcode::kSub: ctx.set_reg(in.rd, a - b); break;
    case Opcode::kMul: ctx.set_reg(in.rd, a * b); break;
    case Opcode::kMulh:
      ctx.set_reg(in.rd, static_cast<u32>(
                             (static_cast<i64>(sa) * sb) >> 32));
      break;
    case Opcode::kDiv:
      ctx.set_reg(in.rd, sb == 0 ? 0xffffffffu
                                 : static_cast<u32>(sa / sb));
      break;
    case Opcode::kRem:
      ctx.set_reg(in.rd, sb == 0 ? a : static_cast<u32>(sa % sb));
      break;
    case Opcode::kAnd: ctx.set_reg(in.rd, a & b); break;
    case Opcode::kOr: ctx.set_reg(in.rd, a | b); break;
    case Opcode::kXor: ctx.set_reg(in.rd, a ^ b); break;
    case Opcode::kSll: ctx.set_reg(in.rd, a << (b & 31)); break;
    case Opcode::kSrl: ctx.set_reg(in.rd, a >> (b & 31)); break;
    case Opcode::kSra: ctx.set_reg(in.rd, static_cast<u32>(sa >> (b & 31))); break;
    case Opcode::kSlt: ctx.set_reg(in.rd, sa < sb ? 1 : 0); break;
    case Opcode::kSltu: ctx.set_reg(in.rd, a < b ? 1 : 0); break;

    case Opcode::kFadd: ctx.set_reg(in.rd, as_u(as_f(a) + as_f(b))); break;
    case Opcode::kFsub: ctx.set_reg(in.rd, as_u(as_f(a) - as_f(b))); break;
    case Opcode::kFmul: ctx.set_reg(in.rd, as_u(as_f(a) * as_f(b))); break;
    case Opcode::kFdiv: ctx.set_reg(in.rd, as_u(as_f(a) / as_f(b))); break;
    case Opcode::kFmin: ctx.set_reg(in.rd, as_u(std::fmin(as_f(a), as_f(b)))); break;
    case Opcode::kFmax: ctx.set_reg(in.rd, as_u(std::fmax(as_f(a), as_f(b)))); break;
    case Opcode::kFlt: ctx.set_reg(in.rd, as_f(a) < as_f(b) ? 1 : 0); break;
    case Opcode::kFle: ctx.set_reg(in.rd, as_f(a) <= as_f(b) ? 1 : 0); break;
    case Opcode::kFeq: ctx.set_reg(in.rd, as_f(a) == as_f(b) ? 1 : 0); break;
    case Opcode::kFsqrt: ctx.set_reg(in.rd, as_u(std::sqrt(as_f(a)))); break;
    case Opcode::kFabs: ctx.set_reg(in.rd, as_u(std::fabs(as_f(a)))); break;
    case Opcode::kFneg: ctx.set_reg(in.rd, as_u(-as_f(a))); break;
    case Opcode::kFcvtWs:
      ctx.set_reg(in.rd, static_cast<u32>(static_cast<i32>(as_f(a))));
      break;
    case Opcode::kFcvtSw:
      ctx.set_reg(in.rd, as_u(static_cast<float>(sa)));
      break;

    case Opcode::kAddi: ctx.set_reg(in.rd, a + static_cast<u32>(in.imm)); break;
    case Opcode::kAndi: ctx.set_reg(in.rd, a & static_cast<u32>(in.imm)); break;
    case Opcode::kOri: ctx.set_reg(in.rd, a | static_cast<u32>(in.imm)); break;
    case Opcode::kXori: ctx.set_reg(in.rd, a ^ static_cast<u32>(in.imm)); break;
    case Opcode::kSlli: ctx.set_reg(in.rd, a << (in.imm & 31)); break;
    case Opcode::kSrli: ctx.set_reg(in.rd, a >> (in.imm & 31)); break;
    case Opcode::kSrai:
      ctx.set_reg(in.rd, static_cast<u32>(sa >> (in.imm & 31)));
      break;
    case Opcode::kSlti: ctx.set_reg(in.rd, sa < in.imm ? 1 : 0); break;
    case Opcode::kLui:
      ctx.set_reg(in.rd, static_cast<u32>(in.imm) << 13);
      break;

    case Opcode::kLw:
      ctx.set_reg(in.rd, dram.read_u32(global_addr(ctx, in)));
      break;
    case Opcode::kSw:
      dram.write_u32(global_addr(ctx, in), b);
      break;
    case Opcode::kLwl:
      ctx.set_reg(in.rd, local.load(a + static_cast<u32>(in.imm)));
      break;
    case Opcode::kSwl:
      local.store(a + static_cast<u32>(in.imm), b);
      break;
    case Opcode::kAmoaddl:
      ctx.set_reg(in.rd, local.amoadd(a + static_cast<u32>(in.imm), b));
      break;
    case Opcode::kFamoaddl:
      ctx.set_reg(in.rd, local.famoadd(a + static_cast<u32>(in.imm), b));
      break;

    case Opcode::kBeq: result.branch_taken = a == b; break;
    case Opcode::kBne: result.branch_taken = a != b; break;
    case Opcode::kBlt: result.branch_taken = sa < sb; break;
    case Opcode::kBge: result.branch_taken = sa >= sb; break;
    case Opcode::kBltu: result.branch_taken = a < b; break;
    case Opcode::kBgeu: result.branch_taken = a >= b; break;

    case Opcode::kJal:
      ctx.set_reg(in.rd, ctx.pc + 1);
      next_pc = static_cast<u32>(static_cast<i32>(ctx.pc) + in.imm);
      break;
    case Opcode::kJalr: {
      const u32 target = a + static_cast<u32>(in.imm);
      ctx.set_reg(in.rd, ctx.pc + 1);
      next_pc = target;
      break;
    }

    case Opcode::kCsrr:
      ctx.set_reg(in.rd, ctx.csr.values[static_cast<u32>(in.imm)]);
      break;
    case Opcode::kHalt:
      ctx.state = Context::State::kHalted;
      next_pc = ctx.pc;
      break;
    case Opcode::kBar:
      break;  // synchronization is the timing model's job
    case Opcode::kCount_:
      MLP_CHECK(false, "invalid opcode");
  }

  if (result.branch_taken) {
    next_pc = static_cast<u32>(static_cast<i32>(ctx.pc) + in.imm);
  }
  if (ctx.state != Context::State::kHalted) ctx.pc = next_pc;
  return result;
}

StepFn step_fn_for(isa::Opcode op) {
  using isa::Opcode;
  switch (op) {
    case Opcode::kAdd: return fn_add;
    case Opcode::kSub: return fn_sub;
    case Opcode::kMul: return fn_mul;
    case Opcode::kMulh: return fn_mulh;
    case Opcode::kDiv: return fn_div;
    case Opcode::kRem: return fn_rem;
    case Opcode::kAnd: return fn_and;
    case Opcode::kOr: return fn_or;
    case Opcode::kXor: return fn_xor;
    case Opcode::kSll: return fn_sll;
    case Opcode::kSrl: return fn_srl;
    case Opcode::kSra: return fn_sra;
    case Opcode::kSlt: return fn_slt;
    case Opcode::kSltu: return fn_sltu;
    case Opcode::kFadd: return fn_fadd;
    case Opcode::kFsub: return fn_fsub;
    case Opcode::kFmul: return fn_fmul;
    case Opcode::kFdiv: return fn_fdiv;
    case Opcode::kFmin: return fn_fmin;
    case Opcode::kFmax: return fn_fmax;
    case Opcode::kFlt: return fn_flt;
    case Opcode::kFle: return fn_fle;
    case Opcode::kFeq: return fn_feq;
    case Opcode::kFsqrt: return fn_fsqrt;
    case Opcode::kFabs: return fn_fabs;
    case Opcode::kFneg: return fn_fneg;
    case Opcode::kFcvtWs: return fn_fcvtws;
    case Opcode::kFcvtSw: return fn_fcvtsw;
    case Opcode::kAddi: return fn_addi;
    case Opcode::kAndi: return fn_andi;
    case Opcode::kOri: return fn_ori;
    case Opcode::kXori: return fn_xori;
    case Opcode::kSlli: return fn_slli;
    case Opcode::kSrli: return fn_srli;
    case Opcode::kSrai: return fn_srai;
    case Opcode::kSlti: return fn_slti;
    case Opcode::kLui: return fn_lui;
    case Opcode::kLw: return fn_lw;
    case Opcode::kSw: return fn_sw;
    case Opcode::kLwl: return fn_lwl;
    case Opcode::kSwl: return fn_swl;
    case Opcode::kAmoaddl: return fn_amoaddl;
    case Opcode::kFamoaddl: return fn_famoaddl;
    case Opcode::kBeq: return fn_beq;
    case Opcode::kBne: return fn_bne;
    case Opcode::kBlt: return fn_blt;
    case Opcode::kBge: return fn_bge;
    case Opcode::kBltu: return fn_bltu;
    case Opcode::kBgeu: return fn_bgeu;
    case Opcode::kJal: return fn_jal;
    case Opcode::kJalr: return fn_jalr;
    case Opcode::kCsrr: return fn_csrr;
    case Opcode::kHalt: return fn_halt;
    case Opcode::kBar: return fn_bar;
    case Opcode::kCount_: break;
  }
  MLP_CHECK(false, "invalid opcode");
  return nullptr;
}

bool step_reference(const DecodedInstr& de, Context& ctx,
                    mem::LocalStore& local, mem::DramImage& dram) {
  return step(ctx, de.instr, local, dram).branch_taken;
}

}  // namespace mlp::core
