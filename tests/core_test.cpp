// Functional executor semantics and corelet timing behaviour.

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "core/corelet.hpp"
#include "core/decode_cache.hpp"
#include "core/functional.hpp"
#include "isa/assembler.hpp"

namespace mlp::core {
namespace {

using isa::Csr;
using isa::Opcode;

u32 fbits(float f) {
  u32 bits;
  std::memcpy(&bits, &f, 4);
  return bits;
}

float as_float(u32 bits) {
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

/// Runs a small program functionally on one context until halt.
struct FuncRunner {
  explicit FuncRunner(const std::string& src)
      : program(isa::must_assemble("func", src)), local(4096), dram(4096) {}

  void run(u32 max_steps = 100000) {
    while (ctx.state != Context::State::kHalted) {
      ASSERT_GT(max_steps--, 0u) << "program did not halt";
      step(ctx, program, local, dram);
    }
  }

  isa::Program program;
  Context ctx;
  mem::LocalStore local;
  mem::DramImage dram;
};

// --- ALU semantics via parameterized cases: {source, reg, expected} ---

struct AluCase {
  const char* name;
  const char* body;   // program body; result expected in r3
  u32 expected;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, ComputesExpected) {
  FuncRunner r(std::string(GetParam().body) + "\nhalt\n");
  r.run();
  EXPECT_EQ(r.ctx.reg(3), GetParam().expected) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, AluSemantics,
    ::testing::Values(
        AluCase{"add", "li r1, 7\n li r2, 5\n add r3, r1, r2", 12},
        AluCase{"sub_wraps", "li r1, 3\n li r2, 5\n sub r3, r1, r2",
                0xfffffffe},
        AluCase{"mul", "li r1, 100\n li r2, 200\n mul r3, r1, r2", 20000},
        AluCase{"mulh", "li r1, 0x40000000\n li r2, 8\n mulh r3, r1, r2", 2},
        AluCase{"div", "li r1, -20\n li r2, 3\n div r3, r1, r2",
                static_cast<u32>(-6)},
        AluCase{"div_by_zero", "li r1, 5\n li r2, 0\n div r3, r1, r2",
                0xffffffff},
        AluCase{"rem", "li r1, 17\n li r2, 5\n rem r3, r1, r2", 2},
        AluCase{"and", "li r1, 0xff\n li r2, 0x0f\n and r3, r1, r2", 0x0f},
        AluCase{"or", "li r1, 0xf0\n li r2, 0x0f\n or r3, r1, r2", 0xff},
        AluCase{"xor", "li r1, 0xff\n li r2, 0x0f\n xor r3, r1, r2", 0xf0},
        AluCase{"sll", "li r1, 1\n li r2, 11\n sll r3, r1, r2", 2048},
        AluCase{"srl", "li r1, 0x80000000\n li r2, 31\n srl r3, r1, r2", 1},
        AluCase{"sra", "li r1, -16\n li r2, 2\n sra r3, r1, r2",
                static_cast<u32>(-4)},
        AluCase{"slt_true", "li r1, -1\n li r2, 0\n slt r3, r1, r2", 1},
        AluCase{"sltu_false", "li r1, -1\n li r2, 0\n sltu r3, r1, r2", 0},
        AluCase{"addi", "li r1, 10\n addi r3, r1, -3", 7},
        AluCase{"slli", "li r1, 3\n slli r3, r1, 4", 48},
        AluCase{"srai", "li r1, -64\n srai r3, r1, 3", static_cast<u32>(-8)},
        AluCase{"slti", "li r1, 4\n slti r3, r1, 5", 1},
        AluCase{"lui", "lui r3, 1", 1u << 13}));

INSTANTIATE_TEST_SUITE_P(
    FloatOps, AluSemantics,
    ::testing::Values(
        AluCase{"fadd", "li.f r1, 1.5\n li.f r2, 2.25\n fadd r3, r1, r2",
                0x40700000},  // 3.75f
        AluCase{"fmul", "li.f r1, 2.0\n li.f r2, 3.0\n fmul r3, r1, r2",
                0x40c00000},  // 6.0f
        AluCase{"flt_true", "li.f r1, 1.0\n li.f r2, 2.0\n flt r3, r1, r2", 1},
        AluCase{"flt_false", "li.f r1, 2.0\n li.f r2, 1.0\n flt r3, r1, r2", 0},
        AluCase{"fle_eq", "li.f r1, 2.0\n li.f r2, 2.0\n fle r3, r1, r2", 1},
        AluCase{"fsqrt", "li.f r1, 9.0\n fsqrt r3, r1", 0x40400000},  // 3.0f
        AluCase{"fneg", "li.f r1, 1.0\n fneg r3, r1", 0xbf800000},
        AluCase{"f2i", "li.f r1, 7.9\n fcvt.w.s r3, r1", 7},
        AluCase{"i2f", "li r1, 4\n fcvt.s.w r3, r1", 0x40800000}));  // 4.0f

TEST(Functional, R0IsHardwiredZero) {
  FuncRunner r("li r0, 55\n addi r3, r0, 1\n halt\n");
  r.run();
  EXPECT_EQ(r.ctx.reg(0), 0u);
  EXPECT_EQ(r.ctx.reg(3), 1u);
}

TEST(Functional, BranchLoopCountsToTen) {
  FuncRunner r(R"(
    li r1, 0
    li r2, 10
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
  )");
  r.run();
  EXPECT_EQ(r.ctx.reg(1), 10u);
}

TEST(Functional, JalLinksReturnAddress) {
  FuncRunner r(R"(
    jal r5, target
    halt
target:
    halt
  )");
  r.run();
  EXPECT_EQ(r.ctx.reg(5), 1u);
  EXPECT_EQ(r.ctx.pc, 2u);
}

TEST(Functional, JalrComputedJump) {
  FuncRunner r(R"(
    li r1, 3
    jalr r2, r1, 0
    halt
    halt
  )");
  r.run();
  EXPECT_EQ(r.ctx.pc, 3u);
  EXPECT_EQ(r.ctx.reg(2), 2u);
}

TEST(Functional, CsrReadsThreadIdentity) {
  FuncRunner r("csrr r1, TID\n csrr r2, ARG3\n halt\n");
  r.ctx.csr.set(Csr::kTid, 77);
  r.ctx.csr.set(Csr::kArg3, 1234);
  r.run();
  EXPECT_EQ(r.ctx.reg(1), 77u);
  EXPECT_EQ(r.ctx.reg(2), 1234u);
}

TEST(Functional, GlobalLoadReadsDramImage) {
  FuncRunner r("li r1, 64\n lw r3, 4(r1)\n halt\n");
  r.dram.write_u32(68, 0xcafe);
  r.run();
  EXPECT_EQ(r.ctx.reg(3), 0xcafeu);
}

TEST(Functional, GlobalStoreWritesDramImage) {
  FuncRunner r("li r1, 128\n li r2, 99\n sw r2, 0(r1)\n halt\n");
  r.run();
  EXPECT_EQ(r.dram.read_u32(128), 99u);
}

TEST(Functional, LocalLoadStoreAndAtomics) {
  FuncRunner r(R"(
    li r1, 16
    li r2, 5
    sw.l r2, 0(r1)
    amoadd.l r3, r2, 0(r1)   ; r3 = 5, local = 10
    lw.l r4, 0(r1)
    halt
  )");
  r.run();
  EXPECT_EQ(r.ctx.reg(3), 5u);
  EXPECT_EQ(r.ctx.reg(4), 10u);
}

TEST(Functional, FloatAtomicAccumulate) {
  FuncRunner r(R"(
    li r1, 8
    li.f r2, 1.25
    famoadd.l r3, r2, 0(r1)
    famoadd.l r3, r2, 0(r1)
    halt
  )");
  r.run();
  EXPECT_FLOAT_EQ(r.local.load_f32(8), 2.5f);
  EXPECT_FLOAT_EQ(as_float(r.ctx.reg(3)), 1.25f);
}

TEST(Functional, ClassifyKinds) {
  EXPECT_EQ(classify({Opcode::kAdd, 1, 2, 3, 0}), StepKind::kAlu);
  EXPECT_EQ(classify({Opcode::kFadd, 1, 2, 3, 0}), StepKind::kFloat);
  EXPECT_EQ(classify({Opcode::kLw, 1, 2, 0, 0}), StepKind::kGlobalLoad);
  EXPECT_EQ(classify({Opcode::kSw, 0, 2, 1, 0}), StepKind::kGlobalStore);
  EXPECT_EQ(classify({Opcode::kLwl, 1, 2, 0, 0}), StepKind::kLocal);
  EXPECT_EQ(classify({Opcode::kBeq, 0, 1, 2, 0}), StepKind::kBranch);
  EXPECT_EQ(classify({Opcode::kJal, 1, 0, 0, 0}), StepKind::kJump);
  EXPECT_EQ(classify({Opcode::kCsrr, 1, 0, 0, 0}), StepKind::kCsr);
  EXPECT_EQ(classify({Opcode::kHalt, 0, 0, 0, 0}), StepKind::kHalt);
}

TEST(Functional, GlobalAddrComputesBasePlusOffset) {
  Context ctx;
  ctx.set_reg(5, 1000);
  EXPECT_EQ(global_addr(ctx, {Opcode::kLw, 1, 5, 0, -8}), 992u);
}

// --- Corelet timing ---

/// Port with scripted latency; can also withhold completions (kPending) or
/// force retries. Live-state accesses take the caller's fixed latency and
/// are counted; `local_latency_fixed` says whether the corelet may skip them.
class FakePort : public GlobalPort {
 public:
  explicit FakePort(bool local_latency_fixed = true)
      : GlobalPort(local_latency_fixed) {}

  PortResult load(u32, Addr addr, Picos now, sim::Wake wake) override {
    ++loads;
    last_addr = addr;
    if (retries_left > 0) {
      --retries_left;
      return {PortStatus::kRetry, 0};
    }
    if (pend) {
      pending.push_back(wake);
      return {PortStatus::kPending, 0};
    }
    return {PortStatus::kDone, now + latency};
  }

  PortResult local_access(u32, Addr, bool, Picos fixed_ready_at, Picos,
                          sim::Wake) override {
    ++local_accesses;
    return {PortStatus::kDone, fixed_ready_at};
  }

  void complete_all(Picos at) {
    std::vector<sim::Wake> batch = std::move(pending);
    pending.clear();
    for (const sim::Wake& wake : batch) wake(at);
  }

  int loads = 0;
  int local_accesses = 0;
  Addr last_addr = 0;
  int retries_left = 0;
  bool pend = false;
  Picos latency = 0;
  std::vector<sim::Wake> pending;
};

/// A one-core array, ticked polled; its contexts read through the table.
struct CoreletFixture : ::testing::Test {
  CoreletFixture() : local(4096), dram(65536) {
    cfg.cores = 1;
    cfg.contexts = 4;
  }

  void make(const std::string& src) {
    array.reset();
    program = isa::must_assemble("core", src);
    dcache = std::make_unique<DecodedBlockCache>(program);
    array = std::make_unique<CoreletArray>(
        cfg, dcache.get(), std::span(&local, 1), &dram, &port, &stats);
  }

  Context& context(u32 x) { return array->context(0, x); }

  /// Ticks until halted; returns number of cycles.
  u64 run(u64 limit = 100000) {
    u64 cycles = 0;
    while (!array->halted()) {
      MLP_CHECK(cycles < limit, "corelet did not halt");
      array->tick(now, period);
      now += period;
      ++cycles;
    }
    return cycles;
  }

  CoreConfig cfg;
  isa::Program program;
  mem::LocalStore local;
  mem::DramImage dram;
  FakePort port;
  ExecStats stats;
  std::unique_ptr<DecodedBlockCache> dcache;
  std::unique_ptr<CoreletArray> array;
  Picos now = 0;
  Picos period = 1429;
};

TEST_F(CoreletFixture, AllContextsRunToCompletion) {
  make(R"(
    csrr r1, TID
    addi r2, r1, 1
    halt
  )");
  for (u32 i = 0; i < 4; ++i) context(i).csr.set(Csr::kTid, i);
  run();
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(context(i).reg(2), i + 1);
  }
  EXPECT_EQ(stats.instructions.value, 12u);
}

TEST_F(CoreletFixture, SingleIssueOneInstructionPerCycle) {
  make("addi r1, r1, 1\n addi r1, r1, 1\n halt\n");
  const u64 cycles = run();
  // 4 contexts x 3 instructions, one instruction per cycle.
  EXPECT_EQ(cycles, 12u);
  EXPECT_EQ(stats.busy_cycles.value, 12u);
  EXPECT_EQ(stats.idle_cycles.value, 0u);
}

TEST_F(CoreletFixture, MultithreadingHidesMemoryLatency) {
  // Each context: load (port latency 10 cycles) then some ALU work.
  port.latency = 10 * period;
  make(R"(
    csrr r1, INPUT_BASE
    lw   r2, 0(r1)
    addi r3, r2, 1
    halt
  )");
  for (u32 i = 0; i < 4; ++i) {
    context(i).csr.set(Csr::kInputBase, i * 4);
  }
  dram.write_u32(0, 5);
  const u64 cycles = run();
  // Serial execution would need 4 * (2 + 10 + 2) cycles; overlapping the
  // four loads must be much cheaper.
  EXPECT_LT(cycles, 30u);
  EXPECT_EQ(port.loads, 4);
  EXPECT_EQ(context(0).reg(3), 6u);
}

TEST_F(CoreletFixture, PendingLoadBlocksContextUntilWakeup) {
  port.pend = true;
  make("lw r2, 0(r0)\n addi r3, r2, 1\n halt\n");
  cfg.contexts = 1;
  make("lw r2, 0(r0)\n addi r3, r2, 1\n halt\n");
  dram.write_u32(0, 41);
  array->tick(now, period);
  EXPECT_EQ(context(0).state, Context::State::kWaitMem);
  // No progress while waiting.
  for (int i = 0; i < 5; ++i) {
    now += period;
    array->tick(now, period);
  }
  EXPECT_EQ(stats.instructions.value, 1u);
  EXPECT_EQ(stats.idle_cycles.value, 5u);
  port.complete_all(now + period);
  run();
  EXPECT_EQ(context(0).reg(3), 42u);
}

TEST_F(CoreletFixture, RetryStallsDoNotExecute) {
  cfg.contexts = 1;
  port.retries_left = 3;
  make("lw r2, 0(r0)\n halt\n");
  run();
  EXPECT_EQ(stats.retry_stalls.value, 3u);
  EXPECT_EQ(port.loads, 4);  // 3 rejected + 1 accepted
  EXPECT_EQ(stats.global_loads.value, 1u);
}

TEST_F(CoreletFixture, LocalLatencyAppliedToContext) {
  cfg.contexts = 1;
  cfg.local_latency = 3;
  make("sw.l r1, 0(r0)\n halt\n");
  const u64 cycles = run();
  EXPECT_EQ(cycles, 1u + 3u);  // store occupies ctx for local_latency cycles
}

TEST_F(CoreletFixture, TakenBranchPaysPenalty) {
  cfg.contexts = 1;
  cfg.branch_penalty = 2;
  make(R"(
    li r1, 1
    beq r0, r0, skip   ; always taken
skip:
    halt
  )");
  const u64 cycles = run();
  // li(1) + branch(1) + 2 penalty cycles + halt(1)
  EXPECT_EQ(cycles, 5u);
  EXPECT_EQ(stats.branches_taken.value, 1u);
}

TEST_F(CoreletFixture, NotTakenBranchSingleCycle) {
  cfg.contexts = 1;
  cfg.branch_penalty = 2;
  make(R"(
    li r1, 1
    beq r1, r0, skip   ; never taken
    nop
skip:
    halt
  )");
  const u64 cycles = run();
  EXPECT_EQ(cycles, 4u);
  EXPECT_EQ(stats.branches.value, 1u);
  EXPECT_EQ(stats.branches_taken.value, 0u);
}

TEST_F(CoreletFixture, RoundRobinIsFairAcrossContexts) {
  make(R"(
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
  )");
  for (u32 i = 0; i < 4; ++i) context(i).set_reg(2, 100);
  run();
  // All contexts completed the same loop: instret identical.
  const u64 expect = context(0).instret;
  for (u32 i = 1; i < 4; ++i) {
    EXPECT_EQ(context(i).instret, expect);
  }
}

TEST_F(CoreletFixture, GlobalStoreGoesThroughPort) {
  cfg.contexts = 1;
  make("li r1, 256\n li r2, 7\n sw r2, 0(r1)\n halt\n");
  run();
  EXPECT_EQ(stats.global_stores.value, 1u);
  EXPECT_EQ(dram.read_u32(256), 7u);
}

TEST(CoreletPort, FixedLatencyLocalAccessesSkipThePort) {
  // The same live-state traffic on a port that says its local latency is
  // fixed (Millipede, the GPGPU) and on one that times each access (SSMC,
  // the multicore): the corelet calls local_access only on the latter, and
  // every counter and the cycle count agree.
  const isa::Program program = isa::must_assemble("local", R"(
    csrr r1, CTX
    slli r1, r1, 2
    li   r2, 5
    sw.l r2, 0(r1)
    lw.l r3, 0(r1)
    amoadd.l r4, r2, 0(r1)
    famoadd.l r4, r2, 16(r1)
    halt
  )");
  CoreConfig cfg;
  cfg.cores = 1;
  cfg.contexts = 2;
  cfg.local_latency = 3;
  struct Outcome {
    int local_accesses;
    u64 cycles, instructions, local_ops, busy, idle;
    u32 word0, word1;
  };
  const auto run = [&](bool fixed) {
    FakePort port(fixed);
    mem::LocalStore local(64);
    mem::DramImage dram(64);
    ExecStats stats;
    DecodedBlockCache dcache(program);
    CoreletArray array(cfg, &dcache, std::span(&local, 1), &dram, &port,
                       &stats);
    for (u32 x = 0; x < cfg.contexts; ++x) {
      array.context(0, x).csr.set(Csr::kCtx, x);
    }
    u64 cycles = 0;
    for (Picos now = 0; !array.halted(); now += 1000) {
      array.tick(now, 1000);
      ++cycles;
    }
    return Outcome{port.local_accesses,   cycles,
                   stats.instructions.value, stats.local_ops.value,
                   stats.busy_cycles.value,  stats.idle_cycles.value,
                   local.load(0),          local.load(4)};
  };
  const Outcome fixed = run(true);
  const Outcome timed = run(false);
  EXPECT_EQ(fixed.local_accesses, 0);
  EXPECT_EQ(timed.local_accesses, 8) << "one call per local op";
  EXPECT_EQ(fixed.local_ops, 8u);
  EXPECT_EQ(fixed.cycles, timed.cycles);
  EXPECT_EQ(fixed.instructions, timed.instructions);
  EXPECT_EQ(fixed.local_ops, timed.local_ops);
  EXPECT_EQ(fixed.busy, timed.busy);
  EXPECT_EQ(fixed.idle, timed.idle);
  EXPECT_EQ(fixed.word0, 10u);
  EXPECT_EQ(fixed.word0, timed.word0);
  EXPECT_EQ(fixed.word1, timed.word1);
}

TEST(FloatBits, HelperSanity) {
  EXPECT_EQ(fbits(3.75f), 0x40700000u);
}

}  // namespace
}  // namespace mlp::core
