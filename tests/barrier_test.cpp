// Tests for the processor-wide software barrier (`bar`) used by the
// Section IV-C record-granularity-barrier ablation: the Barrier component,
// corelet synchronization semantics, deadlock-freedom under uneven halts,
// and end-to-end correctness of barrier-compiled kernels.

#include <gtest/gtest.h>

#include "arch/system.hpp"
#include "core/barrier.hpp"
#include "core/corelet.hpp"
#include "core/decode_cache.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "sim/runner.hpp"
#include "wake_probe.hpp"

namespace mlp::core {
namespace {

TEST(Barrier, LastArrivalReleasesAll) {
  Barrier barrier(3);
  test::WakeProbe threads;
  EXPECT_EQ(barrier.arrive(0, 10, threads.handle(0)).status,
            PortStatus::kPending);
  EXPECT_EQ(barrier.arrive(0, 10, threads.handle(1)).status,
            PortStatus::kPending);
  EXPECT_TRUE(threads.woken.empty());
  const PortResult last = barrier.arrive(100, 10, threads.handle(2));
  EXPECT_EQ(last.status, PortStatus::kDone);
  EXPECT_EQ(last.ready_at, 110u);
  const std::vector<std::pair<u32, Picos>> released = {{0, 110}, {1, 110}};
  EXPECT_EQ(threads.woken, released);
  EXPECT_EQ(barrier.episodes(), 1u);
}

TEST(Barrier, ReusableAcrossEpisodes) {
  Barrier barrier(2);
  test::WakeProbe threads;
  for (int episode = 0; episode < 5; ++episode) {
    barrier.arrive(0, 1, threads);
    barrier.arrive(0, 1, threads);
  }
  EXPECT_EQ(barrier.episodes(), 5u);
  EXPECT_EQ(threads.woken.size(), 5u);
}

TEST(Barrier, HaltedThreadDeregistersAndReleases) {
  Barrier barrier(3);
  test::WakeProbe threads;
  barrier.arrive(0, 1, threads);
  barrier.arrive(0, 1, threads);
  // The third thread halts instead of arriving: barrier must release.
  barrier.deregister(0, 1);
  EXPECT_EQ(threads.woken.size(), 2u);
  EXPECT_EQ(barrier.episodes(), 1u);
}

TEST(BarrierPort, SynchronizesCoreletContexts) {
  // Context 0 does extra work before the barrier; all contexts must leave
  // the barrier together.
  isa::Program program = isa::must_assemble("bar_test", R"(
    csrr r1, CTX
    bne  r1, r0, at_bar
    li   r2, 0
    li   r3, 200
spin:
    addi r2, r2, 1
    blt  r2, r3, spin
at_bar:
    bar
    halt
  )");
  CoreConfig cfg;
  cfg.contexts = 4;
  mem::LocalStore local(1024);
  mem::DramImage dram(1024);
  struct Nop : GlobalPort {
    PortResult load(u32, u32, Addr, Picos now, sim::Wake) override {
      return {PortStatus::kDone, now};
    }
  } nop;
  BarrierPort port(&nop, cfg.contexts);
  ExecStats stats;
  DecodedBlockCache dcache(program);
  Corelet corelet(0, cfg, &dcache, &local, &dram, &port, &stats);
  for (u32 x = 0; x < 4; ++x) {
    corelet.context(x).csr.set(isa::Csr::kCtx, x);
  }
  Picos now = 0;
  u64 guard = 0;
  bool waiters_seen = false;
  while (!corelet.halted()) {
    ASSERT_LT(++guard, 100000u) << "barrier deadlock";
    corelet.tick(now, 1000);
    waiters_seen |= port.state().waiting() > 0;
    now += 1000;
  }
  EXPECT_TRUE(waiters_seen) << "fast contexts must have waited";
  EXPECT_EQ(port.state().episodes(), 1u);
}

TEST(BarrierPort, UnevenHaltsDoNotDeadlock) {
  // Context 0 halts immediately; the rest synchronize twice.
  isa::Program program = isa::must_assemble("bar_halt", R"(
    csrr r1, CTX
    beq  r1, r0, out
    bar
    bar
out:
    halt
  )");
  CoreConfig cfg;
  cfg.contexts = 4;
  mem::LocalStore local(64);
  mem::DramImage dram(64);
  struct Nop : GlobalPort {
    PortResult load(u32, u32, Addr, Picos now, sim::Wake) override {
      return {PortStatus::kDone, now};
    }
  } nop;
  BarrierPort port(&nop, cfg.contexts);
  ExecStats stats;
  DecodedBlockCache dcache(program);
  Corelet corelet(0, cfg, &dcache, &local, &dram, &port, &stats);
  for (u32 x = 0; x < 4; ++x) corelet.context(x).csr.set(isa::Csr::kCtx, x);
  Picos now = 0;
  u64 guard = 0;
  while (!corelet.halted()) {
    ASSERT_LT(++guard, 100000u) << "deadlock after context halt";
    corelet.tick(now, 1000);
    now += 1000;
  }
  EXPECT_EQ(port.state().episodes(), 2u);
}

TEST(BarrierIsa, AssemblesAndClassifies) {
  isa::Program p = isa::must_assemble("b", "bar\nhalt\n");
  EXPECT_EQ(p.at(0).op, isa::Opcode::kBar);
  EXPECT_EQ(classify(p.at(0)), StepKind::kBarrier);
  EXPECT_EQ(isa::decode(isa::encode(p.at(0))), p.at(0));
}

TEST(BarrierWorkload, KernelsWithRecordBarriersStayCorrect) {
  workloads::WorkloadParams params;
  params.num_records = 2000;  // tail group exercises guarded barriers
  params.record_barrier = true;
  for (const char* name : {"count", "nbayes"}) {
    const workloads::Workload wl = workloads::make_bmla(name, params);
    // The binary must actually contain barriers.
    bool has_bar = false;
    for (const auto& in : wl.program.instrs()) {
      has_bar |= in.op == isa::Opcode::kBar;
    }
    EXPECT_TRUE(has_bar) << name;
    const arch::RunResult r = arch::run_arch(
        arch::ArchKind::kMillipedeNoFlowControl,
        MachineConfig::paper_defaults(), wl);
    EXPECT_EQ(r.verification, "") << name;
  }
}

TEST(BarrierWorkload, RecordBarriersOnTheSmAreAConfigError) {
  // The SM does not model `bar`: every SIMT kind rejects a record-barrier
  // job as a typed per-run config error instead of aborting the process.
  for (const arch::ArchKind kind :
       {arch::ArchKind::kGpgpu, arch::ArchKind::kVws,
        arch::ArchKind::kVwsRow}) {
    sim::MatrixJob job;
    job.kind = kind;
    job.bench = "count";
    job.options.rows = 24;
    job.options.record_barrier = true;
    const sim::MatrixResult r = sim::run_job(job);
    const char* name = arch::arch_name(kind);
    EXPECT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.error.rfind("config: record barriers", 0), 0u)
        << name << ": " << r.error;
  }
}

TEST(BarrierWorkload, BarriersDoNotPreventPrematureEviction) {
  // The paper's Section VI-A claim: record-granularity software barriers are
  // too coarse to protect the prefetch buffer; only hardware flow control
  // eliminates premature evictions. (With full-row records per barrier the
  // evictions may or may not occur at small scale, but flow control must
  // strictly dominate the barrier variant's runtime.)
  workloads::WorkloadParams params;
  params.num_records = 16384;
  params.record_barrier = true;
  const workloads::Workload barrier_wl =
      workloads::make_bmla("count", params);
  params.record_barrier = false;
  const workloads::Workload plain_wl = workloads::make_bmla("count", params);

  const MachineConfig cfg = MachineConfig::paper_defaults();
  const arch::RunResult with_barriers = arch::run_arch(
      arch::ArchKind::kMillipedeNoFlowControl, cfg, barrier_wl);
  const arch::RunResult flow_control =
      arch::run_arch(arch::ArchKind::kMillipedeNoRateMatch, cfg, plain_wl);
  EXPECT_EQ(with_barriers.verification, "");
  EXPECT_LE(flow_control.runtime_ps, with_barriers.runtime_ps)
      << "hardware flow control must dominate software barriers";
}

}  // namespace
}  // namespace mlp::core
