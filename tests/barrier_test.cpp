// Tests for the processor-wide software barrier (`bar`) used by the
// Section IV-C record-granularity-barrier ablation: the Barrier component,
// corelet synchronization semantics, deadlock-freedom under uneven halts,
// a release that crosses cores inside one corelet array, and end-to-end
// correctness of barrier-compiled kernels.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "arch/system.hpp"
#include "core/barrier.hpp"
#include "core/corelet.hpp"
#include "core/decode_cache.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "sim/kernel.hpp"
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

/// Stand-in input port: every load completes at once.
struct NopPort : GlobalPort {
  PortResult load(u32, u32, Addr, Picos now, sim::Wake) override {
    return {PortStatus::kDone, now};
  }
};

TEST(CoreletBarrier, SynchronizesCoreletContexts) {
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
  cfg.cores = 1;
  cfg.contexts = 4;
  mem::LocalStore local(1024);
  mem::DramImage dram(1024);
  NopPort port;
  ExecStats stats;
  DecodedBlockCache dcache(program);
  CoreletArray array(cfg, &dcache, std::span(&local, 1), &dram, &port,
                     &stats);
  for (u32 x = 0; x < 4; ++x) {
    array.core(0).context(x).csr.set(isa::Csr::kCtx, x);
  }
  ASSERT_NE(array.barrier(), nullptr);
  Picos now = 0;
  u64 guard = 0;
  bool waiters_seen = false;
  while (!array.halted()) {
    ASSERT_LT(++guard, 100000u) << "barrier deadlock";
    array.tick(now, 1000);
    waiters_seen |= array.barrier()->waiting() > 0;
    now += 1000;
  }
  EXPECT_TRUE(waiters_seen) << "fast contexts must have waited";
  EXPECT_EQ(array.barrier()->episodes(), 1u);
}

TEST(CoreletBarrier, UnevenHaltsDoNotDeadlock) {
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
  cfg.cores = 1;
  cfg.contexts = 4;
  mem::LocalStore local(64);
  mem::DramImage dram(64);
  NopPort port;
  ExecStats stats;
  DecodedBlockCache dcache(program);
  CoreletArray array(cfg, &dcache, std::span(&local, 1), &dram, &port,
                     &stats);
  for (u32 x = 0; x < 4; ++x) {
    array.core(0).context(x).csr.set(isa::Csr::kCtx, x);
  }
  Picos now = 0;
  u64 guard = 0;
  while (!array.halted()) {
    ASSERT_LT(++guard, 100000u) << "deadlock after context halt";
    array.tick(now, 1000);
    now += 1000;
  }
  EXPECT_EQ(array.barrier()->episodes(), 2u);
}

/// Core 0's contexts wait at `bar` while core 1's spin and halt; the halt of
/// core 1's last thread releases core 0 in the edge that already passed it.
struct CrossCoreRelease {
  CrossCoreRelease()
      : program(isa::must_assemble("bar_cross", R"(
    csrr r1, CID
    bne  r1, r0, spinner
    bar
    csrr r2, CTX
    addi r2, r2, 1
    halt
spinner:
    li   r3, 0
    li   r4, 20
spin:
    addi r3, r3, 1
    blt  r3, r4, spin
    halt
  )")),
        dcache(program),
        locals(2, mem::LocalStore(64)),
        dram(64) {
    cfg.core.cores = 2;
    cfg.core.contexts = 2;
    array.emplace(cfg.core, &dcache, std::span(locals), &dram, &port, &stats);
    for (u32 c = 0; c < 2; ++c) {
      for (u32 x = 0; x < 2; ++x) {
        array->core(c).context(x).csr.set(isa::Csr::kCid, c);
        array->core(c).context(x).csr.set(isa::Csr::kCtx, x);
      }
    }
  }

  MachineConfig cfg = MachineConfig::paper_defaults();
  isa::Program program;
  DecodedBlockCache dcache;
  std::vector<mem::LocalStore> locals;
  mem::DramImage dram;
  NopPort port;
  ExecStats stats;
  std::optional<CoreletArray> array;
};

TEST(CoreletBarrier, ReleaseByALaterCoreWakesAnEarlierOne) {
  CrossCoreRelease m;
  const Picos period = m.cfg.core.period_ps();
  Barrier& barrier = *m.array->barrier();
  bool released = false;
  for (Picos now = 0; !m.array->halted(); now += period) {
    ASSERT_LT(now, 1000 * period) << "barrier deadlock";
    const u64 episodes = barrier.episodes();
    const Picos wake = m.array->tick(now, period);
    if (barrier.episodes() == episodes) continue;
    released = true;
    EXPECT_TRUE(m.array->core(1).halted());
    EXPECT_EQ(m.array->core(0).context(0).state, Context::State::kReady);
    EXPECT_LE(wake, now + period) << "the released core's wake was dropped";
  }
  EXPECT_TRUE(released);
  EXPECT_EQ(m.array->core(0).context(0).reg(2), 1u);
  EXPECT_EQ(m.array->core(0).context(1).reg(2), 2u);
}

TEST(CoreletBarrier, CrossCoreReleaseRunsAsPolled) {
  // One run per mode through the kernel: the scheduled array must process
  // the released core's edges exactly as polling does.
  const auto run = [](bool fast_forward) {
    CrossCoreRelease m;
    m.cfg.fast_forward = fast_forward;
    m.cfg.watchdog.stall_cycles = 10000;
    sim::SimulationKernel kernel(m.cfg, "test", nullptr);
    kernel.add_compute(&*m.array);
    kernel.set_progress([&m] { return m.stats.instructions.value; });
    const Picos end = kernel.run([&m] { return m.array->halted(); });
    return std::array<u64, 6>{end,
                              kernel.compute_cycles(),
                              m.stats.instructions.value,
                              m.stats.busy_cycles.value,
                              m.stats.idle_cycles.value,
                              m.array->barrier()->episodes()};
  };
  const std::array<u64, 6> polled = run(false);
  EXPECT_EQ(polled[5], 1u);
  EXPECT_EQ(run(true), polled);
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

TEST(BarrierWorkload, RecordBarriersOffTheMillipedeKindsAreAConfigError) {
  // Only the Millipede processor has a barrier: every other kind rejects a
  // record-barrier job as a typed per-run config error instead of running
  // `bar` as a no-op or aborting the process.
  for (const arch::ArchKind kind :
       {arch::ArchKind::kGpgpu, arch::ArchKind::kVws, arch::ArchKind::kVwsRow,
        arch::ArchKind::kSsmc, arch::ArchKind::kMulticore}) {
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
