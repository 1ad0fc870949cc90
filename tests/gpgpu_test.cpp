// SIMT stack semantics and SM timing behaviour (divergence serialization,
// shared-memory conflicts, coalescing, multithreaded completion).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/units.hpp"
#include "gpgpu/sm.hpp"
#include "isa/assembler.hpp"
#include "mem/channels.hpp"

/// Heap allocations made by this test binary, for the allocation-free issue
/// check below (every other test ignores it).
std::atomic<unsigned long> g_heap_allocations{0};

void* operator new(std::size_t bytes) {
  ++g_heap_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mlp::gpgpu {
namespace {

// --- SimtStack ---

TEST(SimtStack, StartsFullyActive) {
  SimtStack stack(4);
  EXPECT_EQ(stack.pc(), 0u);
  EXPECT_EQ(stack.active_mask(), 0xfu);
  EXPECT_FALSE(stack.all_halted());
}

TEST(SimtStack, UniformBranchNoDivergence) {
  SimtStack stack(4);
  EXPECT_FALSE(stack.branch(/*taken=*/0xf, /*target=*/10, /*fall=*/1,
                            /*reconv=*/20));
  EXPECT_EQ(stack.pc(), 10u);
  EXPECT_EQ(stack.active_mask(), 0xfu);
  EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, DivergentBranchSplitsAndReconverges) {
  SimtStack stack(4);
  // Lanes 0,1 take to pc 10; lanes 2,3 fall through to pc 1; join at pc 20.
  EXPECT_TRUE(stack.branch(0x3, 10, 1, 20));
  EXPECT_EQ(stack.pc(), 10u);            // taken arm first
  EXPECT_EQ(stack.active_mask(), 0x3u);
  // Taken arm runs to the join.
  stack.advance(11);
  stack.advance(20);                      // reaches rpc: pops
  EXPECT_EQ(stack.pc(), 1u);             // fall-through arm
  EXPECT_EQ(stack.active_mask(), 0xcu);
  stack.advance(20);                      // fall arm reaches rpc
  EXPECT_EQ(stack.pc(), 20u);            // reconvergence placeholder
  EXPECT_EQ(stack.active_mask(), 0xfu);  // all lanes re-merged
  EXPECT_EQ(stack.depth(), 1u);
}

TEST(SimtStack, NestedDivergence) {
  SimtStack stack(4);
  stack.branch(0x3, 10, 1, 20);  // outer: {0,1} at 10, {2,3} at 1
  // Inner divergence within the taken arm: lane 0 to 15, lane 1 falls to 11,
  // join 18.
  EXPECT_TRUE(stack.branch(0x1, 15, 11, 18));
  EXPECT_EQ(stack.pc(), 15u);
  EXPECT_EQ(stack.active_mask(), 0x1u);
  stack.advance(18);  // inner taken joins
  EXPECT_EQ(stack.pc(), 11u);
  EXPECT_EQ(stack.active_mask(), 0x2u);
  stack.advance(18);  // inner fall joins -> inner placeholder at 18
  EXPECT_EQ(stack.pc(), 18u);
  EXPECT_EQ(stack.active_mask(), 0x3u);
  stack.advance(20);  // outer taken arm reaches outer join
  EXPECT_EQ(stack.pc(), 1u);
  EXPECT_EQ(stack.active_mask(), 0xcu);
}

TEST(SimtStack, HaltedLanesLeaveStack) {
  SimtStack stack(4);
  stack.branch(0x3, 10, 1, SimtStack::kNoReconv);
  EXPECT_EQ(stack.active_mask(), 0x3u);
  stack.halt_lanes(0x3);  // taken lanes halt
  EXPECT_EQ(stack.pc(), 1u);
  EXPECT_EQ(stack.active_mask(), 0xcu);
  stack.halt_lanes(0xc);
  EXPECT_TRUE(stack.all_halted());
}

TEST(SimtStack, BranchArmStartingAtJoinPopsImmediately) {
  SimtStack stack(4);
  // Empty then-arm: target == reconv.
  stack.branch(0x5, /*target=*/7, /*fall=*/1, /*reconv=*/7);
  EXPECT_EQ(stack.pc(), 1u);  // fall arm executes first
  EXPECT_EQ(stack.active_mask(), 0xau);
}

// --- SM integration ---

struct SmFixture : ::testing::Test {
  void make(const std::string& src, u32 warp_width = 4,
            bool row_oriented = false) {
    // Reset state so a test can build the SM more than once.
    sm.reset();
    pb.reset();
    lane_state.clear();
    stats = StatSet();
    sm_stats = SmStats();
    cfg = MachineConfig::paper_defaults();
    cfg.core.cores = 8;       // 8 lanes for testability
    cfg.dram.row_bytes = 512;  // 64 B slabs for 8 lanes
    cfg.validate();

    program = isa::must_assemble("sm", src);
    dram = std::make_unique<mem::DramImage>(1 << 20);
    ctrl = std::make_unique<mem::ChannelDemux>(cfg.dram, "dram", &stats);
    l1d = std::make_unique<mem::Cache>(
        "l1d", cfg.gpgpu.l1d_bytes, cfg.gpgpu.line_bytes, cfg.gpgpu.l1d_assoc,
        cfg.gpgpu.mshrs,
        static_cast<Picos>(cfg.gpgpu.l1_hit_latency) * cfg.core.period_ps(),
        ctrl.get(), &stats);
    prefetcher = std::make_unique<mem::SequentialPrefetcher>(
        cfg.gpgpu.line_bytes, cfg.gpgpu.prefetch_degree,
        cfg.gpgpu.prefetch_distance);
    banking = std::make_unique<mem::SharedMemBanking>(
        cfg.gpgpu.shared_banks, mem::BankMapping::kLanePrivate);
    for (u32 i = 0; i < cfg.core.cores; ++i) {
      lane_state.emplace_back(cfg.core.local_mem_bytes);
    }
    if (row_oriented) {
      millipede::RowPlan plan;
      plan.first_row = 0;
      plan.num_rows = 16;
      plan.expected_mask = [](u64, u32) -> u64 { return 0xffff; };
      pb = std::make_unique<millipede::PrefetchBuffer>(
          cfg, plan, ctrl.get(), nullptr, /*flow_control=*/true, &stats,
          "pb");
    }
    sm_stats.register_with(&stats, "sm");
    dcache = std::make_unique<core::DecodedBlockCache>(program);
    StreamingMultiprocessor::Deps deps;
    deps.dcache = dcache.get();
    deps.lane_state = &lane_state;
    deps.dram = dram.get();
    deps.l1d = row_oriented ? nullptr : l1d.get();
    deps.prefetcher = row_oriented ? nullptr : prefetcher.get();
    deps.pb = row_oriented ? pb.get() : nullptr;
    deps.banking = banking.get();
    deps.stats = &sm_stats;
    sm = std::make_unique<StreamingMultiprocessor>(cfg, warp_width, deps);
    if (pb) pb->prime(0);
  }

  /// Two-domain run loop until the SM halts; returns compute cycles.
  u64 run(u64 limit = 1000000) {
    ClockDomain compute(cfg.core.period_ps());
    ClockDomain channel(cfg.dram.period_ps());
    u64 cycles = 0;
    while (!sm->halted()) {
      MLP_CHECK(cycles < limit, "SM did not halt");
      if (compute.next_edge_ps() <= channel.next_edge_ps()) {
        const Picos now = compute.next_edge_ps();
        sm->tick(now, compute.period_ps());
        compute.advance();
        ++cycles;
      } else {
        const Picos now = channel.next_edge_ps();
        if (pb) pb->pump(now);
        l1d->pump(now);
        ctrl->tick(now);
        channel.advance();
      }
    }
    return cycles;
  }

  MachineConfig cfg;
  StatSet stats;
  isa::Program program;
  std::unique_ptr<core::DecodedBlockCache> dcache;
  std::unique_ptr<mem::DramImage> dram;
  std::unique_ptr<mem::ChannelDemux> ctrl;
  std::unique_ptr<mem::Cache> l1d;
  std::unique_ptr<mem::SequentialPrefetcher> prefetcher;
  std::unique_ptr<mem::SharedMemBanking> banking;
  std::unique_ptr<millipede::PrefetchBuffer> pb;
  std::vector<mem::LocalStore> lane_state;
  SmStats sm_stats;
  std::unique_ptr<StreamingMultiprocessor> sm;
};

TEST_F(SmFixture, AllThreadsExecuteToCompletion) {
  make(R"(
    csrr r1, TID
    addi r2, r1, 100
    halt
  )");
  // Assign TIDs across (group, slot, lane).
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) {
      for (u32 l = 0; l < sm->warp_width(); ++l) {
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
      }
    }
  }
  run();
  EXPECT_EQ(sm->context(0, 0, 0).reg(2), 100u);
  EXPECT_EQ(sm->context(1, 3, 3).reg(2),
            100u + 1 * (4 * 4) + 3 * 4 + 3);
  // 32 threads x 3 instructions.
  EXPECT_EQ(sm_stats.thread_instructions.value, 96u);
}

TEST_F(SmFixture, UniformBranchesCostNoDivergence) {
  make(R"(
    li r1, 0
    li r2, 50
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
  )");
  run();
  EXPECT_EQ(sm_stats.divergent_branches.value, 0u);
}

TEST_F(SmFixture, DataDependentBranchesDiverge) {
  // Odd TIDs take the branch: divergence in every warp.
  make(R"(
    csrr r1, TID
    andi r2, r1, 1
    beq  r2, r0, even
    addi r3, r0, 111
    j    join
even:
    addi r3, r0, 222
join:
    halt
  )");
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) {
      for (u32 l = 0; l < sm->warp_width(); ++l) {
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
      }
    }
  }
  run();
  EXPECT_EQ(sm_stats.divergent_branches.value, sm_stats.branches.value);
  EXPECT_GT(sm_stats.divergent_branches.value, 0u);
  // Check both arms executed correctly.
  EXPECT_EQ(sm->context(0, 0, 0).reg(3), 222u);  // tid 0 even
  EXPECT_EQ(sm->context(0, 0, 1).reg(3), 111u);  // tid 1 odd
}

TEST_F(SmFixture, DivergenceCostsMoreWarpInstructions) {
  const std::string divergent = R"(
    csrr r1, TID
    andi r2, r1, 1
    beq  r2, r0, even
    addi r3, r3, 1
    addi r3, r3, 1
    addi r3, r3, 1
    j    join
even:
    addi r3, r3, 2
    addi r3, r3, 2
    addi r3, r3, 2
join:
    halt
  )";
  make(divergent);
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
  run();
  const u64 warp_insts_divergent = sm_stats.warp_instructions.value;

  // Same program with a uniform branch (all even TIDs).
  make(divergent);
  tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kTid, (tid++) * 2);
  run();
  EXPECT_GT(warp_insts_divergent, sm_stats.warp_instructions.value)
      << "divergent warps must issue both arms serially";
}

TEST_F(SmFixture, SharedMemoryLanePrivateConflictFree) {
  make(R"(
    csrr r1, TID
    andi r2, r1, 7
    slli r2, r2, 2
    li   r3, 5
    sw.l r3, 0(r2)     ; data-dependent local address
    lw.l r4, 0(r2)
    halt
  )");
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
  run();
  EXPECT_GT(sm_stats.shared_accesses.value, 0u);
  EXPECT_EQ(sm_stats.shared_conflict_cycles.value, 0u)
      << "lane-striped live state never conflicts";
  EXPECT_EQ(sm->context(0, 0, 0).reg(4), 5u);
}

TEST_F(SmFixture, CoalescedLoadsTouchFewLines) {
  // Warp lanes read consecutive words: one or two 128 B lines per warp.
  make(R"(
    csrr r1, TID
    slli r1, r1, 2
    lw   r2, 0(r1)
    halt
  )",
       /*warp_width=*/8);
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
  for (u32 i = 0; i < 64; ++i) dram->write_u32(i * 4, i + 1);
  run();
  // 4 warps (8 lanes each), consecutive words: 8 lanes * 4 B = 32 B per warp
  // -> exactly 1 line per warp load.
  EXPECT_EQ(sm_stats.global_load_warps.value, 4u);
  EXPECT_EQ(sm_stats.global_lines.value, 4u);
  EXPECT_EQ(sm->context(0, 0, 3).reg(2), 4u);
}

TEST_F(SmFixture, StridedLoadsTouchManyLines) {
  // Lanes read 128 B apart: one line per lane.
  make(R"(
    csrr r1, TID
    slli r1, r1, 7
    lw   r2, 0(r1)
    halt
  )",
       /*warp_width=*/8);
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
  run();
  EXPECT_EQ(sm_stats.global_lines.value, 8u * 4u)
      << "uncoalesced: one line per lane";
}

TEST_F(SmFixture, RowOrientedInputPathUsesPrefetchBuffer) {
  // Lane l reads word 0 of its own 64 B slab of row 0.
  make(R"(
    csrr r1, CID
    slli r1, r1, 6
    lw   r2, 0(r1)
    halt
  )",
       /*warp_width=*/8, /*row_oriented=*/true);
  for (u32 g = 0; g < sm->groups(); ++g)
    for (u32 s = 0; s < cfg.core.contexts; ++s)
      for (u32 l = 0; l < sm->warp_width(); ++l)
        sm->context(g, s, l).csr.set(isa::Csr::kCid, g * 8 + l);
  for (u32 i = 0; i < 128; ++i) dram->write_u32(i * 4, i);
  run();
  EXPECT_GT(stats.get("pb.hits") + stats.get("pb.fill_waits"), 0u);
  EXPECT_EQ(sm->context(0, 0, 1).reg(2), 16u);  // word 0 of slab 1
}

TEST_F(SmFixture, VwsNarrowWarpsLoseLessToDivergence) {
  const std::string branchy = R"(
    csrr r1, TID
    andi r2, r1, 3
    beq  r2, r0, a
    addi r3, r3, 1
    addi r3, r3, 1
    j    j1
a:
    addi r3, r3, 2
j1:
    andi r2, r1, 1
    beq  r2, r0, b
    addi r3, r3, 3
    j    j2
b:
    addi r3, r3, 4
    addi r3, r3, 4
j2:
    halt
  )";
  auto measure = [&](u32 width) {
    make(branchy, width);
    u32 tid = 0;
    for (u32 g = 0; g < sm->groups(); ++g)
      for (u32 s = 0; s < cfg.core.contexts; ++s)
        for (u32 l = 0; l < sm->warp_width(); ++l)
          sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
    return run();
  };
  const u64 wide = measure(8);
  const u64 narrow = measure(2);
  EXPECT_LT(narrow, wide) << "narrower warps suffer less serialization";
}

TEST_F(SmFixture, IssuingWarpInstructionsDoesNotAllocate) {
  // Shared-memory accesses (the conflict model), divergent branches and
  // ALU work: once the first loop trip has sized the SIMT stacks, issuing
  // allocates nothing.
  make(R"(
    csrr r1, TID
    andi r5, r1, 3
    slli r5, r5, 2
    li   r8, 1
    li   r2, 0
    li   r3, 40
loop:
    lw.l r4, 0(r5)
    addi r4, r4, 1
    sw.l r4, 0(r5)
    amoadd.l r7, r8, 16(r5)
    andi r6, r1, 1
    beq  r6, r0, even
    addi r9, r9, 1
    j    join
even:
    addi r9, r9, 2
join:
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
  )");
  u32 tid = 0;
  for (u32 g = 0; g < sm->groups(); ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) {
      for (u32 l = 0; l < sm->warp_width(); ++l) {
        sm->context(g, s, l).csr.set(isa::Csr::kTid, tid++);
      }
    }
  }
  const Picos period = cfg.core.period_ps();
  Picos now = 0;
  for (int edge = 0; edge < 200; ++edge, now += period) sm->tick(now, period);
  const u64 issued = sm_stats.warp_instructions.value;
  const unsigned long before = g_heap_allocations.load();
  for (; !sm->halted(); now += period) sm->tick(now, period);
  EXPECT_EQ(g_heap_allocations.load(), before);
  EXPECT_GT(sm_stats.warp_instructions.value, issued + 1000);
  EXPECT_GT(sm_stats.shared_accesses.value, 0u);
  EXPECT_GT(sm_stats.divergent_branches.value, 0u);
}

}  // namespace
}  // namespace mlp::gpgpu
