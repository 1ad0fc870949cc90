// Tests for Millipede's novel mechanisms: row-granularity prefetch, PFT
// trigger chaining, DF-counter flow control, premature eviction without flow
// control, partial tail rows, and DFS rate matching.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <optional>

#include "millipede/prefetch_buffer.hpp"
#include "wake_probe.hpp"

namespace mlp::millipede {
namespace {

/// Small geometry so tests can reason about exact rows and slabs:
/// 256 B rows, 4 corelets => 64 B slabs of 16 words each, 4-entry queue.
MachineConfig small_cfg() {
  MachineConfig cfg;
  cfg.dram.row_bytes = 256;
  cfg.dram.bus_efficiency = 1.0;
  cfg.core.cores = 4;
  cfg.millipede.pf_entries = 4;
  cfg.millipede.prime_rows = 3;  // tests reason about explicit prime depth
  cfg.validate();
  return cfg;
}

constexpr u64 kFullSlab = 0xffff;  // all 16 slab words expected

struct PbFixture : ::testing::Test {
  void make(u64 num_rows, bool flow_control = true,
            std::function<u64(u64, u32)> mask = nullptr) {
    cfg = small_cfg();
    ctrl = std::make_unique<mem::ChannelDemux>(cfg.dram, "dram", &stats);
    RowPlan plan;
    plan.first_row = 0;
    plan.num_rows = num_rows;
    plan.expected_mask = mask ? std::move(mask)
                              : [](u64, u32) -> u64 { return kFullSlab; };
    pb = std::make_unique<PrefetchBuffer>(cfg, plan, ctrl.get(), nullptr,
                                          flow_control, &stats, "pb");
  }

  /// Advance DRAM time until the controller drains.
  void drain() {
    for (int i = 0; i < 100000 && !(ctrl->idle() && pb->quiescent()); ++i) {
      pb->pump(now);
      ctrl->tick(now);
      now += cfg.dram.period_ps();
    }
    ASSERT_TRUE(ctrl->idle());
  }

  /// Advance DRAM time edge by edge until `probe` wakes; returns the edge
  /// whose controller tick retired the transfer. Every transfer here starts
  /// and lasts whole channel cycles, so that edge is its finish time.
  Picos tick_until_woken(const test::WakeProbe& probe) {
    for (int i = 0; i < 100000 && probe.woken.empty(); ++i) {
      pb->pump(now);
      ctrl->tick(now);
      now += cfg.dram.period_ps();
    }
    EXPECT_FALSE(probe.woken.empty());
    return now - cfg.dram.period_ps();
  }

  /// Demand-fetch one word; returns the result. `on_wake` runs when a
  /// pending demand's data arrives.
  core::PortResult demand(u32 corelet, u64 row, u32 word,
                          std::function<void(Picos)> on_wake = nullptr) {
    const Addr addr = row * cfg.dram.row_bytes + corelet * 64 + word * 4;
    return pb->load(corelet, addr, now,
                    waiters.emplace_back(std::move(on_wake)));
  }

  /// Consume an entire slab (all 16 words) for `corelet` on `row`.
  void consume_slab(u32 corelet, u64 row) {
    for (u32 w = 0; w < 16; ++w) {
      const auto result = demand(corelet, row, w);
      ASSERT_EQ(result.status, core::PortStatus::kDone)
          << "row " << row << " word " << w;
    }
  }

  MachineConfig cfg;
  StatSet stats;
  std::unique_ptr<mem::ChannelDemux> ctrl;
  std::unique_ptr<PrefetchBuffer> pb;
  std::deque<test::WakeProbe> waiters;  ///< one per demand, never moved
  Picos now = 0;
};

TEST_F(PbFixture, PrimeIssuesPrimeDepthRowPrefetches) {
  make(64);
  pb->prime(now);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 3u);  // prime_rows default
  EXPECT_EQ(pb->occupancy(), 3u);
  drain();
  EXPECT_EQ(stats.get("dram.bytes"), 3u * 256u);
}

TEST_F(PbFixture, DemandAfterFillHits) {
  make(64);
  pb->prime(now);
  drain();
  const auto result = demand(0, 0, 0);
  EXPECT_EQ(result.status, core::PortStatus::kDone);
  EXPECT_GT(result.ready_at, now);
  EXPECT_EQ(stats.get("pb.hits"), 1u);
}

TEST_F(PbFixture, DemandBeforeFillWaitsForData) {
  make(64);
  pb->prime(now);  // prefetches issued but data not yet arrived
  std::optional<Picos> woke;
  const auto result = demand(0, 0, 0, [&](Picos at) { woke = at; });
  EXPECT_EQ(result.status, core::PortStatus::kPending);
  EXPECT_EQ(stats.get("pb.fill_waits"), 1u);
  drain();
  ASSERT_TRUE(woke.has_value());
  EXPECT_GT(*woke, 0u);
}

TEST_F(PbFixture, FirstDemandTriggersNextRowOnce) {
  make(64);
  pb->prime(now);  // rows 0..2 in flight
  drain();
  // The first demand access to row 0 (PFT set) allocates row 3.
  demand(0, 0, 0);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 4u);
  EXPECT_EQ(pb->occupancy(), 4u);
  // Later accesses to row 0 must not re-trigger (PFT cleared).
  demand(1, 0, 0);
  demand(2, 0, 0);
  demand(0, 0, 1);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 4u)
      << "only the first access to an entry may trigger";
  // First access to row 1 wants row 4, but the queue is full and the head
  // is unsaturated: with flow control the trigger is deferred.
  demand(0, 1, 0);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 4u);
  // Consuming row 0 retires the head and releases the deferred trigger.
  for (u32 c = 0; c < 4; ++c) consume_slab(c, 0);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 5u);
}

TEST_F(PbFixture, FlowControlBlocksLeadingCorelet) {
  make(64);
  pb->prime(now);
  drain();
  // Corelet 0 races ahead: consumes its slab of rows 0..3 (draining between
  // rows so triggered prefetches arrive), then demands row 4 which cannot be
  // allocated (queue full, head unsaturated).
  for (u64 r = 0; r < 4; ++r) {
    consume_slab(0, r);
    drain();
  }
  std::optional<Picos> woke;
  const auto result = demand(0, 4, 0, [&](Picos at) { woke = at; });
  EXPECT_EQ(result.status, core::PortStatus::kPending);
  EXPECT_EQ(stats.get("pb.flow_waits"), 1u);
  EXPECT_EQ(stats.get("pb.premature_evictions"), 0u);
  drain();
  EXPECT_FALSE(woke.has_value()) << "still blocked: laggards not done";
  // Laggards consume row 0: head retires, row 4 allocated and fetched.
  for (u32 c = 1; c < 4; ++c) consume_slab(c, 0);
  drain();
  ASSERT_TRUE(woke.has_value()) << "flow-control wait must end after retire";
}

TEST_F(PbFixture, NoFlowControlEvictsPrematurelyAndDirectFetches) {
  make(64, /*flow_control=*/false);
  pb->prime(now);
  drain();
  // Corelet 0 races ahead through the whole window; ordinary triggers defer
  // just like flow control (evictions must be infrequent, Section IV-C)...
  for (u64 r = 0; r < 4; ++r) {
    consume_slab(0, r);
    drain();
  }
  EXPECT_EQ(stats.get("pb.premature_evictions"), 0u);
  // ...but when its demand WRAPS past the window, the unsaturated head is
  // prematurely re-allocated to satisfy it.
  std::optional<Picos> lead_woke;
  EXPECT_EQ(demand(0, 4, 0, [&](Picos at) { lead_woke = at; }).status,
            core::PortStatus::kPending);
  drain();
  EXPECT_GT(stats.get("pb.premature_evictions"), 0u);
  EXPECT_TRUE(lead_woke.has_value()) << "wrapped demand must be satisfied";
  // A lagging corelet now demands the evicted row 0: one direct DRAM fetch
  // for its slab, deduplicated for subsequent words.
  std::optional<Picos> woke;
  const auto result = demand(1, 0, 0, [&](Picos at) { woke = at; });
  const test::WakeProbe& first = waiters.back();
  EXPECT_EQ(result.status, core::PortStatus::kPending);
  EXPECT_EQ(stats.get("pb.direct_fetches"), 1u);
  demand(1, 0, 1, [](Picos) {});
  const test::WakeProbe& second = waiters.back();
  EXPECT_EQ(stats.get("pb.direct_fetches"), 1u) << "victim slab deduplicates";
  // Both slab waiters wake once, at the slab's fill time plus the buffer's
  // hit latency.
  const Picos hit_latency =
      static_cast<Picos>(cfg.millipede.pb_hit_latency) * cfg.core.period_ps();
  const Picos slab_filled = tick_until_woken(first);
  drain();
  EXPECT_TRUE(woke.has_value());
  const std::vector<std::pair<u32, Picos>> at_fill = {
      {0, slab_filled + hit_latency}};
  EXPECT_EQ(first.woken, at_fill);
  EXPECT_EQ(second.woken, at_fill);

  // An orphaned waiter: corelet 0 waits on row 5, which its demand
  // allocates (the window becomes rows 2..5, row 5 unfilled), then wraps to
  // row 9, which evicts rows 2..5 before row 5's data arrives. The waiter's
  // direct fetch carries its own wake: it wakes once, at the transfer's
  // finish time, and row 5's late fill is ignored.
  const u64 evictions = stats.get("pb.premature_evictions");
  EXPECT_EQ(demand(0, 5, 0).status, core::PortStatus::kPending);
  const test::WakeProbe& orphan = waiters.back();
  EXPECT_EQ(stats.get("pb.premature_evictions"), evictions + 1);
  EXPECT_EQ(demand(0, 9, 0).status, core::PortStatus::kPending);
  EXPECT_EQ(stats.get("pb.premature_evictions"), evictions + 5);
  EXPECT_EQ(stats.get("pb.direct_fetches"), 2u) << "one orphan fetch";
  const Picos fetched = tick_until_woken(orphan);
  drain();
  const std::vector<std::pair<u32, Picos>> at_fetch = {{0, fetched}};
  EXPECT_EQ(orphan.woken, at_fetch);
  EXPECT_EQ(waiters.back().woken.size(), 1u) << "row 9 fills its waiter";
}

TEST_F(PbFixture, FlowControlNeverEvictsPrematurely) {
  make(16);
  pb->prime(now);
  drain();
  // Interleave: every corelet consumes every row in order.
  for (u64 r = 0; r < 16; ++r) {
    for (u32 c = 0; c < 4; ++c) consume_slab(c, r);
    drain();
  }
  EXPECT_EQ(stats.get("pb.premature_evictions"), 0u);
  EXPECT_EQ(stats.get("pb.direct_fetches"), 0u);
  EXPECT_EQ(stats.get("pb.row_prefetches"), 16u);
  EXPECT_EQ(stats.get("dram.row_misses") + stats.get("dram.row_hits"), 16u)
      << "exactly one DRAM row access per row: full row locality";
}

TEST_F(PbFixture, PartialTailRowDoesNotDeadlock) {
  // Last row only expects corelet 0's first 4 words; others expect nothing.
  make(5, true, [](u64 row, u32 corelet) -> u64 {
    if (row < 4) return kFullSlab;
    return corelet == 0 ? 0xf : 0;
  });
  pb->prime(now);
  drain();
  for (u64 r = 0; r < 4; ++r) {
    for (u32 c = 0; c < 4; ++c) consume_slab(c, r);
    drain();
  }
  // Row 4: only corelet 0 touches 4 words; must complete and retire.
  for (u32 w = 0; w < 4; ++w) {
    EXPECT_EQ(demand(0, 4, w).status, core::PortStatus::kDone);
  }
  drain();
  EXPECT_EQ(pb->occupancy(), 0u) << "tail row retired despite partial use";
}

TEST_F(PbFixture, RepeatedWordAccessDoesNotDoubleCount) {
  make(8);
  pb->prime(now);
  drain();
  for (u32 i = 0; i < 3; ++i) demand(0, 0, 5);
  // Consume everything; retirement must still require the full masks.
  for (u32 c = 0; c < 4; ++c) consume_slab(c, 0);
  drain();
  EXPECT_EQ(stats.get("pb.premature_evictions"), 0u);
  EXPECT_EQ(pb->occupancy(), 3u);  // row 0 retired; rows 1..3 resident
}

TEST_F(PbFixture, ForeignSlabAccessAborts) {
  make(8);
  pb->prime(now);
  drain();
  // Corelet 2 reaching into corelet 0's slab violates the interconnect.
  EXPECT_DEATH(pb->load(2, /*addr=*/0, now, waiters.emplace_back()),
               "foreign slab");
}

TEST_F(PbFixture, SequentialRowStreamKeepsRowLocality) {
  make(32);
  pb->prime(now);
  drain();
  for (u64 r = 0; r < 32; ++r) {
    for (u32 c = 0; c < 4; ++c) consume_slab(c, r);
    drain();
  }
  // 32 row fetches, 4 banks: every fetch opens a fresh row exactly once.
  EXPECT_EQ(stats.get("dram.row_misses"), 32u);
  EXPECT_EQ(stats.get("dram.row_hits"), 0u);
  EXPECT_EQ(stats.get("dram.bytes"), 32u * 256u);
}

// --- RateMatcher ---

struct RateFixture : ::testing::Test {
  RateFixture() {
    cfg = MachineConfig::paper_defaults();
    cfg.millipede.rate_window = 8;
    clock = ClockDomain(cfg.core.period_ps());
    matcher = std::make_unique<RateMatcher>(cfg.millipede, cfg.core, &clock,
                                            &stats, "rate");
  }

  MachineConfig cfg;
  StatSet stats;
  ClockDomain clock;
  std::unique_ptr<RateMatcher> matcher;
};

TEST_F(RateFixture, MemoryBoundVotesLowerTheClock) {
  const double before = matcher->current_mhz();
  for (int i = 0; i < 8; ++i) matcher->vote_memory_bound();
  EXPECT_LT(matcher->current_mhz(), before);
  EXPECT_NEAR(matcher->current_mhz(), before * 0.95, 2.0);
  EXPECT_EQ(stats.get("rate.steps_down"), 1u);
}

TEST_F(RateFixture, ComputeBoundVotesCappedAtNominal) {
  for (int i = 0; i < 8; ++i) matcher->vote_compute_bound();
  EXPECT_NEAR(matcher->current_mhz(), 700.0, 1.0) << "cannot exceed nominal";
  EXPECT_EQ(stats.get("rate.steps_up"), 0u);
}

TEST_F(RateFixture, ConvergesToEquilibrium) {
  // 60% memory votes: clock walks down until ... votes flip (simulated by
  // flipping the majority once the clock is 20% lower).
  for (int round = 0; round < 200; ++round) {
    const bool memory_bound = matcher->current_mhz() > 560.0;
    for (int i = 0; i < 8; ++i) {
      if (memory_bound) {
        matcher->vote_memory_bound();
      } else {
        matcher->vote_compute_bound();
      }
    }
  }
  EXPECT_NEAR(matcher->current_mhz(), 560.0, 560.0 * 0.06)
      << "oscillates within one step of equilibrium";
}

TEST_F(RateFixture, ClockFlooredAtMinimum) {
  for (int round = 0; round < 2000; ++round) matcher->vote_memory_bound();
  EXPECT_GE(matcher->current_mhz(), cfg.millipede.min_clock_mhz * 0.99);
}

TEST_F(RateFixture, StepsDownOnlyOnNearUnanimousMemoryVotes) {
  // 5 memory + 3 compute: held (memory not near-unanimous, but the compute
  // votes push back up — already at nominal, so nothing changes).
  for (int i = 0; i < 5; ++i) matcher->vote_memory_bound();
  for (int i = 0; i < 3; ++i) matcher->vote_compute_bound();
  EXPECT_EQ(stats.get("rate.steps_down"), 0u);
  EXPECT_NEAR(matcher->current_mhz(), 700.0, 1.0);
  // Unanimous memory window: steps down.
  for (int i = 0; i < 8; ++i) matcher->vote_memory_bound();
  EXPECT_EQ(stats.get("rate.steps_down"), 1u);
  const double dipped = matcher->current_mhz();
  EXPECT_LT(dipped, 699.0);
  // A couple of early rows (compute-bound signals) step back up.
  for (int i = 0; i < 6; ++i) matcher->vote_memory_bound();
  for (int i = 0; i < 2; ++i) matcher->vote_compute_bound();
  EXPECT_GT(matcher->current_mhz(), dipped);
}

}  // namespace
}  // namespace mlp::millipede
