// Memory subsystem tests: address mapping, FR-FCFS controller timing and
// scheduling, cache hit/miss/MSHR/writeback behaviour, stream prefetcher,
// shared-memory banking, and the local store.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/config.hpp"
#include "common/error.hpp"
#include "mem/addrmap.hpp"
#include "mem/cache.hpp"
#include "mem/channels.hpp"
#include "mem/controller.hpp"
#include "mem/dram_image.hpp"
#include "mem/local_store.hpp"
#include "mem/prefetcher.hpp"
#include "mem/sharedmem.hpp"
#include "wake_probe.hpp"

namespace mlp::mem {
namespace {

DramConfig dram_cfg() {
  DramConfig cfg = MachineConfig::paper_defaults().dram;
  cfg.bus_efficiency = 1.0;  // exact-beat timing assertions below
  return cfg;
}

// --- AddressMap ---

TEST(AddressMap, DecodesRowBankColumn) {
  AddressMap map(dram_cfg());
  // Row 0 -> bank 0; row 1 -> bank 1 (row-interleaved banks).
  EXPECT_EQ(map.decode(0).bank, 0u);
  EXPECT_EQ(map.decode(0).row, 0u);
  EXPECT_EQ(map.decode(100).column, 100u);
  EXPECT_EQ(map.decode(2048).bank, 1u);
  EXPECT_EQ(map.decode(2048 * 4).bank, 0u);
  EXPECT_EQ(map.decode(2048 * 4).row, 1u);
  EXPECT_EQ(map.row_id(2048 * 5 + 17), 5u);
  EXPECT_EQ(map.row_base(5), 2048u * 5);
}

TEST(AddressMap, SequentialRowsAlternateBanks) {
  AddressMap map(dram_cfg());
  for (u64 r = 0; r + 1 < 64; ++r) {
    EXPECT_NE(map.decode(map.row_base(r)).bank,
              map.decode(map.row_base(r + 1)).bank);
  }
}

// --- MemoryController ---

struct ControllerFixture : ::testing::Test {
  ControllerFixture() : ctrl(dram_cfg(), "dram", &stats) {}

  // Push a read and run ticks until its callback fires; returns done time.
  Picos run_read(Addr addr, u32 bytes) {
    std::optional<Picos> done;
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.on_complete = [&](Picos at) { done = at; };
    EXPECT_TRUE(ctrl.try_push(std::move(req), now));
    drain();
    EXPECT_TRUE(done.has_value());
    return *done;
  }

  void drain() {
    while (!ctrl.idle()) {
      ctrl.tick(now);
      now += period;
    }
  }

  StatSet stats;
  ChannelDemux ctrl;
  Picos now = 0;
  Picos period = dram_cfg().period_ps();
};

TEST_F(ControllerFixture, ColdReadPaysActivatePlusCasPlusTransfer) {
  const Picos done = run_read(0, 64);
  // tRCD(9) + tCAS(9) + 4 beats of 16B = 22 cycles.
  EXPECT_EQ(done, 22 * period);
  EXPECT_EQ(stats.get("dram.row_misses"), 1u);
  EXPECT_EQ(stats.get("dram.row_hits"), 0u);
}

TEST_F(ControllerFixture, RowHitSkipsActivation) {
  run_read(0, 64);
  const Picos start = now;
  const Picos done = run_read(64, 64);
  // tCAS(9) + 4 beats = 13 cycles from the scheduling tick. The scheduling
  // tick is the first tick at or after `start`.
  EXPECT_LE(done - start, 14 * period);
  EXPECT_EQ(stats.get("dram.row_hits"), 1u);
}

TEST_F(ControllerFixture, FullRowFetchOccupiesBusFor128Beats) {
  const Picos done = run_read(0, 2048);
  // tRCD + tCAS + 128 beats = 146 cycles.
  EXPECT_EQ(done, 146 * period);
  EXPECT_EQ(stats.get("dram.bytes"), 2048u);
}

TEST_F(ControllerFixture, RowMissAfterOpenRowPaysPrechargeToo) {
  run_read(0, 64);  // opens bank0 row0
  const Picos start = now;
  // Same bank (bank 0 holds rows 0, 4, 8...), different row.
  const Picos done = run_read(4 * 2048, 64);
  // tRP(9) + tRCD(9) + tCAS(9) + 4 beats = 31 cycles minimum (tRAS already
  // satisfied by the elapsed drain time).
  EXPECT_GE(done - start, 31 * period);
  EXPECT_EQ(stats.get("dram.row_misses"), 2u);
}

TEST_F(ControllerFixture, FrFcfsPrefersRowHitOverOlderMiss) {
  run_read(0, 64);  // opens bank0 row0
  // Queue: first a conflicting miss to bank0 row4, then a hit to row0.
  Picos miss_done = 0, hit_done = 0;
  MemRequest miss;
  miss.addr = 4 * 2048;
  miss.bytes = 64;
  miss.on_complete = [&](Picos at) { miss_done = at; };
  MemRequest hit;
  hit.addr = 128;
  hit.bytes = 64;
  hit.on_complete = [&](Picos at) { hit_done = at; };
  ASSERT_TRUE(ctrl.try_push(std::move(miss), now));
  ASSERT_TRUE(ctrl.try_push(std::move(hit), now));
  drain();
  EXPECT_LT(hit_done, miss_done);  // younger row-hit served first
}

TEST_F(ControllerFixture, QueueBackpressure) {
  // Fill the 16-deep window without ticking.
  for (u32 i = 0; i < ctrl.queue_capacity(); ++i) {
    MemRequest req;
    req.addr = i * 2048;
    req.bytes = 64;
    ASSERT_TRUE(ctrl.try_push(std::move(req), now));
  }
  MemRequest overflow;
  overflow.addr = 99 * 2048;
  overflow.bytes = 64;
  EXPECT_FALSE(ctrl.try_push(std::move(overflow), now));
  EXPECT_EQ(stats.get("dram.queue_rejections"), 1u);
  drain();  // must still drain cleanly
}

TEST_F(ControllerFixture, BankParallelismOverlapsActivations) {
  // Two cold reads to different banks finish sooner than two to the same
  // bank+row-conflict because activations overlap.
  Picos done_a = 0, done_b = 0;
  MemRequest a, b;
  a.addr = 0;        // bank 0
  a.bytes = 2048;
  a.on_complete = [&](Picos at) { done_a = at; };
  b.addr = 2048;     // bank 1
  b.bytes = 2048;
  b.on_complete = [&](Picos at) { done_b = at; };
  ASSERT_TRUE(ctrl.try_push(std::move(a), now));
  ASSERT_TRUE(ctrl.try_push(std::move(b), now));
  drain();
  // B's activation overlaps A's transfer: B completes one transfer-time
  // after A (plus nothing else), i.e. well before 2x A's latency.
  EXPECT_EQ(done_a, 146 * period);
  EXPECT_LE(done_b, done_a + 129 * period);
  EXPECT_EQ(stats.get("dram.reads"), 2u);
}

TEST_F(ControllerFixture, RejectsRowStraddlingRequest) {
  MemRequest req;
  req.addr = 2048 - 64;
  req.bytes = 128;  // crosses into the next row
  EXPECT_THROW(ctrl.try_push(std::move(req), now), SimError);
}

// --- AddressMap: mapping grammar (typed SimError("config") contracts) ---

DramConfig mapped_cfg(const std::string& mapping, u32 channels = 1,
                      u32 ranks = 1) {
  DramConfig cfg = dram_cfg();
  cfg.mapping = mapping;
  cfg.channels = channels;
  cfg.ranks = ranks;
  return cfg;
}

TEST(AddressMapGrammar, UnknownFieldThrowsTypedConfigError) {
  try {
    AddressMap map(mapped_cfg("row:flib:col"));
    FAIL() << "unknown field accepted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "config");
    EXPECT_NE(std::string(e.what()).find("flib"), std::string::npos);
  }
}

TEST(AddressMapGrammar, DuplicateFieldThrows) {
  EXPECT_THROW(AddressMap map(mapped_cfg("row:bank:bank:col")), SimError);
}

TEST(AddressMapGrammar, EmptyFieldThrows) {
  EXPECT_THROW(AddressMap map(mapped_cfg("row::col")), SimError);
}

TEST(AddressMapGrammar, MissingColumnThrows) {
  EXPECT_THROW(AddressMap map(mapped_cfg("row:bank")), SimError);
}

TEST(AddressMapGrammar, RowMustLead) {
  EXPECT_THROW(AddressMap map(mapped_cfg("bank:row:col")), SimError);
}

TEST(AddressMapGrammar, ZeroWidthFieldThrows) {
  // banks = 4 but 'bank' absent: every address would decode to bank 0.
  EXPECT_THROW(AddressMap map(mapped_cfg("row:col")), SimError);
  // channels = 2 but 'channel' absent.
  EXPECT_THROW(AddressMap map(mapped_cfg("row:bank:col", /*channels=*/2)),
               SimError);
}

TEST(AddressMapGrammar, DimensionOneFieldsMayBeOmittedOrPresent) {
  // rank/channel count 1: both spellings are valid and equivalent.
  AddressMap omitted(mapped_cfg("row:bank:col"));
  AddressMap spelled(mapped_cfg("row:rank:bank:channel:col"));
  for (const Addr addr : {u64{0}, u64{4096}, u64{123456}}) {
    EXPECT_EQ(omitted.decode(addr).bank, spelled.decode(addr).bank);
    EXPECT_EQ(omitted.decode(addr).row, spelled.decode(addr).row);
  }
}

TEST(AddressMapGrammar, CheckGrammarIsGeometryIndependent) {
  // Grammar violations throw...
  EXPECT_THROW(AddressMap::check_grammar("row:flib:col"), SimError);
  EXPECT_THROW(AddressMap::check_grammar("col:row"), SimError);
  EXPECT_THROW(AddressMap::check_grammar("row:bank:bank:col"), SimError);
  // ...but zero-width checks need the geometry and pass here.
  EXPECT_NO_THROW(AddressMap::check_grammar("row:col"));
  EXPECT_NO_THROW(AddressMap::check_grammar("row:rank:bank:channel:col"));
}

TEST(AddressMap, DefaultMappingReproducesLegacyInterleave) {
  // The default "row:bank:col" must decode exactly like the pre-hierarchy
  // fixed interleave: bank = rowId % banks, row = rowId / banks.
  const DramConfig cfg = dram_cfg();
  AddressMap map(cfg);
  for (Addr addr = 0; addr < 64 * cfg.row_bytes; addr += 97) {
    const DramCoord coord = map.decode(addr);
    const u64 row_id = addr / cfg.row_bytes;
    EXPECT_EQ(coord.bank, row_id % cfg.banks);
    EXPECT_EQ(coord.row, row_id / cfg.banks);
    EXPECT_EQ(coord.column, addr % cfg.row_bytes);
    EXPECT_EQ(coord.channel, 0u);
    EXPECT_EQ(coord.rank, 0u);
    EXPECT_EQ(map.encode(coord), addr);
  }
  EXPECT_EQ(map.stripes(), 1u);
}

TEST(AddressMap, SubRowFieldsStripeOneBlock) {
  // channel below col: a contiguous row-sized block fans out across both
  // channels at matching columns.
  AddressMap map(mapped_cfg("row:bank:col:channel", /*channels=*/2));
  EXPECT_EQ(map.stripes(), 2u);
  const DramCoord base = map.decode(0);
  const DramCoord s0 = map.stripe_coord(base, 0);
  const DramCoord s1 = map.stripe_coord(base, 1);
  EXPECT_EQ(s0.channel, 0u);
  EXPECT_EQ(s1.channel, 1u);
  EXPECT_EQ(map.stripe_index(s0), 0u);
  EXPECT_EQ(map.stripe_index(s1), 1u);
}

// --- Page-policy / refresh spec grammar ---

TEST(DramSpecs, PagePolicyParsesAndRejects) {
  EXPECT_TRUE(parse_page_policy("open").open_page());
  const PagePolicy closed = parse_page_policy("closed");
  EXPECT_EQ(closed.max_row_hits, 1u);
  const PagePolicy tuned = parse_page_policy("open:idle=500:hits=8");
  EXPECT_EQ(tuned.max_row_idle, 500u);
  EXPECT_EQ(tuned.max_row_hits, 8u);
  for (const char* bad :
       {"", "open!", "open:idle=", "open:idle=abc", "open:bogus=1",
        "closed:idle=5", "open:idle=1:idle=2"}) {
    try {
      (void)parse_page_policy(bad);
      FAIL() << "accepted " << bad;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "config") << bad;
    }
  }
}

TEST(DramSpecs, RefreshParsesAndRejects) {
  EXPECT_FALSE(parse_refresh("off").enabled);
  const RefreshSpec on = parse_refresh("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.t_refi, 4680u);
  EXPECT_EQ(on.t_rfc, 192u);
  EXPECT_EQ(on.max_postponed, 8u);
  const RefreshSpec tuned = parse_refresh("on:trefi=100:trfc=10:postpone=2");
  EXPECT_EQ(tuned.t_refi, 100u);
  EXPECT_EQ(tuned.t_rfc, 10u);
  EXPECT_EQ(tuned.max_postponed, 2u);
  for (const char* bad :
       {"", "maybe", "off:trefi=5", "on:trefi=abc", "on:trfc=0",
        "on:trefi=10:trfc=20", "on:postpone=0", "on:bogus=1"}) {
    try {
      (void)parse_refresh(bad);
      FAIL() << "accepted " << bad;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "config") << bad;
    }
  }
}

// --- Page policy timing (per-bank open/closed state machine) ---

struct PolicyFixture : ::testing::Test {
  void build(const std::string& page_policy) {
    DramConfig cfg = dram_cfg();
    cfg.page_policy = page_policy;
    ctrl.emplace(cfg, "dram", &stats);
  }

  Picos run_read(Addr addr, u32 bytes) {
    std::optional<Picos> done;
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.on_complete = [&](Picos at) { done = at; };
    EXPECT_TRUE(ctrl->try_push(std::move(req), now));
    while (!ctrl->idle()) {
      ctrl->tick(now);
      now += period;
    }
    EXPECT_TRUE(done.has_value());
    return *done;
  }

  StatSet stats;
  std::optional<ChannelDemux> ctrl;
  Picos now = 0;
  Picos period = dram_cfg().period_ps();
};

TEST_F(PolicyFixture, ClosedPagePrechargesAfterEveryAccess) {
  build("closed");
  run_read(0, 64);
  run_read(64, 64);  // same row: open-page would hit
  EXPECT_EQ(stats.get("dram.row_misses"), 2u);
  EXPECT_EQ(stats.get("dram.row_hits"), 0u);
  EXPECT_EQ(stats.get("dram.explicit_precharges"), 2u);
}

TEST_F(PolicyFixture, HitStreakCapClosesTheRow) {
  build("open:hits=2");
  run_read(0, 64);    // miss, streak 1
  run_read(64, 64);   // hit, streak 2 -> autoprecharge
  run_read(128, 64);  // miss again
  EXPECT_EQ(stats.get("dram.row_misses"), 2u);
  EXPECT_EQ(stats.get("dram.row_hits"), 1u);
  EXPECT_EQ(stats.get("dram.explicit_precharges"), 1u);
}

TEST_F(PolicyFixture, IdleTimeoutClosesTheRow) {
  build("open:idle=50");
  run_read(0, 64);
  EXPECT_EQ(stats.get("dram.explicit_precharges"), 0u);
  // Tick past the idle deadline with no demand: the bank closes on its own.
  for (int i = 0; i < 60; ++i) {
    ctrl->tick(now);
    now += period;
  }
  EXPECT_EQ(stats.get("dram.explicit_precharges"), 1u);
  run_read(64, 64);  // the closed row must re-activate
  EXPECT_EQ(stats.get("dram.row_misses"), 2u);
  EXPECT_EQ(stats.get("dram.row_hits"), 0u);
}

TEST_F(PolicyFixture, IdleDeadlineAppearsInNextEvent) {
  build("open:idle=50");
  run_read(0, 64);
  // The controller must advertise the pending closure so the kernel's
  // fast-forward cannot skip it.
  const Picos at = ctrl->next_event(now);
  ASSERT_NE(at, sim::kNoEvent);
  EXPECT_GE(at, now);
  EXPECT_LE(at, now + 51 * period);
}

// --- Refresh scheduling ---

struct RefreshFixture : ::testing::Test {
  void build(const std::string& refresh, u32 ranks = 1) {
    DramConfig cfg = dram_cfg();
    cfg.refresh = refresh;
    cfg.ranks = ranks;
    cfg.mapping = ranks > 1 ? "row:rank:bank:col" : "row:bank:col";
    period = cfg.period_ps();
    ctrl.emplace(cfg, "dram", &stats);
  }

  StatSet stats;
  std::optional<ChannelDemux> ctrl;
  Picos period = 0;
};

TEST_F(RefreshFixture, IdleRankFollowsTrefiCadenceExactly) {
  build("on:trefi=100:trfc=10");
  for (u64 c = 0; c <= 1000; ++c) ctrl->tick(c * period);
  // Closed form: one refresh per elapsed tREFI, none postponed while idle.
  EXPECT_EQ(stats.get("dram.refreshes"), 10u);
  EXPECT_EQ(stats.get("dram.refresh_stall_ps"), 0u)
      << "idle refreshes are not interference";
  EXPECT_EQ(ctrl->refresh_debt(), 0u);
}

TEST_F(RefreshFixture, EveryRankRefreshesIndependently) {
  build("on:trefi=100:trfc=10", /*ranks=*/2);
  for (u64 c = 0; c <= 500; ++c) ctrl->tick(c * period);
  EXPECT_EQ(stats.get("dram.refreshes"), 2u * 5u);
}

TEST_F(RefreshFixture, DemandPostponesUpToTheDebtWindow) {
  build("on:trefi=20:trfc=5:postpone=2");
  u32 completed = 0;
  u64 max_debt = 0;
  for (u64 c = 0; c < 400; ++c) {
    const Picos now = c * period;
    if (ctrl->queue_size() < ctrl->queue_capacity()) {
      MemRequest req;
      req.addr = 0;  // a hot row: demand always queued for rank 0
      req.bytes = 64;
      req.on_complete = [&](Picos) { ++completed; };
      ctrl->try_push(std::move(req), now);
    }
    ctrl->tick(now);
    max_debt = std::max(max_debt, ctrl->refresh_debt());
  }
  EXPECT_GT(completed, 0u) << "demand still drains between refreshes";
  EXPECT_GT(stats.get("dram.refreshes"), 3u);
  EXPECT_GT(stats.get("dram.refresh_stall_ps"), 0u)
      << "refreshes behind queued demand count as interference";
  // At the cap demand is blocked, but the transfer already in flight still
  // has to drain before REF can issue; with this deliberately tiny tREFI
  // (20 cycles vs a ~22-cycle row-miss access) one accrual edge can pass
  // during that drain. Real tREFI (4680 cycles) dwarfs any single transfer,
  // so the window is effectively hard there.
  EXPECT_LE(max_debt, 3u) << "debt may overshoot the cap by at most the "
                             "one in-flight transfer";
}

TEST_F(RefreshFixture, RefreshCursorAppearsInNextEvent) {
  build("on:trefi=100:trfc=10");
  const Picos at = ctrl->next_event(0);
  ASSERT_NE(at, sim::kNoEvent);
  EXPECT_EQ(at, 100 * period) << "the accrual edge is observable";
}

// --- Channel demux: routing, striping, conditional counters ---

TEST(ChannelDemux, DefaultConfigRegistersOnlyLegacyCounters) {
  StatSet stats;
  ChannelDemux ctrl(dram_cfg(), "dram", &stats);
  EXPECT_TRUE(stats.has("dram.reads"));
  EXPECT_TRUE(stats.has("dram.bytes"));
  // Feature counters join the set only when their feature is on, keeping
  // default stats dumps bit-identical with the pre-hierarchy model.
  EXPECT_FALSE(stats.has("dram.refreshes"));
  EXPECT_FALSE(stats.has("dram.refresh_stall_ps"));
  EXPECT_FALSE(stats.has("dram.explicit_precharges"));
  EXPECT_FALSE(stats.has("dram.ch0.bytes"));
}

struct DemuxFixture : ::testing::Test {
  void build(const std::string& mapping, u32 channels) {
    DramConfig cfg = dram_cfg();
    cfg.mapping = mapping;
    cfg.channels = channels;
    period = cfg.period_ps();
    ctrl.emplace(cfg, "dram", &stats);
  }

  Picos run_read(Addr addr, u32 bytes) {
    std::optional<Picos> done;
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.on_complete = [&](Picos at) { done = at; };
    EXPECT_TRUE(ctrl->try_push(std::move(req), now));
    while (!ctrl->idle()) {
      ctrl->tick(now);
      now += period;
    }
    EXPECT_TRUE(done.has_value());
    return *done;
  }

  StatSet stats;
  std::optional<ChannelDemux> ctrl;
  Picos now = 0;
  Picos period = 0;
};

TEST_F(DemuxFixture, CoarseMappingRoutesWholeRequestsPerChannel) {
  build("row:bank:channel:col", /*channels=*/2);
  run_read(0, 2048);     // channel bit (just above col) = 0
  run_read(2048, 2048);  // = 1
  EXPECT_EQ(stats.get("dram.bytes"), 4096u);
  EXPECT_EQ(stats.get("dram.ch0.bytes"), 2048u);
  EXPECT_EQ(stats.get("dram.ch1.bytes"), 2048u);
  EXPECT_EQ(stats.get("dram.reads"), 2u);
}

TEST_F(DemuxFixture, SubRowMappingFansOneRequestAcrossChannels) {
  build("row:bank:col:channel", /*channels=*/2);
  run_read(0, 2048);  // one contiguous block -> two 1024 B stripes
  EXPECT_EQ(stats.get("dram.bytes"), 2048u);
  EXPECT_EQ(stats.get("dram.ch0.bytes"), 1024u);
  EXPECT_EQ(stats.get("dram.ch1.bytes"), 1024u);
  EXPECT_EQ(stats.get("dram.reads"), 2u) << "one read per stripe";
}

TEST_F(DemuxFixture, StripedCompletionFiresOnceAtTheLatestStripe) {
  build("row:bank:col:channel", /*channels=*/2);
  u32 completions = 0;
  MemRequest req;
  req.addr = 0;
  req.bytes = 2048;
  req.on_complete = [&](Picos) { ++completions; };
  ASSERT_TRUE(ctrl->try_push(std::move(req), now));
  while (!ctrl->idle()) {
    ctrl->tick(now);
    now += period;
  }
  EXPECT_EQ(completions, 1u);
}

TEST_F(DemuxFixture, RetryPastTheWindowRefusesAStripedPush) {
  // A dropped transfer re-enters its controller's queue even when the
  // window is full, so a channel can hold more than queue_depth requests.
  // A striped push must then be refused and counted like any other
  // backpressure, not pass the free-slot pre-check and fail the fan-out.
  DramConfig cfg = dram_cfg();
  cfg.channels = 2;
  cfg.mapping = "row:bank:col:channel";
  cfg.fault.delay_rate = 1.0;  // responses outlive their bank's busy time
  cfg.fault.drop_rate = 1.0;   // ... and every one of them is retried
  cfg.fault.max_retries = 1000;
  period = cfg.period_ps();
  ctrl.emplace(cfg, "dram", &stats);
  auto row_read = [&] {
    MemRequest req;
    req.addr = 0;
    req.bytes = cfg.row_bytes;  // one stripe per channel
    return req;
  };
  for (int i = 0; i < 20000; ++i) {
    while (ctrl->try_push(row_read(), now)) {
    }
    if (ctrl->queue_size() > ctrl->queue_capacity()) break;
    ctrl->tick(now);
    now += period;
  }
  ASSERT_GT(ctrl->queue_size(), ctrl->queue_capacity())
      << "no retry landed on a full window";
  const u64 rejected = stats.get("dram.queue_rejections");
  EXPECT_FALSE(ctrl->try_push(row_read(), now));
  EXPECT_EQ(stats.get("dram.queue_rejections"), rejected + 1);
}

TEST_F(DemuxFixture, ChannelParallelismBeatsSingleChannel) {
  // The same four-row stream, coarse-interleaved across 2 channels, finishes
  // sooner than on one channel: transfers overlap on independent buses.
  auto stream_time = [](u32 channels) {
    DramConfig cfg = dram_cfg();
    cfg.channels = channels;
    cfg.mapping = channels > 1 ? "row:bank:channel:col" : "row:bank:col";
    StatSet stats;
    ChannelDemux ctrl(cfg, "dram", &stats);
    Picos now = 0;
    const Picos period = cfg.period_ps();
    for (u32 r = 0; r < 4; ++r) {
      MemRequest req;
      req.addr = static_cast<Addr>(r) * cfg.row_bytes;
      req.bytes = cfg.row_bytes;
      EXPECT_TRUE(ctrl.try_push(std::move(req), now));
    }
    while (!ctrl.idle()) {
      ctrl.tick(now);
      now += period;
    }
    return now;
  };
  EXPECT_LT(stream_time(2), stream_time(1));
}

// --- Cache ---

/// Scripted backend: records requests; test completes them explicitly.
class FakeBackend : public MemBackend {
 public:
  bool request(MemRequest request, Picos) override {
    if (reject_next > 0) {
      --reject_next;
      return false;
    }
    requests.push_back(std::move(request));
    return true;
  }
  void park(Requester* requester) override { parked.push_back(requester); }
  void count_refusals(u64 n) override { refusals += n; }

  void complete_all(Picos at) {
    auto batch = std::move(requests);
    requests.clear();
    for (MemRequest& r : batch) {
      if (r.on_complete) r.on_complete(at);
    }
  }

  std::vector<MemRequest> requests;
  std::vector<Requester*> parked;
  u64 refusals = 0;
  int reject_next = 0;
};

struct CacheFixture : ::testing::Test {
  CacheFixture()
      : cache("l1", 5 * 1024, 128, 5, 8, /*hit_latency_ps=*/2858, &backend,
              &stats) {}

  FakeBackend backend;
  StatSet stats;
  Cache cache;
  test::WakeProbe sink;  ///< a waiter whose fills the test does not watch
  Picos now = 0;
};

TEST_F(CacheFixture, MissThenHit) {
  Picos filled = 0;
  test::WakeProbe waiter([&](Picos at) { filled = at; });
  EXPECT_EQ(cache.access(0x100, false, now, waiter), AccessStatus::kMiss);
  ASSERT_EQ(backend.requests.size(), 1u);
  EXPECT_EQ(backend.requests[0].addr, 0x100u);
  EXPECT_EQ(backend.requests[0].bytes, 128u);
  backend.complete_all(1000);
  EXPECT_EQ(filled, 1000u + cache.hit_latency_ps());
  EXPECT_EQ(cache.access(0x100, false, now, sink), AccessStatus::kHit);
  EXPECT_EQ(cache.access(0x17c, false, now, sink), AccessStatus::kHit)
      << "same line";
  EXPECT_EQ(stats.get("l1.hits"), 2u);
  EXPECT_EQ(stats.get("l1.misses"), 1u);
}

TEST_F(CacheFixture, MshrMergesSameLine) {
  int fills = 0;
  test::WakeProbe waiter([&](Picos) { ++fills; });
  EXPECT_EQ(cache.access(0x200, false, now, waiter.handle(0)),
            AccessStatus::kMiss);
  EXPECT_EQ(cache.access(0x240, false, now, waiter.handle(1)),
            AccessStatus::kMiss);
  EXPECT_EQ(backend.requests.size(), 1u) << "one fill for both waiters";
  backend.complete_all(500);
  EXPECT_EQ(fills, 2);
  EXPECT_EQ(stats.get("l1.mshr_merges"), 1u);
}

TEST_F(CacheFixture, MshrFullStalls) {
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(cache.access(i * 128, false, now, sink), AccessStatus::kMiss);
  }
  EXPECT_EQ(cache.access(9 * 128, false, now, sink),
            AccessStatus::kMshrFull);
  EXPECT_EQ(stats.get("l1.mshr_stalls"), 1u);
  backend.complete_all(100);
  EXPECT_EQ(cache.access(9 * 128, false, now, sink), AccessStatus::kMiss);
}

/// Line addresses that collide in one set under the XOR-hashed index.
std::vector<Addr> same_set_lines(u32 how_many) {
  auto hash = [](u64 n) { return (n ^ (n >> 4) ^ (n >> 8)) & 7; };
  std::vector<Addr> out;
  for (u64 n = 0; out.size() < how_many; ++n) {
    if (hash(n) == hash(0)) out.push_back(n * 128);
  }
  return out;
}

TEST_F(CacheFixture, DirtyEvictionWritesBack) {
  // Fill all 5 ways of one (hashed) set with writes, then force an eviction.
  const std::vector<Addr> lines = same_set_lines(6);
  for (u32 way = 0; way < 5; ++way) {
    cache.access(lines[way], true, now, sink);
  }
  backend.complete_all(10);
  backend.requests.clear();
  cache.access(lines[5], false, now, sink);
  backend.complete_all(20);  // installs, evicting the LRU dirty line
  ASSERT_FALSE(backend.requests.empty());
  EXPECT_TRUE(backend.requests.back().is_write);
  EXPECT_EQ(backend.requests.back().addr, lines[0]);
  EXPECT_EQ(stats.get("l1.writebacks"), 1u);
}

TEST_F(CacheFixture, LruVictimSelection) {
  const std::vector<Addr> lines = same_set_lines(6);
  for (u32 way = 0; way < 5; ++way) cache.access(lines[way], false, now, sink);
  backend.complete_all(10);
  // Touch lines[0] so lines[1] becomes LRU.
  cache.access(lines[0], false, now, sink);
  cache.access(lines[5], false, now, sink);
  backend.complete_all(20);
  EXPECT_EQ(cache.access(lines[0], false, now, sink), AccessStatus::kHit);
  EXPECT_EQ(cache.access(lines[1], false, now, sink), AccessStatus::kMiss)
      << "LRU way was evicted";
}

TEST_F(CacheFixture, HashedIndexSpreadsRowStridedStreams) {
  // Nine streams strided by one DRAM row (16 lines) — the interleaved
  // layout's field rows — must not all collide in one set.
  std::set<u64> sets;
  for (u32 f = 0; f < 9; ++f) {
    const u64 n = static_cast<u64>(f) * 16;
    sets.insert((n ^ (n >> 4) ^ (n >> 8)) & 7);
  }
  EXPECT_GE(sets.size(), 4u);
}

TEST_F(CacheFixture, PrefetchFillsLineAndCountsUsefulness) {
  cache.prefetch(0x800, now);
  EXPECT_EQ(stats.get("l1.prefetch_issued"), 1u);
  backend.complete_all(50);
  EXPECT_EQ(cache.access(0x800, false, now, sink), AccessStatus::kHit);
  EXPECT_EQ(stats.get("l1.prefetch_useful"), 1u);
}

TEST_F(CacheFixture, PrefetchDroppedWhenLineBusy) {
  cache.access(0x800, false, now, sink);
  cache.prefetch(0x800, now);  // already in flight: dropped
  EXPECT_EQ(stats.get("l1.prefetch_issued"), 0u);
  EXPECT_EQ(backend.requests.size(), 1u);
}

TEST_F(CacheFixture, DemandUpgradesPrefetchMshr) {
  cache.prefetch(0xa00, now);
  Picos filled = 0;
  test::WakeProbe waiter([&](Picos at) { filled = at; });
  EXPECT_EQ(cache.access(0xa00, false, now, waiter), AccessStatus::kMiss);
  backend.complete_all(300);
  EXPECT_GT(filled, 0u) << "waiter attached to in-flight prefetch";
}

TEST_F(CacheFixture, PumpRetriesAfterBackpressure) {
  backend.reject_next = 1;
  cache.access(0xc00, false, now, sink);
  EXPECT_TRUE(backend.requests.empty());
  cache.pump(now);
  EXPECT_EQ(backend.requests.size(), 1u);
  backend.complete_all(99);
  EXPECT_EQ(cache.access(0xc00, false, now, sink), AccessStatus::kHit);
}

TEST_F(CacheFixture, SnapshotKeepsInvalidWaysAfterTheValidOnes) {
  cache.access(0x100, /*is_write=*/true, now, sink);
  backend.complete_all(10);  // one dirty line, in way 0 of its set
  sim::SnapshotWriter w;
  sim::StateIO capture(w);
  cache.checkpoint(capture);
  const std::string blob = w.blob();
  constexpr u64 kHeader = 12;  // magic + version
  auto restore = [&](const std::string& bytes) {
    Cache copy("l1", 5 * 1024, 128, 5, 8, 2858, &backend, nullptr);
    sim::SnapshotCursor r(reinterpret_cast<const u8*>(bytes.data()) + kHeader,
                          bytes.size() - kHeader);
    sim::StateIO load(r);
    copy.checkpoint(load);
    sim::SnapshotWriter again;
    sim::StateIO recapture(again);
    copy.checkpoint(recapture);
    return again.blob();
  };
  EXPECT_EQ(restore(blob), blob);
  // Ways fill in order and are never invalidated, so a valid way after an
  // invalid one cannot come from a run: set 0's way 1 (each way is three
  // flags and two u64s, after the u32 set and way counts).
  std::string gap = blob;
  gap[kHeader + 8 + 19] = 1;
  EXPECT_THROW(restore(gap), SimError);
}

TEST_F(CacheFixture, ActsAsBackendForUpstreamCache) {
  // Use the cache itself through the MemBackend interface.
  Picos done = 0;
  MemRequest req;
  req.addr = 0x1000;
  req.bytes = 128;
  req.on_complete = [&](Picos at) { done = at; };
  EXPECT_TRUE(cache.request(std::move(req), now));  // miss accepted
  backend.complete_all(400);
  EXPECT_GE(done, 400u);
  // Second time: hit completes immediately with +latency timestamp.
  Picos done2 = 0;
  MemRequest req2;
  req2.addr = 0x1000;
  req2.bytes = 128;
  req2.on_complete = [&](Picos at) { done2 = at; };
  EXPECT_TRUE(cache.request(std::move(req2), now));
  EXPECT_EQ(done2, now + cache.hit_latency_ps());
}

// --- StreamPrefetcher ---

/// The lines a prefetcher asks for on a demand access to `addr`.
template <typename Prefetcher>
std::vector<Addr> observe(Prefetcher& pf, Addr addr) {
  std::vector<Addr> lines;
  pf.observe(addr, &lines);
  return lines;
}

TEST(StreamPrefetcher, DetectsUnitStride) {
  StreamPrefetcher pf(128, /*degree=*/2, /*distance=*/8);
  EXPECT_TRUE(observe(pf, 0).empty());
  EXPECT_TRUE(observe(pf, 128).empty()) << "confidence 1: not yet";
  const auto lines = observe(pf, 256);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], 384u);
}

TEST(StreamPrefetcher, DetectsRowStride) {
  // SSMC core stream: one line per field row, stride 16 lines (2 KB / 128 B).
  StreamPrefetcher pf(128, 2, 8);
  observe(pf, 0);
  observe(pf, 2048);
  const auto lines = observe(pf, 4096);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], 6144u);
}

TEST(StreamPrefetcher, RepeatedSameLineIsIgnored) {
  StreamPrefetcher pf(128, 2, 8);
  observe(pf, 0);
  observe(pf, 128);
  observe(pf, 128);  // same line: keeps stream state
  const auto lines = observe(pf, 256);
  EXPECT_FALSE(lines.empty());
}

TEST(StreamPrefetcher, StrideChangeResetsConfidence) {
  StreamPrefetcher pf(128, 2, 8);
  observe(pf, 0);
  observe(pf, 128);
  observe(pf, 256);
  EXPECT_TRUE(observe(pf, 10'000 * 128).empty()) << "new stream, no prefetch";
}

TEST(StreamPrefetcher, DoesNotReissueCoveredLines) {
  StreamPrefetcher pf(128, 4, 8);
  observe(pf, 0);
  observe(pf, 128);
  const auto first = observe(pf, 256);
  const auto second = observe(pf, 384);
  for (Addr a : second) {
    for (Addr b : first) EXPECT_NE(a, b) << "line prefetched twice";
  }
}

// --- SharedMemBanking ---

TEST(SharedMem, LanePrivateMappingIsConflictFree) {
  SharedMemBanking banks(32, BankMapping::kLanePrivate);
  std::vector<SharedMemBanking::LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) {
    // Indirect accesses: arbitrary word offsets (data-dependent).
    accesses.push_back({lane, (lane * 37 % 256) * 4});
  }
  EXPECT_EQ(banks.conflict_cycles(accesses), 1u);
}

TEST(SharedMem, WordInterleavedConflictsSerialize) {
  SharedMemBanking banks(32, BankMapping::kWordInterleaved);
  std::vector<SharedMemBanking::LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) {
    accesses.push_back({lane, 0});  // all lanes hit bank 0
  }
  EXPECT_EQ(banks.conflict_cycles(accesses), 32u);
}

TEST(SharedMem, WordInterleavedSequentialIsConflictFree) {
  SharedMemBanking banks(32, BankMapping::kWordInterleaved);
  std::vector<SharedMemBanking::LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 4});
  EXPECT_EQ(banks.conflict_cycles(accesses), 1u);
}

TEST(SharedMem, EmptyAccessListCostsNothing) {
  SharedMemBanking banks(32, BankMapping::kWordInterleaved);
  EXPECT_EQ(banks.conflict_cycles({}), 0u);
}

// --- LocalStore / DramImage ---

TEST(LocalStore, LoadStoreRoundTrip) {
  LocalStore store(4096);
  store.store(0, 42);
  store.store(4092, 7);
  EXPECT_EQ(store.load(0), 42u);
  EXPECT_EQ(store.load(4092), 7u);
  EXPECT_EQ(store.size_bytes(), 4096u);
}

TEST(LocalStore, AmoaddReturnsOldValue) {
  LocalStore store(64);
  store.store(8, 10);
  EXPECT_EQ(store.amoadd(8, 5), 10u);
  EXPECT_EQ(store.load(8), 15u);
  EXPECT_EQ(store.amoadd(8, 1), 15u);
}

TEST(LocalStore, FamoaddAccumulatesFloats) {
  LocalStore store(64);
  store.store_f32(4, 1.5f);
  u32 bits;
  float addend = 2.25f;
  std::memcpy(&bits, &addend, 4);
  store.famoadd(4, bits);
  EXPECT_FLOAT_EQ(store.load_f32(4), 3.75f);
}

TEST(LocalStore, BadAddressIsATypedError) {
  // Reachable from data (a kernel indexing its state with a corrupted input
  // word), so a per-run SimError rather than an abort.
  LocalStore store(64);
  const auto kind_of = [&](auto&& access) -> std::string {
    try {
      access();
    } catch (const SimError& e) {
      return e.kind() + ": " + e.what();
    }
    return "no error";
  };
  EXPECT_NE(kind_of([&] { store.load(64); }).find("local-access"),
            std::string::npos);
  EXPECT_NE(kind_of([&] { store.store(0xfffffffc, 1); }).find("outside"),
            std::string::npos);
  EXPECT_NE(kind_of([&] { store.amoadd(2, 1); }).find("unaligned"),
            std::string::npos);
  EXPECT_EQ(kind_of([&] { store.store(60, 7); }), "no error");
}

TEST(DramImage, ReadWriteRoundTrip) {
  DramImage image(1024);
  image.write_u32(0, 0xdeadbeef);
  image.write_f32(4, 3.25f);
  EXPECT_EQ(image.read_u32(0), 0xdeadbeefu);
  EXPECT_FLOAT_EQ(image.read_f32(4), 3.25f);
  EXPECT_EQ(image.size(), 1024u);
}

TEST(DramImage, CopiesShareBytesUntilOneWrites) {
  DramImage source(64);
  source.write_u32(0, 7);
  DramImage a = source;
  DramImage b = source;
  DramImage c = source;
  const DramImage& view = a;
  EXPECT_EQ(view.raw().data(), std::as_const(source).raw().data())
      << "a copy shares its bytes until it writes";
  a.write_u32(0, 9);
  b.flip_bit(4, 0);
  c.raw()[8] = 1;
  EXPECT_EQ(source.read_u32(0), 7u) << "a copy's write leaked into the source";
  EXPECT_EQ(source.read_u32(4), 0u);
  EXPECT_EQ(source.read_u32(8), 0u);
  EXPECT_EQ(a.read_u32(0), 9u);
  EXPECT_EQ(b.read_u32(0), 7u);
  EXPECT_EQ(b.read_u32(4), 1u);
  EXPECT_EQ(c.read_u32(8), 1u);
  const DramImage moved = std::move(a);
  EXPECT_EQ(moved.read_u32(0), 9u);
  EXPECT_EQ(a.size(), 64u) << "a moved-from image keeps its bytes";
}

TEST(DramImageDeathTest, BoundsChecked) {
  DramImage image(16);
  EXPECT_DEATH(image.read_u32(16), "bad DRAM read");
}

}  // namespace
}  // namespace mlp::mem
