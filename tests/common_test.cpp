// Tests for the common substrate: units, RNG determinism and distribution
// sanity, stats registry, clock domains, table rendering, config validation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace mlp {
namespace {

TEST(Units, PeriodFromFrequency) {
  EXPECT_EQ(period_ps_from_hz(1e9), 1000u);
  EXPECT_EQ(period_ps_from_hz(700e6), 1429u);  // 700 MHz compute clock
  EXPECT_EQ(period_ps_from_hz(1.2e9), 833u);   // 1.2 GHz channel clock
}

TEST(Units, RoundTripFrequency) {
  const Picos p = period_ps_from_hz(700e6);
  EXPECT_NEAR(mhz_from_period_ps(p), 700.0, 0.5);
}

TEST(Units, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2048));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_exact(2048), 11u);
  EXPECT_EQ(log2_exact(1), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ZipfIsSkewedTowardSmallValues) {
  Rng rng(13);
  int low = 0, high = 0;
  for (int i = 0; i < 4000; ++i) {
    const u64 z = rng.zipf(64, 1.0);
    EXPECT_LT(z, 64u);
    if (z < 8) ++low;
    if (z >= 56) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(Stats, RegisterAndSnapshot) {
  Counter hits, misses;
  StatSet set;
  set.add("cache.hits", &hits);
  set.add("cache.misses", &misses);
  hits.inc(3);
  misses.inc();
  EXPECT_EQ(set.get("cache.hits"), 3u);
  EXPECT_EQ(set.get("cache.misses"), 1u);
  EXPECT_TRUE(set.has("cache.hits"));
  EXPECT_FALSE(set.has("cache.evictions"));
  const auto snap = set.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "cache.hits");  // sorted order
}

TEST(Stats, ScalarRegistration) {
  double mhz = 544.0;
  StatSet set;
  set.add_scalar("clock.mhz", &mhz);
  EXPECT_DOUBLE_EQ(set.get_scalar("clock.mhz"), 544.0);
  mhz = 625.0;
  EXPECT_DOUBLE_EQ(set.get_scalar("clock.mhz"), 625.0);
}

TEST(Stats, MissingCounterThrowsRecoverableError) {
  // A typo'd counter name must surface as a per-job SimError (kind
  // "stat-missing"), not an abort: sweep pools recover from it.
  StatSet set;
  EXPECT_THROW(set.get("no.such.counter"), SimError);
  EXPECT_THROW(set.get_scalar("no.such.scalar"), SimError);
  try {
    set.get("dram.row_hits");
    FAIL() << "missing counter must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "stat-missing");
    EXPECT_NE(std::string(e.what()).find("dram.row_hits"),
              std::string::npos);
  }
}

TEST(Stats, DuplicateRegistrationThrows) {
  Counter a, b;
  double s = 0.0, t = 0.0;
  StatSet set;
  set.add("cache.hits", &a);
  set.add_scalar("clock.mhz", &s);
  try {
    set.add("cache.hits", &b);
    FAIL() << "duplicate counter must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "stat-duplicate");
    EXPECT_NE(std::string(e.what()).find("cache.hits"), std::string::npos);
  }
  EXPECT_THROW(set.add_scalar("clock.mhz", &t), SimError);
  // The original registrations survive the rejected duplicates.
  a.inc(2);
  EXPECT_EQ(set.get("cache.hits"), 2u);
  EXPECT_DOUBLE_EQ(set.get_scalar("clock.mhz"), 0.0);
}

TEST(Stats, ToStringListsCountersAndScalars) {
  Counter a;
  double s = 700.0;
  StatSet set;
  set.add("cache.hits", &a);
  set.add_scalar("clock.mhz", &s);
  a.inc(5);
  const std::string text = set.to_string();
  EXPECT_NE(text.find("cache.hits = 5"), std::string::npos);
  EXPECT_NE(text.find("clock.mhz = 700"), std::string::npos);
}

TEST(Clock, AdvancesByPeriod) {
  ClockDomain clock(1429);
  EXPECT_EQ(clock.next_edge_ps(), 0u);
  clock.advance();
  EXPECT_EQ(clock.next_edge_ps(), 1429u);
  EXPECT_EQ(clock.ticks(), 1u);
  clock.advance();
  EXPECT_EQ(clock.next_edge_ps(), 2858u);
}

TEST(Clock, DfsChangesFuturePeriodsOnly) {
  ClockDomain clock(1000);
  clock.advance();  // next edge at 1000
  clock.set_period_ps(2000);
  EXPECT_EQ(clock.next_edge_ps(), 1000u);  // pending edge unchanged
  clock.advance();
  EXPECT_EQ(clock.next_edge_ps(), 3000u);  // new period applied
}

TEST(Clock, TwoDomainInterleaving) {
  // 700 MHz compute vs 1.2 GHz channel: over 1 us the channel must tick
  // ~1.714x as often as the compute domain.
  ClockDomain compute(period_ps_from_hz(700e6));
  ClockDomain channel(period_ps_from_hz(1.2e9));
  const Picos horizon = 1'000'000;  // 1 us
  while (true) {
    ClockDomain& next =
        compute.next_edge_ps() <= channel.next_edge_ps() ? compute : channel;
    if (next.next_edge_ps() >= horizon) break;
    next.advance();
  }
  EXPECT_NEAR(static_cast<double>(channel.ticks()) / compute.ticks(),
              1.2e9 / 700e6, 0.01);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t("Demo");
  t.set_columns({"bench", "speedup"});
  t.add_row();
  t.cell(std::string("count"));
  t.cell(2.35, 2);
  t.add_row();
  t.cell(std::string("nbayes"));
  t.cell(u64{7});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("Demo"), std::string::npos);
  EXPECT_NE(text.find("count"), std::string::npos);
  EXPECT_NE(text.find("2.35"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("bench,speedup"), std::string::npos);
  EXPECT_NE(csv.find("nbayes,7"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Config, PaperDefaultsValidate) {
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.validate();  // must not abort
  EXPECT_EQ(cfg.core.cores, 32u);
  EXPECT_EQ(cfg.core.contexts, 4u);
  EXPECT_EQ(cfg.dram.row_bytes, 2048u);
  EXPECT_EQ(cfg.millipede.pf_entries, 16u);
  EXPECT_NEAR(cfg.dram.peak_gbps(), 19.2, 0.01);
}

TEST(Config, SystemSizeSweepValidates) {
  // The Fig. 6 sweep doubles cores; slab math must keep working.
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.core.cores = 64;
  cfg.validate();
  EXPECT_EQ(cfg.dram.row_bytes / cfg.core.cores, 32u);  // 32 B slabs
}

TEST(ConfigDeathTest, RejectsNonPow2Row) {
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.dram.row_bytes = 1500;
  EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Config, RejectsBadFaultRates) {
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.dram.fault.bit_flip_rate = 1.5;
  EXPECT_THROW(cfg.validate(), SimError);
  cfg.dram.fault.bit_flip_rate = 1e-6;
  cfg.dram.fault.max_retries = 0;
  EXPECT_THROW(cfg.validate(), SimError);
  cfg.dram.fault.max_retries = 3;
  cfg.validate();  // sane fault config passes
}

TEST(Config, SimErrorCarriesKindAndDiagnostic) {
  try {
    throw SimError("watchdog", "stuck", "dump line\n");
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "watchdog");
    EXPECT_STREQ(e.what(), "watchdog: stuck");
    EXPECT_EQ(e.diagnostic(), "dump line\n");
  }
}

}  // namespace
}  // namespace mlp
