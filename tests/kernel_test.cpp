// Simulation-kernel invariants: bulk clock advancement, watchdog skip
// accounting, and — the load-bearing property — that activity-driven
// scheduling is invisible: every counter, metric, trace event and trace
// file byte must be identical to polling every unit at every edge
// (MachineConfig::fast_forward = false, --no-fast-forward). The scheduling
// work it saves (edges processed, units ticked) is pinned per point.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/system.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/watchdog.hpp"
#include "mem/cache.hpp"
#include "mem/channels.hpp"
#include "sim/kernel.hpp"
#include "sim/runner.hpp"
#include "trace/trace.hpp"
#include "wake_probe.hpp"

namespace mlp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- clock ----

TEST(ClockDomain, AdvanceByMatchesRepeatedAdvance) {
  ClockDomain a(277);
  ClockDomain b(277);
  for (int i = 0; i < 5; ++i) a.advance();
  b.advance_by(5);
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.next_edge_ps(), b.next_edge_ps());

  // A retune applies from the next edge in both paths.
  a.set_period_ps(500);
  b.set_period_ps(500);
  for (int i = 0; i < 3; ++i) a.advance();
  b.advance_by(3);
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.next_edge_ps(), b.next_edge_ps());

  b.advance_by(0);
  EXPECT_EQ(a.ticks(), b.ticks());
}

// ------------------------------------------------------------- watchdog ----

u64 iterations_at_trip(Watchdog* dog, u64 signature) {
  for (;;) {
    try {
      dog->step(signature);
    } catch (const SimError&) {
      return dog->iterations();
    }
  }
}

TEST(WatchdogSkip, MatchesConsecutiveSteps) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 100;
  cfg.max_cycles = 0;
  Watchdog stepped(cfg, "test", {});
  Watchdog skipped(cfg, "test", {});

  for (int i = 0; i < 50; ++i) stepped.step(7);
  skipped.skip(50, 7);
  EXPECT_EQ(stepped.iterations(), skipped.iterations());
  EXPECT_EQ(stepped.steps_until_trip(7), skipped.steps_until_trip(7));

  // Fed the same flat signature onward, both trip at the same iteration.
  EXPECT_EQ(iterations_at_trip(&stepped, 7), iterations_at_trip(&skipped, 7));
}

TEST(WatchdogSkip, StallBoundaryTripsOnTheNextRealStep) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 100;
  cfg.max_cycles = 0;
  Watchdog dog(cfg, "test", {});
  const u64 until = dog.steps_until_trip(7);
  // The kernel only ever skips strictly fewer than steps_until_trip edges;
  // after that the very next real step must trip.
  dog.skip(until - 1, 7);
  EXPECT_THROW(dog.step(7), SimError);
}

TEST(WatchdogSkip, CeilingBoundaryTripsOnTheNextRealStep) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 70;
  Watchdog dog(cfg, "test", {});
  dog.skip(dog.steps_until_trip(1) - 1, 1);
  EXPECT_THROW(dog.step(2), SimError);  // ceiling ignores progress
}

TEST(WatchdogSkip, DisabledLimitsNeverTrip) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  Watchdog dog(cfg, "test", {});
  EXPECT_EQ(dog.steps_until_trip(1), ~u64{0});
  dog.skip(1u << 20, 1);
  dog.step(1);
  EXPECT_EQ(dog.iterations(), (1u << 20) + 1);
}

TEST(WatchdogWall, BudgetTripsWithTheJobTimeoutKind) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 1;
  Watchdog dog(cfg, "test", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The amortized check samples the clock only every ~8192 iterations, so
  // the trip needs more than one stride of real steps past the deadline —
  // the progress signature keeps advancing (no stall, no ceiling).
  try {
    for (u64 i = 0; i < 100'000; ++i) dog.step(i);
    FAIL() << "wall-clock budget never tripped";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "job-timeout");
    EXPECT_NE(std::string(e.what()).find("wall-clock budget"),
              std::string::npos);
  }
}

TEST(WatchdogWall, SkippedIterationsStillReachTheCheck) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 1;
  Watchdog dog(cfg, "test", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A fast-forwarded run bulk-advances past the check stride; the very next
  // real step must still sample the clock and trip.
  dog.skip(1u << 20, 1);
  EXPECT_THROW(dog.step(2), SimError);
}

TEST(WatchdogWall, DisabledBudgetNeverSamplesTheClock) {
  WatchdogConfig cfg;
  cfg.stall_cycles = 0;
  cfg.max_cycles = 0;
  cfg.wall_ms = 0;
  Watchdog dog(cfg, "test", {});
  for (u64 i = 0; i < 20'000; ++i) dog.step(i);
  EXPECT_EQ(dog.iterations(), 20'000u);
}

// ----------------------------------------------------- kernel fake unit ----

/// Sleeps until `wake_at`, then retires one unit of work per tick. Its tick
/// is a provable no-op before wake_at, so a fast-forwarding kernel may skip
/// straight to it.
struct SleepyUnit final : sim::Tickable {
  Picos wake_at = 0;
  u64 remaining = 0;
  u64 ticks = 0;
  u64 idle_skipped = 0;
  u64 work = 0;

  Picos tick(Picos now, Picos /*period_ps*/) override {
    ++ticks;
    if (now >= wake_at && remaining > 0) {
      --remaining;
      ++work;
    }
    return next_event(now);
  }
  Picos next_event(Picos now) const override {
    return remaining > 0 ? std::max(wake_at, now) : sim::kNoEvent;
  }
  void skip_idle(u64 edges) override { idle_skipped += edges; }
};

TEST(KernelFastForward, SkipsProvablyIdleEdges) {
  auto drive = [](bool fast_forward, SleepyUnit* unit) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    unit->wake_at = 3'000'000;  // ~10k compute edges of provable idleness
    unit->remaining = 3;
    sim::SimulationKernel kernel(cfg, "test", nullptr);
    kernel.add_compute(unit);
    kernel.set_progress([unit] { return unit->work; });
    return kernel.run([unit] { return unit->remaining == 0; });
  };

  SleepyUnit polled, skipped;
  const Picos poll_end = drive(false, &polled);
  const Picos ff_end = drive(true, &skipped);

  // Identical outcome...
  EXPECT_EQ(poll_end, ff_end);
  EXPECT_EQ(polled.work, skipped.work);
  EXPECT_EQ(polled.idle_skipped, 0u);
  EXPECT_EQ(polled.ticks, skipped.ticks + skipped.idle_skipped);
  // ... and the fast-forwarded run actually skipped the idle gap instead of
  // polling its ~10k edges one by one.
  EXPECT_GT(skipped.idle_skipped, polled.ticks / 2);
  EXPECT_LT(skipped.ticks, polled.ticks / 4);
}

/// Floods the channel demux with one-row reads at time zero and counts its
/// own ticks, in particular those that find it parked on a refused push.
struct FloodRequester final : mem::Requester {
  explicit FloodRequester(mem::ChannelDemux* dram)
      : Requester(dram), row_bytes(dram->config().row_bytes) {}

  void flood(u32 requests) {
    for (u32 r = 0; r < requests; ++r) {
      mem::MemRequest req;
      req.addr = static_cast<Addr>(r) * row_bytes;
      req.bytes = row_bytes;
      req.done = done;
      submit(std::move(req), 0);
    }
  }
  Picos tick(Picos now, Picos period_ps) override {
    ++ticks;
    if (parked()) ++parked_ticks;
    return Requester::tick(now, period_ps);
  }

  u32 row_bytes;
  u64 completed = 0;
  test::WakeProbe done{[this](Picos) { ++completed; }};
  u64 ticks = 0;
  u64 parked_ticks = 0;
};

TEST(KernelFastForward, ParkedRequesterIsNotTickedButChargedItsRefusals) {
  struct Outcome {
    Picos end;
    u64 rejections, ticks, parked_ticks;
  };
  auto drive = [](bool fast_forward) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    cfg.dram.bus_efficiency = 0.05;  // the queue stays full for long spans
    StatSet stats;
    mem::ChannelDemux dram(cfg.dram, "dram", &stats);
    FloodRequester requester(&dram);
    constexpr u32 kRequests = 64;  // four times the scheduler window
    requester.flood(kRequests);
    sim::SimulationKernel kernel(cfg, "test", nullptr);
    kernel.add_channel(&requester);
    kernel.add_channel(&dram);
    kernel.set_progress([&] { return requester.completed; });
    const Picos end =
        kernel.run([&] { return requester.completed == kRequests; });
    return Outcome{end, stats.get("dram.queue_rejections"), requester.ticks,
                   requester.parked_ticks};
  };

  const Outcome polled = drive(false);
  const Outcome event = drive(true);
  EXPECT_EQ(polled.end, event.end);
  // Polling retries the refused push on every channel edge...
  EXPECT_GT(polled.parked_ticks, 0u);
  EXPECT_GT(polled.rejections, polled.parked_ticks / 2);
  // ... while the parked requester is only ticked after a slot frees, yet
  // is charged exactly the refusals those retries would have counted.
  EXPECT_EQ(event.parked_ticks, 0u);
  EXPECT_LT(event.ticks * 20, polled.ticks);
  EXPECT_EQ(polled.rejections, event.rejections);
}

/// Streams reads of consecutive lines through an L1, one access per compute
/// edge, retrying an access the L1 bounces for want of an MSHR.
struct LineStreamer final : sim::Tickable, sim::Waitable {
  LineStreamer(mem::Cache* l1, u32 lines) : l1(l1), lines(lines) {}

  void wake(u32 /*index*/, Picos /*at*/) override { ++filled; }

  Picos tick(Picos now, Picos /*period_ps*/) override {
    if (issued == lines) return sim::kNoEvent;
    const Addr addr = static_cast<Addr>(issued) * l1->line_bytes();
    const mem::AccessStatus status = l1->access(addr, false, now, {this, 0});
    if (status != mem::AccessStatus::kMshrFull) ++issued;
    if (status == mem::AccessStatus::kHit) ++filled;
    return next_event(now);
  }
  Picos next_event(Picos now) const override {
    return issued == lines ? sim::kNoEvent : now;
  }

  mem::Cache* l1;
  u32 lines;
  u32 issued = 0;
  u32 filled = 0;
};

TEST(KernelFastForward, CacheParkedOnAFullL2IsWokenWhenAnMshrRetires) {
  using Outcome = std::pair<Picos, std::map<std::string, u64>>;
  auto drive = [](bool fast_forward) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    cfg.dram.bus_efficiency = 0.05;
    StatSet stats;
    mem::ChannelDemux dram(cfg.dram, "dram", &stats);
    // Two L2 MSHRs behind an eight-MSHR L1: the L1's misses are refused by
    // the L2 until one of its fills retires.
    mem::Cache l2("l2", 64 * 1024, 64, 4, /*mshrs=*/2, 1000, &dram, &stats);
    mem::Cache l1("l1", 4 * 1024, 64, 2, /*mshrs=*/8, 500, &l2, &stats);
    constexpr u32 kLines = 48;
    LineStreamer streamer(&l1, kLines);
    sim::SimulationKernel kernel(cfg, "test", nullptr);
    kernel.add_compute(&streamer);
    kernel.add_channel(&l1);
    kernel.add_channel(&l2);
    kernel.add_channel(&dram);
    kernel.set_progress(
        [&] { return streamer.filled + dram.bytes_transferred(); });
    const Picos end = kernel.run([&] { return streamer.filled == kLines; });
    const auto counters = stats.snapshot();
    return Outcome{end, {counters.begin(), counters.end()}};
  };

  const Outcome polled = drive(false);
  const Outcome event = drive(true);
  EXPECT_EQ(polled.first, event.first);
  EXPECT_GT(polled.second.at("l2.mshr_stalls"), 0u)
      << "the L1 never parked on the L2";
  EXPECT_EQ(polled.second, event.second);
}

// ------------------------------------------ whole-system equivalence ----

sim::MatrixJob matrix_job(arch::ArchKind kind, const std::string& bench,
                          bool fast_forward) {
  sim::MatrixJob job;
  job.kind = kind;
  job.bench = bench;
  job.options.rows = 24;
  job.options.cfg.fast_forward = fast_forward;
  return job;
}

std::string label(const sim::MatrixJob& job) {
  return std::string(arch::arch_name(job.kind)) + "/" + job.bench;
}

arch::RunResult run_ok(const sim::MatrixJob& job) {
  const sim::MatrixResult run = sim::run_job(job);
  EXPECT_TRUE(run.ok()) << label(job) << ": " << run.error;
  return run.result;
}

/// Two runs of one point in different simulator modes: every counter and
/// metric must match.
void expect_same_result(const arch::RunResult& a, const arch::RunResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
  EXPECT_EQ(a.runtime_ps, b.runtime_ps) << what;
  EXPECT_EQ(a.thread_instructions, b.thread_instructions) << what;
  EXPECT_EQ(a.final_clock_mhz, b.final_clock_mhz) << what;
  EXPECT_EQ(a.energy.core_j, b.energy.core_j) << what;
  EXPECT_EQ(a.stats, b.stats) << what;
}

/// Runs `job` polled and activity-driven; every counter and metric must
/// match. Returns the polled result.
arch::RunResult expect_same_run(const sim::MatrixJob& job) {
  sim::MatrixJob poll_job = job;
  poll_job.options.cfg.fast_forward = false;
  sim::MatrixJob event_job = job;
  event_job.options.cfg.fast_forward = true;
  const arch::RunResult poll = run_ok(poll_job);
  expect_same_result(poll, run_ok(event_job), label(job));
  return poll;
}

TEST(KernelFastForward, CountersMatchPollingAcrossTheMatrix) {
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    for (const std::string bench : {"count", "variance", "kmeans"}) {
      expect_same_run(matrix_job(kind, bench, true));
    }
  }
}

/// The configs where requesters park: membound-grid's two (bandwidth
/// starved; starved on two refreshed channels striped below the column),
/// and the striped one again with delayed and dropped transfers under ECC,
/// whose retries land on full scheduler windows.
enum class Membound { kStarved, kStriped, kStripedFaults };

class MemboundEquivalence
    : public ::testing::TestWithParam<std::tuple<Membound, arch::ArchKind>> {
};

TEST_P(MemboundEquivalence, CountersMatchPolling) {
  const auto [config, kind] = GetParam();
  for (const std::string bench : {"count", "sample", "nbayes", "variance"}) {
    sim::MatrixJob job = matrix_job(kind, bench, true);
    DramConfig& dram = job.options.cfg.dram;
    dram.bus_efficiency = 0.05;
    if (config != Membound::kStarved) {
      dram.channels = 2;
      dram.refresh = "on";
      dram.mapping = "row:bank:col:channel";
    }
    if (config == Membound::kStripedFaults) {
      dram.fault.delay_rate = 0.3;
      dram.fault.drop_rate = 0.02;
      dram.fault.ecc = true;
    }
    const arch::RunResult polled = expect_same_run(job);
    if (config == Membound::kStripedFaults) {
      EXPECT_GT(polled.stats.at("dram.fault.delayed"), 0u) << bench;
    }
  }
}

std::string membound_name(
    const ::testing::TestParamInfo<MemboundEquivalence::ParamType>& info) {
  const char* const configs[] = {"starved", "striped", "striped_faults"};
  std::string name =
      std::string(configs[static_cast<int>(std::get<0>(info.param))]) + "_" +
      arch::arch_name(std::get<1>(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, MemboundEquivalence,
    ::testing::Combine(::testing::Values(Membound::kStarved,
                                         Membound::kStriped,
                                         Membound::kStripedFaults),
                       ::testing::ValuesIn(arch::all_arch_kinds())),
    membound_name);

TEST(KernelFastForward, StripedRetriesPastAFullWindowVerify) {
  // Dropped transfers re-enter a full scheduler window; a striped push must
  // then be refused like any backpressure and the run still verify.
  sim::MatrixJob job = matrix_job(arch::ArchKind::kSsmc, "count", true);
  job.options.cfg.dram.channels = 2;
  job.options.cfg.dram.mapping = "row:bank:col:channel";
  job.options.cfg.dram.fault.delay_rate = 0.3;
  job.options.cfg.dram.fault.drop_rate = 0.02;
  const arch::RunResult polled = expect_same_run(job);
  EXPECT_GT(polled.stats.at("dram.fault_retries"), 0u);
  EXPECT_GT(polled.stats.at("dram.queue_rejections"), 0u);
}

TEST(KernelFastForward, CountersMatchPollingWithRefreshAndHierarchy) {
  // The scheduler must not jump over refresh cursors, row idle-close
  // deadlines, or striped sub-transfers: with every DRAM feature lit the
  // activity-driven run still lands counter-identical to 1-cycle polling.
  // The arch x bench subset keeps the runtime small; the features live in
  // the shared controller, not the arch frontends.
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kGpgpu}) {
    for (const std::string bench : {"count", "kmeans"}) {
      sim::MatrixJob job = matrix_job(kind, bench, true);
      job.options.cfg.dram.channels = 2;
      job.options.cfg.dram.ranks = 2;
      job.options.cfg.dram.mapping = "row:rank:bank:channel:col";
      job.options.cfg.dram.page_policy = "open:idle=64:hits=8";
      job.options.cfg.dram.refresh = "on:trefi=40:trfc=8:postpone=4";
      const arch::RunResult polled = expect_same_run(job);
      EXPECT_GT(polled.stats.at("dram.refreshes"), 0u)
          << arch::arch_name(kind) << "/" << bench;
    }
  }
}

TEST(KernelFastForward, MillipedeFreqStepsMatchPolling) {
  workloads::WorkloadParams params;
  // 192 rows of 1-word records: enough voting rows for the DFS hill-climber
  // to retune several times (and partially climb back).
  params.num_records = 98304;
  const workloads::Workload workload = workloads::make_bmla("count", params);

  auto freq_steps = [&](bool fast_forward, double* final_mhz) {
    MachineConfig cfg = MachineConfig::paper_defaults();
    cfg.fast_forward = fast_forward;
    trace::TraceConfig tc;
    tc.chrome_json = true;  // capture events in memory; nothing is written
    trace::TraceSession session(tc);
    const arch::RunResult r =
        run_arch(arch::ArchKind::kMillipede, cfg, workload, 1, &session);
    *final_mhz = r.final_clock_mhz;
    std::vector<std::tuple<Picos, u64, u64>> steps;
    for (const trace::Event& e : session.events()) {
      if (e.kind == trace::EventKind::kFreqStep) {
        steps.emplace_back(e.ts, e.a, e.b);
      }
    }
    return steps;
  };

  double poll_mhz = 0, ff_mhz = 0;
  const auto poll_steps = freq_steps(false, &poll_mhz);
  const auto ff_steps = freq_steps(true, &ff_mhz);
  // The DFS rate matcher retunes mid-run on this workload: the sequence of
  // retune events — timestamps, periods, frequencies — must be identical
  // whether or not the kernel fast-forwarded the gaps between them.
  EXPECT_FALSE(poll_steps.empty());
  EXPECT_EQ(poll_steps, ff_steps);
  EXPECT_EQ(poll_mhz, ff_mhz);
}

// ------------------------------------------------------ scheduling work ----

/// compute_cycles, runtime_ps, thread_instructions, decode.block_hits,
/// decode.block_misses and decode.batched_lanes of a point no golden pins.
using PinnedCounters = std::array<u64, 6>;

/// One point at rows 24: its event-mode scheduling work (compute edges
/// processed, channel edges processed, unit ticks, core ticks) and, off the
/// paper defaults whose full StatSet the goldens pin, six of its counters.
struct WorkPoint {
  arch::ArchKind kind;
  const char* bench;
  double bus_efficiency;  ///< 0 keeps the paper default
  const char* refresh;    ///< DramConfig::refresh; null keeps it off
  std::array<u64, 4> work;  ///< compute, channel edges; unit, core ticks
  std::optional<PinnedCounters> counters;  ///< {} where a golden pins them
};

/// The four kinds' count and millipede/kmeans under paper defaults, two
/// bandwidth-starved points where requesters park on DRAM, the
/// compute-bound millipede/pca (every corelet due at every edge, one array
/// tick per edge) and JEDEC-cadence refresh. Core ticks are 0 on the SM,
/// which has no corelets.
const WorkPoint kWorkPoints[] = {
    {arch::ArchKind::kMillipede, "count", 0, nullptr,
     {5000, 36, 5036, 154274}, {}},
    {arch::ArchKind::kSsmc, "count", 0, nullptr,
     {14037, 2077, 21988, 154298}, {}},
    {arch::ArchKind::kGpgpu, "count", 0, nullptr, {6115, 604, 6719, 0}, {}},
    {arch::ArchKind::kMulticore, "count", 0, nullptr,
     {31680, 763, 32443, 92578}, {}},
    {arch::ArchKind::kMillipede, "kmeans", 0, nullptr,
     {17557, 36, 17593, 560345}, {}},
    {arch::ArchKind::kMulticore, "count", 0.05, nullptr,
     {93384, 764, 94148, 93594},
     PinnedCounters{188392, 52372698, 124876, 124866, 10, 21579}},
    {arch::ArchKind::kSsmc, "count", 0.05, nullptr,
     {74512, 2246, 83904, 154287},
     PinnedCounters{77661, 110976140, 154252, 154242, 10, 17583}},
    {arch::ArchKind::kMillipede, "pca", 0.9, nullptr,
     {54332, 20, 54352, 1738624},
     PinnedCounters{55101, 78737900, 1738624, 1738608, 16, 1684292}},
    {arch::ArchKind::kMillipede, "count", 0, "on", {5000, 39, 5039, 154274},
     PinnedCounters{6151, 8788350, 154252, 154242, 10, 83076}},
};

/// A scheduling regression (a unit or a core ticked at edges where it has
/// nothing to do, a jump not taken) moves no counter, only the kernel's
/// work. Polling
/// and the reference interpreter give the same full result, polling
/// processes every compute edge, and the event kernel's work is pinned.
TEST(KernelWorkCounters, PinnedPerPointAndEqualAcrossModes) {
  for (const WorkPoint& p : kWorkPoints) {
    sim::MatrixJob job = matrix_job(p.kind, p.bench, true);
    if (p.bus_efficiency > 0) {
      job.options.cfg.dram.bus_efficiency = p.bus_efficiency;
    }
    if (p.refresh != nullptr) job.options.cfg.dram.refresh = p.refresh;
    std::ostringstream os;
    const DramConfig& dram = job.options.cfg.dram;
    os << label(job) << " bus_efficiency " << dram.bus_efficiency
       << " refresh " << dram.refresh;
    const std::string name = os.str();
    sim::MatrixJob poll_job = job;
    poll_job.options.cfg.fast_forward = false;
    sim::MatrixJob nc_job = job;
    nc_job.options.cfg.block_cache = false;
    const arch::RunResult event = run_ok(job);
    const arch::RunResult poll = run_ok(poll_job);
    expect_same_result(event, poll, name + " polled");
    expect_same_result(event, run_ok(nc_job), name + " without block cache");

    EXPECT_EQ(poll.work.compute_edges, poll.compute_cycles) << name;
    const std::array<u64, 4> work = {
        event.work.compute_edges, event.work.channel_edges,
        event.work.unit_ticks, event.work.core_ticks};
    EXPECT_EQ(work, p.work) << name;
    if (p.counters) {
      const PinnedCounters counters = {
          event.compute_cycles, event.runtime_ps, event.thread_instructions,
          event.stats.at("decode.block_hits"),
          event.stats.at("decode.block_misses"),
          event.stats.at("decode.batched_lanes")};
      EXPECT_EQ(counters, *p.counters) << name;
    }
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(KernelFastForward, TraceFilesAreByteIdenticalToPolling) {
  const fs::path root = fs::path(::testing::TempDir()) / "mlp_kernel_ff";
  fs::remove_all(root);
  auto traced = [&](bool fast_forward) {
    sim::MatrixJob job =
        matrix_job(arch::ArchKind::kMillipede, "variance", fast_forward);
    job.options.trace.chrome_json = true;
    job.options.trace.interval_cycles = 256;
    job.options.trace.dir =
        (root / (fast_forward ? "ff" : "poll")).string();
    const sim::MatrixResult r = sim::run_job(job);
    EXPECT_TRUE(r.ok()) << r.error;
    std::vector<std::string> files = r.trace_files;
    std::sort(files.begin(), files.end());
    return files;
  };

  const std::vector<std::string> poll_files = traced(false);
  const std::vector<std::string> ff_files = traced(true);
  ASSERT_EQ(poll_files.size(), ff_files.size());
  ASSERT_FALSE(poll_files.empty());
  for (std::size_t i = 0; i < poll_files.size(); ++i) {
    EXPECT_EQ(fs::path(poll_files[i]).filename(),
              fs::path(ff_files[i]).filename());
    EXPECT_EQ(read_file(poll_files[i]), read_file(ff_files[i]))
        << poll_files[i];
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace mlp
