// Mid-run checkpoint tests (sim/snapshot.hpp): format round-trip and typed
// rejection of malformed blobs, then the load-bearing guarantee — for every
// architecture x benchmark, a run checkpointed at cycle N and finished by a
// fresh restore-and-run is counter-identical (every StatSet counter, runtime,
// verification) to the uninterrupted run, and the restored run's interval
// timeline is an exact suffix of the uninterrupted one.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "sim/fork.hpp"
#include "sim/prepare.hpp"
#include "sim/runner.hpp"
#include "sim/snapshot.hpp"

namespace mlp::sim {
namespace {

// --- Format ---

TEST(SnapshotFormat, WriterReaderRoundTrip) {
  SnapshotWriter w;
  w.begin_section(kSecMeta);
  w.put_u32(7);
  w.put_u64(0x1122334455667788ull);
  w.put_string("hello");
  w.put_bool(true);
  w.end_section();
  w.begin_section(kSecKernel);
  w.put_u8(0xab);
  w.end_section();

  SnapshotReader r(w.blob());
  SnapshotSection s;
  ASSERT_TRUE(r.next(&s));
  EXPECT_EQ(s.id, u32{kSecMeta});
  EXPECT_EQ(s.cursor.get_u32(), 7u);
  EXPECT_EQ(s.cursor.get_u64(), 0x1122334455667788ull);
  EXPECT_EQ(s.cursor.get_string(), "hello");
  EXPECT_TRUE(s.cursor.get_bool());
  EXPECT_TRUE(s.cursor.done());
  ASSERT_TRUE(r.next(&s));
  EXPECT_EQ(s.id, u32{kSecKernel});
  EXPECT_EQ(s.cursor.get_u8(), 0xab);
  EXPECT_FALSE(r.next(&s));
}

TEST(SnapshotFormat, RejectsBadMagic) {
  std::string blob = "NOTASNAPxxxx";
  try {
    SnapshotReader r(blob);
    FAIL() << "bad magic must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "snapshot");
  }
}

TEST(SnapshotFormat, RejectsBadVersion) {
  SnapshotWriter w;
  std::string blob = w.blob();
  blob[8] = 99;  // patch the version field
  try {
    SnapshotReader r(blob);
    FAIL() << "wrong version must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "snapshot");
  }
}

TEST(SnapshotFormat, RejectsTruncatedBlob) {
  SnapshotWriter w;
  w.begin_section(kSecMeta);
  w.put_u64(1);
  w.end_section();
  const std::string& full = w.blob();
  // Every proper prefix that still passes the header must fail cleanly with
  // a typed error, never crash — the round-trip fuzz the CI ASan job runs.
  // (A cut at exactly 12 bytes is the valid empty blob, so start past it.)
  for (std::size_t cut = 13; cut < full.size(); ++cut) {
    const std::string blob = full.substr(0, cut);
    try {
      SnapshotReader r(blob);
      SnapshotSection s;
      while (r.next(&s)) {
      }
      FAIL() << "truncation at " << cut << " must throw";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "snapshot");
    }
  }
}

TEST(SnapshotFormat, CursorRejectsOverrun) {
  SnapshotWriter w;
  w.begin_section(kSecMeta);
  w.put_u32(1);
  w.end_section();
  SnapshotReader r(w.blob());
  SnapshotSection s;
  ASSERT_TRUE(r.next(&s));
  s.cursor.get_u32();
  EXPECT_THROW(s.cursor.get_u32(), SimError);
}

TEST(SnapshotFormat, MetaPeekReadsIdentity) {
  SnapshotWriter w;
  SnapshotMeta meta;
  meta.cycle = 1234;
  meta.now_ps = 99;
  meta.arch_label = "millipede";
  meta.warp_width = 4;
  meta.image_bytes = 4096;
  meta.fault_sequence = 17;
  w.begin_section(kSecMeta);
  meta.save(w);
  w.end_section();
  const SnapshotMeta back = snapshot_meta(w.blob());
  EXPECT_EQ(back.cycle, 1234u);
  EXPECT_EQ(back.now_ps, 99u);
  EXPECT_EQ(back.arch_label, "millipede");
  EXPECT_EQ(back.warp_width, 4u);
  EXPECT_EQ(back.image_bytes, 4096u);
  EXPECT_EQ(back.fault_sequence, 17u);
}

// --- Equivalence: capture is non-invasive, restore finishes identically ---

/// The equivalence matrix uses a reduced data volume so 64 cases x 3 runs
/// stay ctest-friendly; the CI gate re-runs the full-size sweep comparison.
constexpr u64 kRows = 24;

SuiteOptions small_options() {
  SuiteOptions o;
  o.rows = kRows;
  return o;
}

void expect_identical(const arch::RunResult& a, const arch::RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << label;
  EXPECT_EQ(a.runtime_ps, b.runtime_ps) << label;
  EXPECT_EQ(a.thread_instructions, b.thread_instructions) << label;
  EXPECT_EQ(a.warp_width, b.warp_width) << label;
  EXPECT_EQ(a.final_clock_mhz, b.final_clock_mhz) << label;
  EXPECT_EQ(a.insts_per_word, b.insts_per_word) << label;
  EXPECT_EQ(a.branches_per_inst, b.branches_per_inst) << label;
  EXPECT_EQ(a.row_miss_rate, b.row_miss_rate) << label;
  EXPECT_EQ(a.energy.total_j(), b.energy.total_j()) << label;
  EXPECT_EQ(a.verification, b.verification) << label;
  // Every counter, by name: the strong form of the gate.
  ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
  for (const auto& [name, value] : a.stats) {
    const auto it = b.stats.find(name);
    ASSERT_NE(it, b.stats.end()) << label << " missing " << name;
    EXPECT_EQ(value, it->second) << label << " counter " << name;
  }
}

struct EquivCase {
  arch::ArchKind kind;
  std::string bench;
  /// Capture and restore through run_arch with no prepared input, so each
  /// run prepares its own and the image delta is taken against that copy.
  bool unprepared = false;
};

class SnapshotEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(SnapshotEquivalence, CheckpointRestoreMatchesUninterrupted) {
  const EquivCase& c = GetParam();
  const MatrixJob job{c.kind, c.bench, small_options(), ""};
  PrepareCache cache;  // share preparation across the three runs

  const MatrixResult baseline = run_job(job, &cache);
  ASSERT_TRUE(baseline.ok()) << baseline.error;
  const auto run = [&](SnapshotPlan* plan) {
    if (!c.unprepared) return run_job(job, &cache, nullptr, plan);
    MatrixResult out;
    out.result = arch::run_arch(c.kind, job.options.cfg,
                                cache.get(job)->workload, job.options.seed,
                                nullptr, nullptr, plan);
    return out;
  };

  // Capture at the first quiescent edge at or past cycle 1. The run must
  // finish exactly as if no snapshot was taken.
  SnapshotPlan capture;
  capture.capture = true;
  capture.checkpoint_at = 1;
  const MatrixResult captured = run(&capture);
  ASSERT_TRUE(captured.ok()) << captured.error;
  ASSERT_TRUE(capture.captured_ok)
      << "no quiescent edge found after cycle 1 for "
      << arch::arch_name(c.kind) << "/" << c.bench;
  EXPECT_GE(capture.captured_cycle, capture.checkpoint_at);
  EXPECT_FALSE(capture.captured.empty());
  expect_identical(baseline.result, captured.result, "capture run");

  // Restore into a fresh machine and finish: counter-identical.
  SnapshotPlan restore;
  restore.restore_from = &capture.captured;
  const MatrixResult restored = run(&restore);
  ASSERT_TRUE(restored.ok()) << restored.error;
  expect_identical(baseline.result, restored.result, "restored run");
}

std::vector<EquivCase> all_cases() {
  std::vector<EquivCase> cases;
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    for (const std::string& bench : workloads::bmla_names()) {
      cases.push_back({kind, bench});
    }
  }
  // One kind per machine family without a prepared input.
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc,
        arch::ArchKind::kVws, arch::ArchKind::kMulticore}) {
    cases.push_back({kind, "nbayes", /*unprepared=*/true});
  }
  return cases;
}

std::string equiv_name(const ::testing::TestParamInfo<EquivCase>& info) {
  std::string name = std::string(arch::arch_name(info.param.kind)) + "_" +
                     info.param.bench +
                     (info.param.unprepared ? "_unprepared" : "");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllArchsAllBenches, SnapshotEquivalence,
                         ::testing::ValuesIn(all_cases()), equiv_name);

// --- Trace suffix equivalence ---

std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(SnapshotTrace, RestoredTimelineIsExactSuffix) {
  const MatrixJob job{arch::ArchKind::kMillipede, "nbayes", small_options(),
                      ""};
  const PreparedJobPtr prepared = prepare_job(job);
  trace::TraceConfig tcfg;
  tcfg.interval_cycles = 64;

  trace::TraceSession full_session(tcfg);
  const arch::RunResult full =
      arch::run_arch(job.kind, job.options.cfg, prepared->workload,
                     job.options.seed, &full_session, &prepared->input);
  ASSERT_EQ(full.verification, "");

  SnapshotPlan capture;
  capture.capture = true;
  capture.checkpoint_at = 300;  // past a few interval samples
  trace::TraceSession capture_session(tcfg);
  arch::run_arch(job.kind, job.options.cfg, prepared->workload,
                 job.options.seed, &capture_session, &prepared->input,
                 &capture);
  ASSERT_TRUE(capture.captured_ok);

  SnapshotPlan restore;
  restore.restore_from = &capture.captured;
  trace::TraceSession restored_session(tcfg);
  const arch::RunResult restored =
      arch::run_arch(job.kind, job.options.cfg, prepared->workload,
                     job.options.seed, &restored_session, &prepared->input,
                     &restore);
  ASSERT_EQ(restored.verification, "");

  const std::vector<std::string> full_csv =
      csv_lines(full_session.interval_csv());
  const std::vector<std::string> restored_csv =
      csv_lines(restored_session.interval_csv());
  ASSERT_GE(full_csv.size(), restored_csv.size());
  ASSERT_GE(restored_csv.size(), 2u) << "restored run sampled no rows";
  EXPECT_EQ(full_csv.front(), restored_csv.front()) << "header mismatch";
  // Every restored row must equal the corresponding tail row of the full
  // run: same sample cycles, same counter deltas.
  const std::size_t offset = full_csv.size() - restored_csv.size();
  for (std::size_t i = 1; i < restored_csv.size(); ++i) {
    EXPECT_EQ(restored_csv[i], full_csv[offset + i]) << "row " << i;
  }
}

// --- Cross-machine rejection ---

TEST(SnapshotRestore, RejectsWrongArchitecture) {
  const MatrixJob job{arch::ArchKind::kMillipede, "count", small_options(),
                      ""};
  PrepareCache cache;
  SnapshotPlan capture;
  capture.capture = true;
  capture.checkpoint_at = 1;
  const MatrixResult captured = run_job(job, &cache, nullptr, &capture);
  ASSERT_TRUE(captured.ok()) << captured.error;
  ASSERT_TRUE(capture.captured_ok);

  MatrixJob other = job;
  other.kind = arch::ArchKind::kSsmc;
  SnapshotPlan restore;
  restore.restore_from = &capture.captured;
  const MatrixResult rejected = run_job(other, &cache, nullptr, &restore);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error.find("snapshot"), std::string::npos)
      << rejected.error;
}

// --- DRAM hierarchy + refresh state across checkpoint/restore ---

TEST(SnapshotDram, MidRefreshDebtRestoreIsCounterIdentical) {
  // The acceptance bar for snapshot format v2: capture while rank refresh
  // cursors are mid-interval and debt may be outstanding, restore into a
  // fresh machine, and land counter-identical — including dram.refreshes
  // and dram.refresh_stall_ps. An aggressive tREFI keeps refresh state hot
  // at whatever quiescent edge the capture lands on, and the full
  // hierarchy (2 channels x 2 ranks, sub-row striping, idle/hit-capped
  // open policy) exercises every new snapshot section.
  SuiteOptions o = small_options();
  o.cfg.dram.channels = 2;
  o.cfg.dram.ranks = 2;
  o.cfg.dram.mapping = "row:rank:bank:channel:col";
  o.cfg.dram.page_policy = "open:idle=64:hits=8";
  o.cfg.dram.refresh = "on:trefi=40:trfc=8:postpone=4";
  const MatrixJob job{arch::ArchKind::kMillipede, "nbayes", o, ""};
  PrepareCache cache;

  const MatrixResult baseline = run_job(job, &cache);
  ASSERT_TRUE(baseline.ok()) << baseline.error;
  ASSERT_GT(baseline.result.stats.at("dram.refreshes"), 0u);

  SnapshotPlan capture;
  capture.capture = true;
  capture.checkpoint_at = 200;  // well into the refresh cadence
  const MatrixResult captured = run_job(job, &cache, nullptr, &capture);
  ASSERT_TRUE(captured.ok()) << captured.error;
  ASSERT_TRUE(capture.captured_ok);
  expect_identical(baseline.result, captured.result, "capture run");

  SnapshotPlan restore;
  restore.restore_from = &capture.captured;
  const MatrixResult restored = run_job(job, &cache, nullptr, &restore);
  ASSERT_TRUE(restored.ok()) << restored.error;
  expect_identical(baseline.result, restored.result, "restored run");
}

TEST(SnapshotDram, ForkKeySplitsOnEveryDramAxis) {
  const MatrixJob base{arch::ArchKind::kMillipede, "count", small_options(),
                       ""};
  MatrixJob changed = base;
  changed.options.cfg.dram.channels = 2;
  EXPECT_FALSE(fork_compatible(base, changed));
  changed = base;
  changed.options.cfg.dram.ranks = 2;
  EXPECT_FALSE(fork_compatible(base, changed));
  changed = base;
  changed.options.cfg.dram.mapping = "row:rank:bank:channel:col";
  EXPECT_FALSE(fork_compatible(base, changed));
  changed = base;
  changed.options.cfg.dram.page_policy = "closed";
  EXPECT_FALSE(fork_compatible(base, changed));
  changed = base;
  changed.options.cfg.dram.refresh = "on";
  EXPECT_FALSE(fork_compatible(base, changed));
}

// --- Warm-snapshot forking (mlpsweep --fork-at) ---

TEST(Fork, KeyIgnoresFaultRatesButNotTheInjectorBit) {
  MatrixJob a{arch::ArchKind::kMillipede, "count", small_options(), ""};
  MatrixJob b = a;
  b.options.cfg.dram.fault.bit_flip_rate = 1e-12;
  b.options.cfg.dram.fault.delay_rate = 0.25;
  b.options.cfg.dram.fault.drop_rate = 0.01;
  // Rates alone don't split the group...
  a.options.cfg.dram.fault.bit_flip_rate = 1e-15;
  EXPECT_TRUE(fork_compatible(a, b));
  // ...but injector presence does (the snapshot records the draw cursor),
  a.options.cfg.dram.fault.bit_flip_rate = 0.0;
  EXPECT_FALSE(fork_compatible(a, b));
  // ...and so does any other knob.
  a.options.cfg.dram.fault.bit_flip_rate = 1e-15;
  a.options.cfg.millipede.pf_entries = 8;
  EXPECT_FALSE(fork_compatible(a, b));
  a = b;
  a.kind = arch::ArchKind::kSsmc;
  EXPECT_FALSE(fork_compatible(a, b));
  a = b;
  a.options.seed = 2;
  EXPECT_FALSE(fork_compatible(a, b));
}

TEST(Fork, ForkedFaultSweepIsByteIdenticalAndSavesWarmup) {
  // A fault-rate grid over one (arch, bench): three rates tiny enough that
  // no draw fires during warmup (forkable) plus one hot delay rate whose
  // dirty draw stream must force a full rerun through the unsafe path.
  const double kRates[] = {1e-15, 2e-15, 3e-15, 0.5};
  std::vector<MatrixJob> jobs;
  for (const double rate : kRates) {
    MatrixJob job{arch::ArchKind::kMillipede, "nbayes", small_options(), ""};
    if (rate >= 0.5) {
      job.options.cfg.dram.fault.delay_rate = rate;
    } else {
      job.options.cfg.dram.fault.bit_flip_rate = rate;
    }
    jobs.push_back(job);
  }

  PrepareCache plain_cache, fork_cache;
  const std::vector<MatrixResult> plain = run_matrix(jobs, 2, &plain_cache);
  ForkStats stats;
  const std::vector<MatrixResult> forked =
      run_matrix_forked(jobs, /*fork_at=*/200, /*threads=*/2, &fork_cache,
                        &stats);

  ASSERT_EQ(plain.size(), forked.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(plain[i].ok()) << plain[i].error;
    ASSERT_TRUE(forked[i].ok()) << forked[i].error;
    expect_identical(plain[i].result, forked[i].result,
                     "point " + std::to_string(i));
  }
  EXPECT_EQ(stats.groups, 1u);
  // Two of the three members restore from the warm blob; the hot-delay
  // point's draw stream is dirty under its own config, so it reruns.
  EXPECT_EQ(stats.forked_points, 2u);
  EXPECT_EQ(stats.unsafe_points, 1u);
  EXPECT_GE(stats.warmup_cycles_saved, 2 * 200u);
}

TEST(Fork, SerialAndParallelForkedRunsMatch) {
  std::vector<MatrixJob> jobs;
  for (const double rate : {1e-15, 2e-15, 3e-15, 4e-15}) {
    MatrixJob job{arch::ArchKind::kSsmc, "count", small_options(), ""};
    job.options.cfg.dram.fault.bit_flip_rate = rate;
    jobs.push_back(job);
  }
  const std::vector<MatrixResult> serial =
      run_matrix_forked(jobs, 100, /*threads=*/1);
  const std::vector<MatrixResult> parallel =
      run_matrix_forked(jobs, 100, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    expect_identical(serial[i].result, parallel[i].result,
                     "point " + std::to_string(i));
  }
}

// --- Snapshot cache (mlpserved snapshot/restore verbs) ---

TEST(SnapshotCacheTest, LruEvictsOldestAndSharesEntries) {
  SnapshotCache cache(/*max_entries=*/2);
  EXPECT_EQ(cache.get("a"), nullptr);
  cache.put("a", "blob-a", 100);
  cache.put("b", "blob-b", 200);
  const SnapshotCache::EntryPtr a = cache.get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->blob, "blob-a");
  EXPECT_EQ(a->captured_cycle, 100u);

  // "b" is now least-recently used; inserting "c" evicts it.
  cache.put("c", "blob-c", 300);
  EXPECT_EQ(cache.get("b"), nullptr);
  ASSERT_NE(cache.get("a"), nullptr);
  ASSERT_NE(cache.get("c"), nullptr);

  // A held entry survives its own eviction (shared ownership).
  cache.put("d", std::string(16, 'd'), 400);  // evicts "a"
  EXPECT_EQ(a->blob, "blob-a");
  EXPECT_EQ(cache.get("a"), nullptr);

  const SnapshotCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.blob_bytes, std::string("blob-c").size() + 16);

  // Re-putting an existing key replaces in place without eviction.
  cache.put("c", "blob-c2", 301);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.get("c")->blob, "blob-c2");
}

}  // namespace
}  // namespace mlp::sim
