// Resilience-layer tests: the forward-progress watchdog must convert
// genuine livelocks into structured, diagnosable per-job errors within a
// bounded wall-clock time; seeded fault injection must corrupt results
// without ECC, be corrected (and counted) with ECC, and degrade into a
// per-job error when the retry budget is exhausted — all deterministically
// for any --jobs value.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/runner.hpp"

namespace mlp::sim {
namespace {

MatrixJob job(arch::ArchKind kind, const std::string& bench,
              const SuiteOptions& options) {
  return {kind, bench, options, /*tag=*/""};
}

// --- Watchdog ---

/// A prefetch window smaller than pca's 16-row record footprint, with the
/// fail-fast bypassed and flow control on, is a true livelock: every
/// context blocks on a row beyond the window, the head entry can never
/// saturate its DF count, and DRAM goes idle.
SuiteOptions deadlock_options() {
  SuiteOptions options;
  options.records = 2048;
  options.cfg.millipede.pf_entries = 8;  // < pca's 16 fields
  options.cfg.millipede.unsafe_skip_window_check = true;
  options.cfg.watchdog.stall_cycles = 200'000;  // trip fast in tests
  return options;
}

TEST(Watchdog, FlowControlDeadlockTripsStallDetector) {
  const auto start = std::chrono::steady_clock::now();
  const MatrixResult r =
      run_job(job(arch::ArchKind::kMillipede, "pca", deadlock_options()));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("livelock"), std::string::npos) << r.error;
  // The diagnostic dump must actually describe the stuck machine.
  ASSERT_FALSE(r.diagnostic.empty());
  EXPECT_NE(r.diagnostic.find("corelet"), std::string::npos) << r.diagnostic;
  EXPECT_NE(r.diagnostic.find("occupancy"), std::string::npos)
      << r.diagnostic;
  // Structured failure, not a hang: well under the suite budget.
  EXPECT_LT(elapsed_s, 60.0);
}

TEST(Watchdog, DeadlockedPointDoesNotPoisonTheMatrix) {
  SuiteOptions good;
  good.records = 2048;
  std::vector<MatrixJob> jobs = {
      job(arch::ArchKind::kMillipede, "count", good),
      job(arch::ArchKind::kMillipede, "pca", deadlock_options()),
      job(arch::ArchKind::kMillipede, "variance", good),
  };
  // Remaining jobs must complete bit-identically for any thread count.
  const std::vector<MatrixResult> serial = run_matrix(jobs, 1);
  const std::vector<MatrixResult> parallel = run_matrix(jobs, 3);
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].error, parallel[i].error) << i;
    EXPECT_EQ(serial[i].result.runtime_ps, parallel[i].result.runtime_ps)
        << i;
  }
  EXPECT_TRUE(serial[0].ok()) << serial[0].error;
  EXPECT_FALSE(serial[1].ok());
  EXPECT_FALSE(serial[1].diagnostic.empty());
  EXPECT_TRUE(serial[2].ok()) << serial[2].error;
}

TEST(Watchdog, CycleCeilingBoundsAnyRun) {
  SuiteOptions options;
  options.records = 65536;
  options.cfg.watchdog.max_cycles = 5000;  // far below the run's needs
  const MatrixResult r =
      run_job(job(arch::ArchKind::kSsmc, "count", options));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("ceiling"), std::string::npos) << r.error;
}

// --- Fault injection + ECC ---

TEST(FaultInjection, UnprotectedBitFlipsAreCaughtByVerification) {
  SuiteOptions options;
  options.records = 65536;
  options.cfg.dram.fault.bit_flip_rate = 1e-4;  // ~200 flips over the input
  const MatrixResult r =
      run_job(job(arch::ArchKind::kMillipede, "count", options));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("verification"), std::string::npos) << r.error;
  EXPECT_GT(r.result.stats.at("dram.silent_corruptions"), 0u);
}

TEST(FaultInjection, UnprotectedFlipsInIndexWordsAreTypedRunErrors) {
  // sample and nbayes index their live state (and their host references)
  // with input words; a flipped word becomes an out-of-range index. The
  // run must end in a typed per-run error: a local-store access outside
  // the store, or a verification failure. Never a crash.
  using arch::ArchKind;
  for (const ArchKind kind : {ArchKind::kMillipede, ArchKind::kSsmc,
                              ArchKind::kGpgpu, ArchKind::kMulticore}) {
    for (const char* bench : {"sample", "nbayes"}) {
      for (const u64 seed : {1, 2, 3}) {
        SuiteOptions options;
        options.rows = 24;
        options.cfg.dram.fault.bit_flip_rate = 1e-5;
        options.cfg.dram.fault.seed = seed;
        const MatrixResult r = run_job(job(kind, bench, options));
        const std::string label = std::string(arch::arch_name(kind)) + "/" +
                                  bench + " seed " + std::to_string(seed);
        EXPECT_FALSE(r.ok()) << label;
        EXPECT_TRUE(r.error.rfind("local-access: ", 0) == 0 ||
                    r.error.rfind("verification", 0) == 0)
            << label << ": " << r.error;
      }
    }
  }
}

TEST(FaultInjection, EccCorrectsEveryArchitectureAtCorrectableRates) {
  using arch::ArchKind;
  for (const ArchKind kind :
       {ArchKind::kMillipede, ArchKind::kMillipedeNoFlowControl,
        ArchKind::kMillipedeNoRateMatch, ArchKind::kSsmc, ArchKind::kGpgpu,
        ArchKind::kVws, ArchKind::kVwsRow, ArchKind::kMulticore}) {
    SuiteOptions options;
    options.records = 16384;
    options.cfg.dram.fault.bit_flip_rate = 1e-4;
    options.cfg.dram.fault.ecc = true;
    const MatrixResult r = run_job(job(kind, "count", options));
    EXPECT_TRUE(r.ok()) << arch::arch_name(kind) << ": " << r.error;
    EXPECT_GT(r.result.stats.at("dram.ecc_corrected"), 0u)
        << arch::arch_name(kind);
  }
}

TEST(FaultInjection, RetryBudgetExhaustionIsARecoverableJobError) {
  SuiteOptions options;
  options.records = 2048;
  options.cfg.dram.fault.drop_rate = 0.9;
  options.cfg.dram.fault.max_retries = 2;
  const MatrixResult r =
      run_job(job(arch::ArchKind::kMillipede, "count", options));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("memory-fault"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("retry budget"), std::string::npos) << r.error;
  EXPECT_FALSE(r.diagnostic.empty());
}

TEST(FaultInjection, DelayedResponsesSlowTheRunButStillVerify) {
  SuiteOptions base;
  base.records = 16384;
  SuiteOptions delayed = base;
  delayed.cfg.dram.fault.delay_rate = 0.5;
  const MatrixResult clean =
      run_job(job(arch::ArchKind::kMillipedeNoRateMatch, "count", base));
  const MatrixResult slow =
      run_job(job(arch::ArchKind::kMillipedeNoRateMatch, "count", delayed));
  ASSERT_TRUE(clean.ok()) << clean.error;
  ASSERT_TRUE(slow.ok()) << slow.error;
  EXPECT_GT(slow.result.runtime_ps, clean.result.runtime_ps);
}

TEST(FaultInjection, DrawsAreDeterministicPerSeed) {
  SuiteOptions options;
  options.records = 16384;
  options.cfg.dram.fault.bit_flip_rate = 1e-4;
  options.cfg.dram.fault.ecc = true;
  const MatrixJob point = job(arch::ArchKind::kMillipede, "count", options);
  const MatrixResult a = run_job(point);
  const MatrixResult b = run_job(point);
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(a.result.runtime_ps, b.result.runtime_ps);
  EXPECT_EQ(a.result.stats.at("dram.ecc_corrected"),
            b.result.stats.at("dram.ecc_corrected"));

  SuiteOptions reseeded = options;
  reseeded.cfg.dram.fault.seed = 99;
  const MatrixResult c =
      run_job(job(arch::ArchKind::kMillipede, "count", reseeded));
  ASSERT_TRUE(c.ok()) << c.error;
  EXPECT_NE(a.result.stats.at("dram.ecc_corrected"),
            c.result.stats.at("dram.ecc_corrected"));
}

}  // namespace
}  // namespace mlp::sim
