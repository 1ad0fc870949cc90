// Differential-equivalence suite for the decoded-block interpreter: every
// (architecture, benchmark) pair of the evaluation matrix runs twice — with
// the per-opcode handlers (the default) and with the reference step() as
// every instruction's handler (`--no-block-cache`) — and the two runs must
// be indistinguishable in every observable artifact:
//
//   * every registered counter (the full StatSet, decode.* included — the
//     accounting runs in both modes by design),
//   * every derived metric and the whole stats-JSON run document,
//   * every trace file, byte for byte (Chrome JSON + interval CSV).
//
// The handlers are a simulator-speed optimization; if any number moves, it
// is not an optimization but a model change, and this suite names the exact
// counter/file that drifted.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace mlp {
namespace {

namespace fs = std::filesystem;

constexpr u64 kRows = 24;

/// Every architecture: the corelet's straight and port paths (fixed-latency
/// and cached live state, the barrier-free and flow-control variants) and
/// the SM on both input paths and warp widths.
const arch::ArchKind kArches[] = {
    arch::ArchKind::kMillipede,
    arch::ArchKind::kMillipedeNoFlowControl,
    arch::ArchKind::kMillipedeNoRateMatch,
    arch::ArchKind::kSsmc,
    arch::ArchKind::kGpgpu,
    arch::ArchKind::kVws,
    arch::ArchKind::kVwsRow,
    arch::ArchKind::kMulticore,
};

/// One full 8x8 matrix with the block cache on or off, tracing into `dir`.
std::vector<sim::MatrixResult> run_mode(bool block_cache,
                                        const std::string& dir) {
  fs::create_directories(dir);
  std::vector<sim::MatrixJob> jobs;
  for (arch::ArchKind kind : kArches) {
    for (const std::string& bench : workloads::bmla_names()) {
      sim::MatrixJob job;
      job.kind = kind;
      job.bench = bench;
      job.options.rows = kRows;
      job.options.cfg.block_cache = block_cache;
      job.options.trace.chrome_json = true;
      job.options.trace.interval_cycles = 4096;
      job.options.trace.dir = dir;
      jobs.push_back(job);
    }
  }
  return sim::run_matrix(jobs, 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Replace every occurrence of `from` (a trace directory prefix) so the two
/// modes' stats-JSON documents become comparable despite distinct dirs.
std::string normalized(std::string text, const std::string& from) {
  for (size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos)) {
    text.replace(pos, from.size(), "<TRACE_DIR>");
  }
  return text;
}

TEST(Differential, BlockCacheOnOffIsObservationallyIdentical) {
  const fs::path root = fs::path(::testing::TempDir()) / "mlp_differential";
  const std::string dir_on = (root / "cache_on").string();
  const std::string dir_off = (root / "cache_off").string();
  const std::vector<sim::MatrixResult> on = run_mode(true, dir_on);
  const std::vector<sim::MatrixResult> off = run_mode(false, dir_off);
  const size_t points = std::size(kArches) * workloads::bmla_names().size();
  ASSERT_EQ(on.size(), points);
  ASSERT_EQ(off.size(), points);

  for (size_t i = 0; i < on.size(); ++i) {
    const sim::MatrixResult& a = on[i];
    const sim::MatrixResult& b = off[i];
    const std::string label =
        std::string(arch::arch_name(a.job.kind)) + "/" + a.job.bench;
    ASSERT_TRUE(a.ok()) << label << " (cache on): " << a.error;
    ASSERT_TRUE(b.ok()) << label << " (cache off): " << b.error;

    // Every registered counter, with a per-counter diff on mismatch.
    const std::map<std::string, u64> sa(a.result.stats.begin(),
                                        a.result.stats.end());
    const std::map<std::string, u64> sb(b.result.stats.begin(),
                                        b.result.stats.end());
    for (const auto& [name, value] : sa) {
      const auto it = sb.find(name);
      ASSERT_TRUE(it != sb.end()) << label << ": counter " << name
                                  << " only exists with the cache on";
      EXPECT_EQ(value, it->second)
          << label << ": counter " << name << " differs (cache on " << value
          << ", off " << it->second << ")";
    }
    EXPECT_EQ(sa.size(), sb.size()) << label << ": counter sets differ";

    // The whole stats-JSON run document (metrics included), modulo the
    // distinct trace directories.
    EXPECT_EQ(normalized(sim::stats_json_run(a), dir_on),
              normalized(sim::stats_json_run(b), dir_off))
        << label << ": stats-JSON run objects differ";

    // Trace files byte for byte, matched by basename.
    ASSERT_EQ(a.trace_files.size(), b.trace_files.size()) << label;
    std::map<std::string, std::string> by_name;
    for (const std::string& path : b.trace_files) {
      by_name[fs::path(path).filename().string()] = path;
    }
    for (const std::string& path : a.trace_files) {
      const std::string name = fs::path(path).filename().string();
      ASSERT_TRUE(by_name.count(name))
          << label << ": trace file " << name << " missing with cache off";
      EXPECT_EQ(read_file(path), read_file(by_name[name]))
          << label << ": trace file " << name << " differs";
    }
  }
  fs::remove_all(root);
}

TEST(Differential, BlockCacheCountersAreLive) {
  // Guard against the equivalence holding vacuously: a compute-heavy run
  // must actually exercise the cache (misses bounded by the block count,
  // hits and batched lanes dominating).
  sim::MatrixJob job;
  job.kind = arch::ArchKind::kMillipede;
  job.bench = "kmeans";
  job.options.rows = kRows;
  const sim::MatrixResult run = sim::run_job(job);
  ASSERT_TRUE(run.ok()) << run.error;
  const auto stat = [&](const char* key) {
    const auto it = run.result.stats.find(key);
    return it == run.result.stats.end() ? u64{0} : it->second;
  };
  const u64 misses = stat("decode.block_misses");
  const u64 hits = stat("decode.block_hits");
  EXPECT_GT(misses, 0u);
  EXPECT_LT(misses, 64u) << "misses must be bounded by the block count";
  EXPECT_GT(hits, 1000u * misses) << "the decoded stream must be reused";
  EXPECT_GT(stat("decode.batched_lanes"), 0u);
}

}  // namespace
}  // namespace mlp
