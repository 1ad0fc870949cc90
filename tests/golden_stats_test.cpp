// Golden-counter regression suite: every (architecture, benchmark) pair of
// the 8x8 arch-variant x BMLA matrix is run at a fixed small input (rows=24,
// seed=1) and its FULL StatSet is compared counter-by-counter against a
// checked-in JSON snapshot, together with the run metrics stats-JSON prints
// beside the counters (runtime, cycles, clock, warp width and the three
// energy terms, doubles pinned bit-exactly via %.17g). Any change to the
// timing model, the energy model, the workloads, or the memory system that
// moves even one value fails here with a readable per-value diff —
// intentional changes regenerate the snapshots with:
//
//   UPDATE_GOLDEN=1 ctest -R GoldenStats
//
// The goldens live in tests/golden/ (path baked in via MLP_GOLDEN_DIR).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "trace/json.hpp"

namespace mlp {
namespace {

constexpr u64 kGoldenRows = 24;
constexpr u64 kGoldenSeed = 1;

constexpr std::size_t kMatrixPoints = 64;  // 8 architectures x 8 benchmarks

/// Counters plus the run metrics, as stored in one golden file.
struct Golden {
  std::map<std::string, u64> counters;
  std::map<std::string, double> metrics;
};

/// The run metrics stats_json_run prints that the counters do not already
/// determine. Integral ones are exact as doubles (all far below 2^53).
std::map<std::string, double> run_metrics(const arch::RunResult& r) {
  return {
      {"runtime_ps", static_cast<double>(r.runtime_ps)},
      {"compute_cycles", static_cast<double>(r.compute_cycles)},
      {"final_clock_mhz", r.final_clock_mhz},
      {"warp_width", static_cast<double>(r.warp_width)},
      {"core_j", r.energy.core_j},
      {"dram_j", r.energy.dram_j},
      {"leak_j", r.energy.leak_j},
  };
}

Golden measured_golden(const arch::RunResult& r) {
  return {std::map<std::string, u64>(r.stats.begin(), r.stats.end()),
          run_metrics(r)};
}

bool update_mode() {
  const char* env = std::getenv("UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

std::string golden_path(const std::string& arch, const std::string& bench) {
  return std::string(MLP_GOLDEN_DIR) + "/" + arch + "-" + bench + ".json";
}

std::string render_golden(const std::string& arch, const std::string& bench,
                          const Golden& golden) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("arch");
  w.value(arch);
  w.key("bench");
  w.value(bench);
  w.key("rows");
  w.value(kGoldenRows);
  w.key("seed");
  w.value(kGoldenSeed);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : golden.counters) {
    w.newline();
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.newline();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : golden.metrics) {
    w.newline();
    w.key(name);
    w.value(value);  // %.17g: parses back to the identical double
  }
  w.end_object();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

Golden load_golden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (regenerate with UPDATE_GOLDEN=1)";
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  const trace::JsonValue doc = trace::json_parse(os.str());
  Golden golden;
  const trace::JsonValue* counters = doc.find("counters");
  const trace::JsonValue* metrics = doc.find("metrics");
  if (counters == nullptr || !counters->is_object() || metrics == nullptr ||
      !metrics->is_object()) {
    ADD_FAILURE() << "golden file " << path
                  << " lacks a counters or metrics object";
    return {};
  }
  for (const auto& [name, value] : counters->object) {
    golden.counters[name] = value.unsigned_integer;
  }
  for (const auto& [name, value] : metrics->object) {
    golden.metrics[name] = value.number;
  }
  return golden;
}

/// Per-counter diff; empty string iff the sets match exactly.
std::string diff_counters(const std::map<std::string, u64>& golden,
                          const std::map<std::string, u64>& measured) {
  std::ostringstream os;
  for (const auto& [name, value] : golden) {
    const auto it = measured.find(name);
    if (it == measured.end()) {
      os << "  counter disappeared: " << name << " (golden " << value
         << ")\n";
    } else if (it->second != value) {
      const i64 delta = static_cast<i64>(it->second) -
                        static_cast<i64>(value);
      os << "  " << name << ": golden " << value << ", measured "
         << it->second << " (" << (delta > 0 ? "+" : "") << delta << ")\n";
    }
  }
  for (const auto& [name, value] : measured) {
    if (golden.count(name) == 0) {
      os << "  new counter not in golden: " << name << " = " << value
         << "\n";
    }
  }
  return os.str();
}

/// Exact per-metric diff (doubles compared bit for bit); empty iff equal.
std::string diff_metrics(const std::map<std::string, double>& golden,
                         const std::map<std::string, double>& measured) {
  std::string out;
  char line[160];
  for (const auto& [name, value] : golden) {
    const auto it = measured.find(name);
    if (it == measured.end()) {
      out += "  metric disappeared: " + name + "\n";
    } else if (it->second != value) {
      std::snprintf(line, sizeof(line), "  %s: golden %.17g, measured %.17g\n",
                    name.c_str(), value, it->second);
      out += line;
    }
  }
  for (const auto& [name, value] : measured) {
    if (golden.count(name) == 0) {
      out += "  new metric not in golden: " + name + "\n";
    }
  }
  return out;
}

std::string diff_golden(const Golden& golden, const Golden& measured) {
  return diff_counters(golden.counters, measured.counters) +
         diff_metrics(golden.metrics, measured.metrics);
}

/// The whole 8x8 matrix in one parallel batch (each point is an isolated
/// deterministic simulation, so the pool only changes wall-clock time).
/// `block_cache` false re-runs the matrix with the reference step() as
/// every instruction's handler; the SAME goldens pin both modes.
std::vector<sim::MatrixResult> run_golden_matrix(bool block_cache = true) {
  std::vector<sim::MatrixJob> jobs;
  for (const arch::ArchKind kind : arch::all_arch_kinds()) {
    for (const std::string& bench : workloads::bmla_names()) {
      sim::MatrixJob job;
      job.kind = kind;
      job.bench = bench;
      job.tag = arch::arch_name(kind);  // the golden file stem's arch part
      job.options.rows = kGoldenRows;
      job.options.seed = kGoldenSeed;
      job.options.cfg.block_cache = block_cache;
      jobs.push_back(job);
    }
  }
  return sim::run_matrix(jobs, 0);
}

TEST(GoldenStats, FullMatrixMatchesSnapshots) {
  const std::vector<sim::MatrixResult> results = run_golden_matrix();
  ASSERT_EQ(results.size(), kMatrixPoints);
  bool updated = false;
  for (const sim::MatrixResult& run : results) {
    const std::string& arch = run.job.tag;
    const std::string& bench = run.job.bench;
    ASSERT_TRUE(run.ok()) << arch << "/" << bench << ": " << run.error;
    const Golden measured = measured_golden(run.result);
    const std::string path = golden_path(arch, bench);
    if (update_mode()) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << render_golden(arch, bench, measured);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      updated = true;
      continue;
    }
    const Golden golden = load_golden(path);
    if (golden.counters.empty()) continue;  // load already reported it
    const std::string diff = diff_golden(golden, measured);
    EXPECT_TRUE(diff.empty())
        << arch << "/" << bench << " drifted from " << path << ":\n"
        << diff << "  (intentional? regenerate with UPDATE_GOLDEN=1)";
  }
  if (updated) {
    GTEST_SKIP() << "golden snapshots regenerated; rerun without "
                    "UPDATE_GOLDEN to verify";
  }
}

TEST(GoldenStats, NoBlockCachePathMatchesSameSnapshots) {
  // The per-opcode handlers are a simulator-speed optimization: with the
  // reference interpreter in their place (--no-block-cache) every counter
  // must hit the SAME goldens, decode.* accounting included. Update mode only writes from
  // the cache-on matrix above, so this pass pins cache-off against it.
  if (update_mode()) {
    GTEST_SKIP() << "goldens regenerate from the cache-on matrix only";
  }
  const std::vector<sim::MatrixResult> results =
      run_golden_matrix(/*block_cache=*/false);
  ASSERT_EQ(results.size(), kMatrixPoints);
  for (const sim::MatrixResult& run : results) {
    const std::string& arch = run.job.tag;
    const std::string& bench = run.job.bench;
    ASSERT_TRUE(run.ok()) << arch << "/" << bench << ": " << run.error;
    const Golden golden = load_golden(golden_path(arch, bench));
    if (golden.counters.empty()) continue;  // load already reported it
    const std::string diff =
        diff_golden(golden, measured_golden(run.result));
    EXPECT_TRUE(diff.empty())
        << arch << "/" << bench
        << " with --no-block-cache drifted from the shared golden:\n"
        << diff;
  }
}

TEST(GoldenStats, DiffCatchesSingleCounterPerturbation) {
  // Negative control: the suite must flag a one-counter, off-by-one
  // perturbation of a real snapshot — otherwise it guards nothing.
  const std::map<std::string, u64> golden =
      load_golden(golden_path("millipede", "count")).counters;
  ASSERT_FALSE(golden.empty());
  std::map<std::string, u64> perturbed = golden;
  const std::string victim = "dram.row_misses";
  ASSERT_TRUE(perturbed.count(victim));
  perturbed[victim] += 1;
  const std::string diff = diff_counters(golden, perturbed);
  EXPECT_FALSE(diff.empty());
  EXPECT_NE(diff.find(victim), std::string::npos) << diff;
  EXPECT_NE(diff.find("(+1)"), std::string::npos) << diff;
  // And only the perturbed counter is reported.
  EXPECT_EQ(std::count(diff.begin(), diff.end(), '\n'), 1) << diff;
}

TEST(GoldenStats, DiffCatchesMissingAndNewCounters) {
  std::map<std::string, u64> golden = {{"a.x", 1}, {"b.y", 2}};
  std::map<std::string, u64> measured = {{"a.x", 1}, {"c.z", 3}};
  const std::string diff = diff_counters(golden, measured);
  EXPECT_NE(diff.find("counter disappeared: b.y"), std::string::npos);
  EXPECT_NE(diff.find("new counter not in golden: c.z"), std::string::npos);
  EXPECT_TRUE(diff_counters(golden, golden).empty());
}

TEST(GoldenStats, DiffCatchesOneUlpMetricDrift) {
  // Metrics are pinned bit for bit: one ulp of energy drift must show, and
  // the stored text must parse back to the very double that was written.
  const std::map<std::string, double> golden =
      load_golden(golden_path("vws", "count")).metrics;
  ASSERT_EQ(golden.size(), 7u);
  std::map<std::string, double> drifted = golden;
  drifted["core_j"] = std::nextafter(drifted["core_j"], 1.0);
  const std::string diff = diff_metrics(golden, drifted);
  EXPECT_NE(diff.find("core_j"), std::string::npos) << diff;
  EXPECT_EQ(std::count(diff.begin(), diff.end(), '\n'), 1) << diff;
  EXPECT_TRUE(diff_metrics(golden, golden).empty());
}

}  // namespace
}  // namespace mlp
