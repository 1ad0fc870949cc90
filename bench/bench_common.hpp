#pragma once
// Shared helpers for the figure/table reproduction binaries: the harness
// flags every binary accepts (--jobs for parallel simulation, --rows for
// data volume), grid execution over sim::run_matrix, consistent benchmark
// ordering (the paper sorts its x-axis by instructions per input word),
// normalization, and table emission.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/pool.hpp"
#include "sim/runner.hpp"
#include "tools/argparse.hpp"

namespace mlp::bench {

using arch::ArchKind;
using arch::RunResult;

/// Results of one architecture across the whole suite, keyed by benchmark.
using SuiteResults = std::map<std::string, RunResult>;

/// Harness flags common to every reproduction binary.
struct HarnessOptions {
  u32 jobs = 0;                  ///< concurrent simulations; 0 = all threads
  u64 rows = sim::kDefaultRows;  ///< data volume per benchmark in DRAM rows
};

inline HarnessOptions parse_harness(int argc, char** argv) {
  HarnessOptions options;
  tools::ArgCursor args(argc, argv);
  while (args.next()) {
    if (args.is("--jobs") || args.is("-j")) {
      options.jobs = tools::parse_u32("--jobs", args.value(), /*min=*/1);
    } else if (args.is("--rows")) {
      options.rows = tools::parse_u64("--rows", args.value(), /*min=*/1);
    } else if (args.is("--help") || args.is("-h")) {
      std::printf(
          "  --jobs N   concurrent simulations (default: all hardware "
          "threads)\n"
          "  --rows N   data volume per benchmark in DRAM rows (default "
          "%llu)\n",
          static_cast<unsigned long long>(sim::kDefaultRows));
      std::exit(0);
    } else {
      std::exit(tools::unknown_flag(args.flag()));
    }
  }
  return options;
}

/// Append one (tag, architecture) full-suite sweep to a job grid.
inline void add_suite(std::vector<sim::MatrixJob>* jobs,
                      const std::string& tag, ArchKind kind,
                      const sim::SuiteOptions& options) {
  for (const std::string& name : workloads::bmla_names()) {
    jobs->push_back({kind, name, options, tag});
  }
}

/// Run a job list in parallel and return its results in submission order.
/// Any failure is fatal: reproduction binaries never print unverified numbers.
inline std::vector<RunResult> run_jobs(const std::vector<sim::MatrixJob>& jobs,
                                       const HarnessOptions& harness) {
  std::vector<RunResult> results;
  results.reserve(jobs.size());
  bool failed = false;
  for (sim::MatrixResult& r : sim::run_matrix(jobs, harness.jobs)) {
    if (!r.ok()) {
      std::fprintf(stderr, "RUN FAILED %s/%s: %s\n",
                   arch::arch_name(r.job.kind), r.job.bench.c_str(),
                   r.error.c_str());
      failed = true;
      continue;
    }
    results.push_back(std::move(r.result));
  }
  if (failed) std::exit(1);
  return results;
}

/// Run a job grid in parallel and group the results by tag.
inline std::map<std::string, SuiteResults> run_grid(
    const std::vector<sim::MatrixJob>& jobs, const HarnessOptions& harness) {
  std::vector<RunResult> results = run_jobs(jobs, harness);
  std::map<std::string, SuiteResults> grid;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    grid[jobs[i].tag].emplace(jobs[i].bench, std::move(results[i]));
  }
  return grid;
}

/// Benchmark names sorted by measured instructions per input word (the
/// paper's Fig. 3/4 x-axis ordering, Table IV top-to-bottom).
inline std::vector<std::string> sorted_benches(const SuiteResults& any) {
  std::vector<std::string> names = workloads::bmla_names();
  std::sort(names.begin(), names.end(),
            [&](const std::string& a, const std::string& b) {
              return any.at(a).insts_per_word < any.at(b).insts_per_word;
            });
  return names;
}

inline void emit(const Table& table) {
  std::printf("%s\n", table.to_string().c_str());
  std::printf("CSV:\n%s\n", table.to_csv().c_str());
}

inline void print_header(const char* what, const HarnessOptions& harness) {
  std::printf("=================================================================\n");
  std::printf("Millipede reproduction — %s\n", what);
  if (harness.jobs == 1) {
    std::printf("data volume per benchmark: %llu DRAM rows (--rows), "
                "serial (--jobs)\n",
                static_cast<unsigned long long>(harness.rows));
  } else {
    std::printf("data volume per benchmark: %llu DRAM rows (--rows), "
                "%u parallel jobs (--jobs)\n",
                static_cast<unsigned long long>(harness.rows),
                harness.jobs == 0 ? sim::ThreadPool::default_threads()
                                  : harness.jobs);
  }
  std::printf("=================================================================\n\n");
  std::fflush(stdout);
}

}  // namespace mlp::bench
