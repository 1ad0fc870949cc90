#pragma once
// Shared pieces of the perfbench workloads: run options, the outcome a
// workload hands back to main(), and the per-layer counter roll-up that both
// the grids (from RunResult::stats) and the service (from result stats-JSON)
// feed.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  mlp::u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
  unsigned nproc = 1;
};

/// What one workload run produced. Metrics are (value, unit) by name; notes
/// are human-readable detail lines (sample counts, ratio bases, digests)
/// printed before the result line.
struct Outcome {
  bool correct = true;
  mlp::u64 attempted = 0;
  mlp::u64 failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  /// Recorded with the result: pool, worker and connection counts, sizes.
  std::map<std::string, std::string> config;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Sets a ratio metric and notes its base.
  void set_ratio(const std::string& name, const Ratio& r);
  /// Sets a percentile metric and notes which percentile over how many
  /// samples it is.
  void set_percentile(const std::string& name, const Percentile& p);
  void fail(const std::string& why) {
    correct = false;
    note("CHECK FAILED: " + why);
  }
};

/// The counters of one simulated run that the per-layer metrics read.
struct RunCounters {
  std::map<std::string, mlp::u64> stats;
  mlp::u64 thread_instructions = 0;
  mlp::u64 compute_cycles = 0;
  mlp::u32 warp_width = 0;
};

/// Sums the core, kernel, mem, millipede and gpgpu counters over `runs` into
/// per-layer metrics; `run_ns` (host time inside run_job, summed the same
/// way) turns them into ns per instruction and ns per compute edge.
void set_layer_counters(const std::vector<RunCounters>& runs, double run_ns,
                        Outcome* out);

/// Each layer's self time over `spans`, divided by `repeats` (sweeps or
/// set-ups), reported as self_ms.<layer>. Span names map to layers by prefix.
void set_self_times(const std::vector<Span>& spans, double repeats,
                    Outcome* out);

/// Writes a span file of the traced run, noting its path (or failing the
/// run's checks when it cannot be written).
void write_text_file(const std::string& path, const std::string& text,
                     Outcome* out);

Outcome run_grid(const Options& opt);
Outcome run_service(const Options& opt);

}  // namespace perfbench
