#pragma once
// Benchmark-harness conveniences: consistent workload sizing, verified runs
// (a run whose reduced result does not match the golden reference aborts the
// harness — bad timing models must not produce "results"), and the parallel
// simulation matrix: every (architecture, benchmark, config) job is a fully
// isolated simulation, so `run_matrix` executes them concurrently and still
// returns bit-identical results for any thread count.

#include <string>
#include <vector>

#include "arch/system.hpp"

namespace mlp::sim {

/// Default data volume per benchmark, in DRAM rows. Sizing is by DATA
/// VOLUME, not record count: each benchmark gets enough records to fill this
/// many rows, so light 1-word records (count) see as many rows — and as much
/// rate-matching history — as heavy 17-word ones (gda). The paper argues
/// (Section V) that BMLAs are behaviourally stationary, so modest inputs
/// reach the same steady state as its 128 MB runs; the ablation_input_size
/// bench demonstrates this. Override per run via SuiteOptions::rows (the
/// benches and tools expose it as --rows).
inline constexpr u64 kDefaultRows = 192;

struct SuiteOptions {
  u64 records = 0;        ///< absolute record count; 0 = size by `rows`
  u64 rows = kDefaultRows;  ///< data volume in DRAM rows when records == 0
  u64 seed = 1;
  /// Section VI-A ablation: MapReduce-expressible software barriers at
  /// record granularity instead of hardware flow control.
  bool record_barrier = false;
  /// Observability: when enabled() the job runs with an attached
  /// TraceSession and run_job writes the per-job trace files (Chrome JSON /
  /// interval CSV / binary ring) under trace.dir. Files are written for
  /// failed runs too (partial traces are precisely the post-mortem case).
  trace::TraceConfig trace;
  MachineConfig cfg = MachineConfig::paper_defaults();
};

/// Records giving `rows` DRAM rows of data for a benchmark.
u64 records_for(const std::string& bench, const MachineConfig& cfg,
                u64 rows = kDefaultRows);

/// One independent simulation in a matrix: an (architecture, benchmark)
/// pair under some options. `tag` is an arbitrary caller label (e.g. the
/// sweep point) carried through to the result untouched.
struct MatrixJob {
  arch::ArchKind kind = arch::ArchKind::kMillipede;
  std::string bench;
  SuiteOptions options;
  std::string tag;
};

struct MatrixResult {
  MatrixJob job;
  arch::RunResult result;
  std::string error;  ///< empty iff the run completed and verified
  /// Multi-line machine-state dump for SimError failures (watchdog trips,
  /// uncorrectable memory faults); empty otherwise.
  std::string diagnostic;
  /// Paths of the trace files run_job wrote for this job (empty when the
  /// job's SuiteOptions::trace is disabled). Deterministically named from
  /// (architecture, benchmark, tag), so a matrix of unique jobs never
  /// collides regardless of the pool's thread count.
  std::vector<std::string> trace_files;

  bool ok() const { return error.empty(); }
};

/// Deterministic per-job trace file stem: "<arch>-<bench>" plus the
/// sanitized tag when present (e.g. "millipede-nbayes-c32-pf16"). Exposed so
/// tools and tests can predict run_job's output paths.
std::string trace_basename(const MatrixJob& job);

class PrepareCache;  // sim/prepare.hpp — memoized job preparation

/// Execute one job, collecting failures (unknown benchmark, bad
/// configuration, watchdog trip, uncorrectable memory fault, verification
/// mismatch) into MatrixResult::error instead of aborting. Preparation
/// (kernel assembly, record generation, initial DramImage, golden reference)
/// goes through `cache` when given, so jobs with equivalent preparation keys
/// share the artifacts; results are bit-identical either way. `cache_hit`
/// (optional) reports whether this job's artifacts were already warm.
/// `snapshot` (optional) threads a checkpoint capture/restore plan into the
/// run (sim/snapshot.hpp) — the mlpsweep --fork-at machinery and the
/// mlpserved snapshot verbs are built on it.
MatrixResult run_job(const MatrixJob& job, PrepareCache* cache = nullptr,
                     bool* cache_hit = nullptr,
                     SnapshotPlan* snapshot = nullptr);

struct ForkStats;  // sim/fork.hpp — what warm-snapshot forking saved

/// Execute `jobs` on a pool of `threads` workers (0 = one per hardware
/// thread) and return results in submission order. Jobs share no mutable
/// state (the prepare cache hands out immutable artifacts), so any thread
/// count yields identical results; `threads` only changes wall-clock time.
///
/// A nonzero `fork_at` forks warm snapshots (sim/fork.hpp): the leader of
/// each multi-point fork group captures at the first quiescent cycle >=
/// fork_at, and its members restore from that blob once it exists, or run
/// in full when the restore would not be provably identical. Results stay
/// byte-identical to an unforked run; `fork_stats` (optional) reports what
/// forking saved.
std::vector<MatrixResult> run_matrix(const std::vector<MatrixJob>& jobs,
                                     u32 threads = 0,
                                     PrepareCache* cache = nullptr,
                                     u64 fork_at = 0,
                                     ForkStats* fork_stats = nullptr);

/// Run one (architecture, benchmark) pair and abort if verification fails.
arch::RunResult run_verified(arch::ArchKind kind, const std::string& bench,
                             const SuiteOptions& options);

/// Geometric mean (the paper's summary statistic for Figs. 3/4).
double geomean(const std::vector<double>& values);

}  // namespace mlp::sim
