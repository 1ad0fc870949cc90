#include "sim/runner.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>

#include "common/error.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"

namespace mlp::sim {

namespace {

/// Tags come from arbitrary caller labels (sweep points); keep only
/// filesystem-safe characters so the trace path is valid on any platform.
std::string sanitize_component(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '.' || c == '-' || c == '_';
    out.push_back(safe ? c : '_');
  }
  return out;
}

/// Write one trace artifact; a filesystem failure becomes the job's error
/// (unless the run already failed — the simulation error is the headline).
void write_trace_file(const std::filesystem::path& path,
                      const std::string& data, MatrixResult* out) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  file.close();
  if (!file) {
    if (out->error.empty()) {
      out->error = "failed to write trace file: " + path.string();
    }
    return;
  }
  out->trace_files.push_back(path.string());
}

/// Export every enabled artifact of a finished (or aborted) session. Runs in
/// pool threads: paths are derived purely from the job, so concurrent jobs
/// never write the same file as long as (kind, bench, tag) tuples are unique.
void export_trace(const trace::TraceSession& session, MatrixResult* out) {
  namespace fs = std::filesystem;
  const trace::TraceConfig& cfg = session.config();
  std::error_code ec;
  fs::create_directories(cfg.dir, ec);
  if (ec) {
    if (out->error.empty()) {
      out->error = "failed to create trace dir " + cfg.dir + ": " +
                   ec.message();
    }
    return;
  }
  const fs::path dir(cfg.dir);
  const std::string base = trace_basename(out->job);
  if (cfg.chrome_json) {
    write_trace_file(dir / (base + ".trace.json"),
                     session.chrome_trace_json(), out);
  }
  if (cfg.interval_cycles > 0) {
    write_trace_file(dir / (base + ".timeline.csv"), session.interval_csv(),
                     out);
  }
  if (cfg.ring_entries > 0) {
    write_trace_file(dir / (base + ".ring.bin"), session.binary_blob(), out);
  }
}

}  // namespace

std::string trace_basename(const MatrixJob& job) {
  std::string base = std::string(arch::arch_name(job.kind)) + "-" + job.bench;
  if (!job.tag.empty()) base += "-" + sanitize_component(job.tag);
  return base;
}

u64 records_for(const std::string& bench, const MachineConfig& cfg,
                u64 rows) {
  // Probe the workload's record width, then size by data volume.
  workloads::WorkloadParams probe;
  probe.num_records = 1;
  const u32 fields = workloads::make_bmla(bench, probe).fields;
  const u64 group_records = cfg.dram.row_bytes / 4;
  const u64 groups = std::max<u64>(1, rows / fields);
  u64 records = 0;
  MLP_SIM_CHECK(!__builtin_mul_overflow(groups, group_records, &records),
                "config",
                std::to_string(rows) + " rows of " + bench +
                    " overflow the record count");
  return records;
}

MatrixResult run_job(const MatrixJob& job, PrepareCache* cache,
                     bool* cache_hit, SnapshotPlan* snapshot) {
  MatrixResult out;
  out.job = job;
  if (cache_hit != nullptr) *cache_hit = false;
  const std::vector<std::string>& names = workloads::bmla_names();
  if (std::find(names.begin(), names.end(), job.bench) == names.end()) {
    out.error = "unknown benchmark: " + job.bench;
    return out;
  }
  std::optional<trace::TraceSession> session;
  if (job.options.trace.enabled()) session.emplace(job.options.trace);
  try {
    const PreparedJobPtr prepared =
        cache != nullptr ? cache->get(job, cache_hit) : prepare_job(job);
    out.result = arch::run_arch(job.kind, job.options.cfg,
                                prepared->workload, job.options.seed,
                                session ? &*session : nullptr,
                                &prepared->input, snapshot);
  } catch (const SimError& e) {
    out.error = e.what();
    out.diagnostic = e.diagnostic();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (out.error.empty() && !out.result.verification.empty()) {
    out.error = "verification failed: " + out.result.verification;
  }
  // Export even after a SimError: the partial trace of a watchdog trip or
  // uncorrectable fault is exactly what post-mortem needs.
  if (session) export_trace(*session, &out);
  return out;
}

std::vector<MatrixResult> run_matrix(const std::vector<MatrixJob>& jobs,
                                     u32 threads, PrepareCache* cache) {
  std::vector<MatrixResult> results(jobs.size());
  if (threads == 0) threads = ThreadPool::default_threads();
  threads = static_cast<u32>(std::min<std::size_t>(
      threads, std::max<std::size_t>(1, jobs.size())));
  if (threads <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_job(jobs[i], cache);
    }
    return results;
  }
  ThreadPool pool(threads);
  std::vector<std::future<void>> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pending.push_back(pool.submit(
        [&jobs, &results, cache, i] { results[i] = run_job(jobs[i], cache); }));
  }
  for (std::future<void>& f : pending) f.get();
  return results;
}

arch::RunResult run_verified(arch::ArchKind kind, const std::string& bench,
                             const SuiteOptions& options) {
  MatrixResult r = run_job({kind, bench, options, /*tag=*/""});
  if (!r.ok()) {
    std::fprintf(stderr, "RUN FAILED %s/%s: %s\n", arch::arch_name(kind),
                 bench.c_str(), r.error.c_str());
    std::abort();
  }
  return std::move(r.result);
}

std::vector<arch::RunResult> run_suite(arch::ArchKind kind,
                                       const SuiteOptions& options,
                                       u32 threads) {
  std::vector<MatrixJob> jobs;
  for (const std::string& bench : workloads::bmla_names()) {
    jobs.push_back({kind, bench, options, /*tag=*/""});
  }
  PrepareCache cache;  // suite-local: repeated benches share preparation
  std::vector<arch::RunResult> results;
  results.reserve(jobs.size());
  for (MatrixResult& r : run_matrix(jobs, threads, &cache)) {
    if (!r.ok()) {
      std::fprintf(stderr, "RUN FAILED %s/%s: %s\n",
                   arch::arch_name(r.job.kind), r.job.bench.c_str(),
                   r.error.c_str());
      std::abort();
    }
    results.push_back(std::move(r.result));
  }
  return results;
}

double geomean(const std::vector<double>& values) {
  MLP_CHECK(!values.empty(), "geomean of nothing");
  double log_sum = 0.0;
  for (double v : values) {
    MLP_CHECK(v > 0.0, "geomean needs positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace mlp::sim
