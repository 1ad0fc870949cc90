// The grid workloads: closed batches of independent simulations on a fixed
// sim::ThreadPool, preparation warmed first, the way mlpsweep runs a sweep.
// A point's job time is the time a pool thread spends on it: run, verify,
// and render its stats-JSON row and CSV row.

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <set>

#include "bench.hpp"
#include "sim/pool.hpp"
#include "sim/prepare.hpp"
#include "sim/report.hpp"
#include "workloads/bmla.hpp"

namespace perfbench {

namespace {

using namespace mlp;

/// Data volume per point: the realistic size ROADMAP item 1 asks for, not the
/// rows=24 smoke.
constexpr u64 kRows = 96;
/// Cold preparations before the first sweep, and after every measured sweep,
/// so setup_s, their median, rests on many samples spread over the run.
constexpr int kSetupRepeats = 5;
constexpr int kSetupsPerSweep = 3;

std::vector<sim::MatrixJob> grid_points(const std::string& workload,
                                        u64 seed) {
  std::vector<sim::MatrixJob> points;
  const auto add = [&](arch::ArchKind kind, const std::string& bench,
                       const MachineConfig& cfg, const std::string& tag) {
    sim::MatrixJob job;
    job.kind = kind;
    job.bench = bench;
    job.options.rows = kRows;
    job.options.seed = seed;
    job.options.cfg = cfg;
    job.tag = tag;
    points.push_back(job);
  };
  if (workload == "paper-grid") {
    for (const arch::ArchKind kind : arch::all_arch_kinds()) {
      for (const std::string& bench : workloads::bmla_names()) {
        add(kind, bench, MachineConfig::paper_defaults(), "");
      }
    }
    return points;
  }
  // membound-grid: the light kernels starved of bandwidth, where kernel
  // scheduling and memory backpressure do the work, plus the same points on
  // two refreshed channels striped at the lowest address bits.
  MachineConfig starved = MachineConfig::paper_defaults();
  starved.dram.bus_efficiency = 0.05;
  MachineConfig striped = starved;
  striped.dram.channels = 2;
  striped.dram.refresh = "on";
  striped.dram.mapping = "row:bank:col:channel";
  const arch::ArchKind kinds[] = {arch::ArchKind::kMillipede,
                                  arch::ArchKind::kSsmc, arch::ArchKind::kGpgpu,
                                  arch::ArchKind::kMulticore};
  const char* const benches[] = {"count", "sample", "nbayes", "variance"};
  for (const auto& [cfg, tag] : {std::pair{starved, std::string()},
                                 std::pair{striped, std::string("2ch")}}) {
    for (const arch::ArchKind kind : kinds) {
      for (const char* bench : benches) add(kind, bench, cfg, tag);
    }
  }
  return points;
}

struct PointTiming {
  double wait_ms = 0;    ///< submit to a pool worker picking it up
  double run_ms = 0;     ///< sim::run_job, verification included
  double render_ms = 0;  ///< stats_json_run + sweep_csv_row
};

struct Sweep {
  double wall_ms = 0;
  std::vector<PointTiming> points;
  u64 digest = 0;  ///< over every rendered row, in point order
  u64 failed = 0;
  std::vector<std::string> errors;
  std::vector<RunCounters> counters;
};

Sweep run_sweep(const std::vector<sim::MatrixJob>& points,
                sim::ThreadPool* pool, sim::PrepareCache* cache,
                SpanLog* spans, u64 sweep_index) {
  Sweep s;
  s.points.resize(points.size());
  std::vector<sim::MatrixResult> results(points.size());
  std::vector<std::string> rendered(points.size());
  const Clock::time_point t0 = Clock::now();
  const std::int64_t sweep_span = spans->open("grid.sweep", -1, sweep_index);
  std::vector<std::future<void>> pending;
  pending.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Clock::time_point submitted = Clock::now();
    pending.push_back(pool->submit([&, i, submitted] {
      const Clock::time_point start = Clock::now();
      sim::MatrixResult r = sim::run_job(points[i], cache);
      const Clock::time_point ran = Clock::now();
      std::string row = sim::stats_json_run(r);
      const Clock::time_point json_done = Clock::now();
      row += sim::sweep_csv_row(r);
      const Clock::time_point done = Clock::now();
      s.points[i] = {ms_between(submitted, start), ms_between(start, ran),
                     ms_between(ran, done)};
      if (spans->enabled()) {
        const std::int64_t point =
            spans->add("grid.point", spans->to_ns(submitted),
                       spans->to_ns(done), sweep_span, i);
        spans->add("pool.wait", spans->to_ns(submitted), spans->to_ns(start),
                   point, i);
        spans->add(std::string("sim.run_job.") + arch::arch_name(r.job.kind),
                   spans->to_ns(start), spans->to_ns(ran), point, i);
        spans->add("report.stats_json_run", spans->to_ns(ran),
                   spans->to_ns(json_done), point, i);
        spans->add("report.sweep_csv_row", spans->to_ns(json_done),
                   spans->to_ns(done), point, i);
      }
      rendered[i] = std::move(row);
      results[i] = std::move(r);
    }));
  }
  // Wait for every task before get() can rethrow: the tasks reference
  // this frame.
  for (std::future<void>& f : pending) f.wait();
  for (std::future<void>& f : pending) f.get();
  s.wall_ms = ms_between(t0, Clock::now());
  spans->close(sweep_span);

  std::string all;
  for (std::size_t i = 0; i < points.size(); ++i) {
    all += rendered[i];
    const sim::MatrixResult& r = results[i];
    if (!r.ok()) {
      ++s.failed;
      s.errors.push_back(std::string(arch::arch_name(r.job.kind)) + "/" +
                         r.job.bench + ": " + r.error);
    }
    s.counters.push_back({r.result.stats, r.result.thread_instructions,
                          r.result.compute_cycles, r.result.warp_width});
  }
  s.digest = sim::stable_hash64(all);
  return s;
}

std::vector<double> walls_ms(const std::vector<Sweep>& sweeps) {
  std::vector<double> out;
  for (const Sweep& s : sweeps) out.push_back(s.wall_ms);
  return out;
}

}  // namespace

Outcome run_grid(const Options& opt) {
  Outcome out;
  const std::vector<sim::MatrixJob> points = grid_points(opt.workload, opt.seed);
  const u32 threads = std::min(4u, opt.nproc);
  std::vector<sim::MatrixJob> distinct;
  std::set<std::string> keys;
  for (const sim::MatrixJob& job : points) {
    if (keys.insert(sim::prepare_key(job)).second) distinct.push_back(job);
  }
  out.config["points"] = std::to_string(points.size());
  out.config["distinct_preparations"] = std::to_string(distinct.size());
  out.config["rows"] = std::to_string(kRows);
  out.config["pool_threads"] = std::to_string(threads);

  // Set-up: cold preparation of every distinct job through a fresh cache.
  // The last of the first repeats stays warm for the sweeps.
  SpanLog setup_spans(opt.trace);
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> prepare_ms;
  const auto prepare_cold = [&] {
    auto fresh = std::make_unique<sim::PrepareCache>();
    const Clock::time_point t0 = Clock::now();
    for (const sim::MatrixJob& job : distinct) {
      const Clock::time_point a = Clock::now();
      fresh->get(job);
      const Clock::time_point b = Clock::now();
      prepare_ms[job.bench].push_back(ms_between(a, b));
      setup_spans.add("setup.prepare." + job.bench, setup_spans.to_ns(a),
                      setup_spans.to_ns(b), -1, setup_s.size());
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return fresh;
  };
  std::unique_ptr<sim::PrepareCache> cache;
  for (int k = 0; k < kSetupRepeats; ++k) cache = prepare_cold();

  sim::ThreadPool pool(threads);
  SpanLog untraced(false);
  SpanLog run_spans(opt.trace);
  // One unmeasured sweep first, so lazy allocation and first-touch page
  // faults stay out of the figures. Then sweeps until the time is up, each
  // followed by more timed cold preparations; traced runs alternate an
  // untraced sweep (the overhead baseline) with a traced one (the per-layer
  // numbers).
  const Sweep warm = run_sweep(points, &pool, cache.get(), &untraced, 0);
  const auto prepare_between = [&] {
    for (int k = 0; k < kSetupsPerSweep; ++k) prepare_cold();
  };
  std::vector<Sweep> plain;
  std::vector<Sweep> traced;
  const Clock::time_point start = Clock::now();
  do {
    plain.push_back(
        run_sweep(points, &pool, cache.get(), &untraced, plain.size()));
    prepare_between();
    if (opt.trace) {
      traced.push_back(
          run_sweep(points, &pool, cache.get(), &run_spans, traced.size()));
      prepare_between();
    }
  } while (ms_between(start, Clock::now()) < opt.seconds * 1000.0);
  out.config["setup_repeats"] = std::to_string(setup_s.size());

  // Output checks: every point verified, and every sweep rendered exactly
  // the same rows.
  const u64 digest = warm.digest;
  const std::vector<Sweep>* sets[] = {&plain, &traced};
  for (const std::vector<Sweep>* set : sets) {
    for (const Sweep& s : *set) {
      out.attempted += points.size();
      out.failed += s.failed;
      for (const std::string& e : s.errors) out.fail("point failed: " + e);
      if (s.digest != digest) out.fail("sweeps rendered different rows");
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "counter digest %016llx over %zu points (must not change "
                "with the pool size or between runs of one seed)",
                static_cast<unsigned long long>(digest), points.size());
  out.note(buf);
  for (const std::vector<Sweep>* set : sets) {
    std::string walls = set == &plain ? "untraced" : "traced";
    walls += " sweep walls ms:";
    for (const Sweep& s : *set) {
      std::snprintf(buf, sizeof(buf), " %.1f", s.wall_ms);
      walls += buf;
    }
    out.note(walls);
  }

  double instructions = 0;
  for (const RunCounters& c : plain.front().counters) {
    instructions += static_cast<double>(c.thread_instructions);
  }
  const double wall_s = median(walls_ms(plain)) / 1000.0;

  if (!opt.trace) {
    std::vector<double> job_ms;
    for (const Sweep& s : plain) {
      for (const PointTiming& p : s.points) {
        job_ms.push_back(p.run_ms + p.render_ms);
      }
    }
    out.set("setup_s", median(setup_s), "s");
    out.set("wall_s", wall_s, "s");
    out.set("sim_mips", instructions / wall_s / 1e6, "M_instr/s");
    out.set_percentile("job_p50_ms", median_percentile(job_ms));
    out.set_percentile("job_p99_ms", tail_percentile(job_ms));
    out.set("slo_jobs_per_s", static_cast<double>(points.size()) / wall_s,
            "jobs/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Per-layer numbers, from the traced sweeps.
  out.set_ratio("trace.overhead_ratio",
                {median(walls_ms(traced)), median(walls_ms(plain))});
  for (const auto& [bench, ms] : prepare_ms) {
    out.set("prepare.ms." + bench, median(ms), "ms");
  }
  const sim::PrepareCacheStats cache_stats = cache->stats();
  out.set("prepare.image_mb",
          static_cast<double>(cache_stats.image_bytes) / (1 << 20), "MB");
  out.set("prepare.cache_misses", static_cast<double>(cache_stats.misses),
          "count");
  // Per sweep; the warm-up sweep hit the cache too.
  out.set("prepare.cache_hits",
          static_cast<double>(cache_stats.hits) /
              static_cast<double>(1 + plain.size() + traced.size()),
          "count");

  std::vector<double> run_ms;
  std::vector<double> wait_ms;
  std::map<std::string, std::vector<double>> arch_ms;
  double run_total = 0;
  double wall_total = 0;
  double render_total = 0;
  for (const Sweep& s : traced) {
    double run = 0;
    double wait = 0;
    std::map<std::string, double> per_arch;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointTiming& p = s.points[i];
      run += p.run_ms;
      wait += p.wait_ms;
      render_total += p.render_ms;
      per_arch[arch::arch_name(points[i].kind)] += p.run_ms;
    }
    run_ms.push_back(run);
    wait_ms.push_back(wait);
    for (const auto& [arch, ms] : per_arch) arch_ms[arch].push_back(ms);
    run_total += run;
    wall_total += s.wall_ms;
  }
  out.set("run_job.ms", median(run_ms), "ms");
  for (const auto& [arch, ms] : arch_ms) {
    out.set("run_job.ms." + arch, median(ms), "ms");
  }
  out.set("pool.wait_ms", median(wait_ms), "ms");
  out.set_ratio("pool.busy_ratio", {run_total, threads * wall_total});
  out.set("report.us_per_point",
          render_total * 1000.0 /
              static_cast<double>(points.size() * traced.size()),
          "us");
  set_layer_counters(traced.front().counters, median(run_ms) * 1e6, &out);
  set_self_times(setup_spans.spans(), static_cast<double>(setup_s.size()),
                 &out);
  set_self_times(run_spans.spans(), static_cast<double>(traced.size()), &out);
  out.set_ratio("error_rate", {static_cast<double>(out.failed),
                               static_cast<double>(out.attempted)});

  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  write_text_file(stem + "-setup.trace.json", setup_spans.chrome_json(), &out);
  write_text_file(stem + ".trace.json", run_spans.chrome_json(), &out);
  return out;
}

}  // namespace perfbench
