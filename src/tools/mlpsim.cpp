// mlpsim — command-line driver for the simulator: run any (architecture,
// benchmark) pair under a tweaked machine configuration and print the full
// result, optionally as CSV. Independent runs execute in parallel with
// --jobs; output order (and bytes) is identical for any job count.
//
//   mlpsim --arch millipede --bench nbayes --records 65536
//   mlpsim --arch ssmc --bench count --rows 384 --pf-entries 32 --csv
//   mlpsim --bench all --jobs 8 --csv
//   mlpsim --list

#include <cstdio>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/snapshot.hpp"
#include "sweep_grid.hpp"

namespace {

using namespace mlp;

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

void usage() {
  std::printf(R"(mlpsim — Millipede PNM simulator driver

  --arch NAME       millipede | millipede-no-flow-control |
                    millipede-no-rate-match | ssmc | gpgpu | vws | vws-row |
                    multicore                       (default millipede)
  --bench NAME      count|sample|variance|nbayes|classify|kmeans|pca|gda
                    or "all"                        (default all)
  --jobs N          concurrent simulations          (default 1)
  --csv             machine-readable one-line-per-run output
  --stats           dump every counter after each run
  --stats-json      emit one JSON document (schema_version, per-run config,
                    metrics, and every registered counter) on stdout instead
                    of the human/CSV report
  --checkpoint-at N capture a snapshot of the machine state at the first
                    quiescent cycle >= N (the run still completes; requires
                    a single --bench and --checkpoint-out)
  --checkpoint-out FILE  write the captured snapshot blob to FILE
  --restore FILE    restore the machine from a snapshot blob and run to
                    completion; the remainder is bit-identical to the
                    uninterrupted run (requires a single --bench)
  --list            list architectures and benchmarks
  --list-arches     list architectures only, one per line
  --list-benches    list benchmarks only, one per line
  --version         print the toolchain version

Knobs (the same flags as mlpsweep and mlpclient):
)");
  for (const sim::Knob& knob : sim::knobs()) {
    std::fputs(tools::knob_help_line(knob, /*list=*/false).c_str(), stdout);
  }
  std::printf(R"(
A failed run (bad config, watchdog trip, uncorrectable fault, verification
mismatch) is reported on stderr with its diagnostic dump; remaining runs
still execute and the exit status is nonzero.
)");
}

}  // namespace

int main(int argc, char** argv) {
  arch::ArchKind kind = arch::ArchKind::kMillipede;
  std::string bench = "all";
  bool csv = false;
  bool dump_stats = false;
  bool stats_json = false;
  u32 jobs = 1;
  u64 checkpoint_at = 0;
  std::string checkpoint_out;
  std::string restore_path;
  sim::SuiteOptions options;

  tools::ArgCursor args(argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    auto next = [&]() { return args.value(); };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--version") {
      tools::print_version("mlpsim");
      return 0;
    } else if (arg == "--list") {
      std::printf("architectures:");
      for (arch::ArchKind k : arch::all_arch_kinds()) {
        std::printf(" %s", arch::arch_name(k));
      }
      std::printf("\n");
      std::printf("benchmarks:");
      for (const auto& name : workloads::bmla_names()) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n");
      return 0;
    } else if (arg == "--list-arches") {
      std::vector<std::string> names;
      for (arch::ArchKind k : arch::all_arch_kinds()) {
        names.push_back(arch::arch_name(k));
      }
      std::fputs(tools::name_list_lines(names).c_str(), stdout);
      return 0;
    } else if (arg == "--list-benches") {
      std::fputs(tools::name_list_lines(workloads::bmla_names()).c_str(),
                 stdout);
      return 0;
    } else if (arg == "--arch") {
      const std::string name = next();
      if (!arch::arch_from_name(name, &kind)) {
        tools::flag_error(arg, name, "a known architecture");
      }
    } else if (arg == "--bench") {
      bench = next();
    } else if (arg == "--checkpoint-at") {
      checkpoint_at = tools::parse_u64(arg, next(), /*min=*/1);
    } else if (arg == "--checkpoint-out") {
      checkpoint_out = next();
    } else if (arg == "--restore") {
      restore_path = next();
    } else if (arg == "--jobs" || arg == "-j") {
      jobs = tools::parse_u32(arg, next(), /*min=*/1);
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (!tools::consume_knob(args, options)) {
      return tools::unknown_flag(arg);
    }
  }

  std::vector<std::string> benches;
  if (bench == "all") {
    benches = workloads::bmla_names();
  } else {
    benches.push_back(bench);
  }

  std::vector<sim::MatrixJob> matrix;
  for (const std::string& name : benches) {
    matrix.push_back({kind, name, options, /*tag=*/""});
  }

  std::vector<sim::MatrixResult> results;
  if (checkpoint_at > 0 || !restore_path.empty()) {
    if (checkpoint_at > 0 && !restore_path.empty()) {
      std::fprintf(stderr, "mlpsim: --checkpoint-at and --restore are "
                           "mutually exclusive\n");
      return 2;
    }
    if (checkpoint_at > 0 && checkpoint_out.empty()) {
      std::fprintf(stderr,
                   "mlpsim: --checkpoint-at requires --checkpoint-out FILE\n");
      return 2;
    }
    if (matrix.size() != 1) {
      std::fprintf(stderr, "mlpsim: --checkpoint-at/--restore require a "
                           "single --bench\n");
      return 2;
    }
    sim::SnapshotPlan plan;
    std::string blob;
    if (!restore_path.empty()) {
      if (!read_file(restore_path, &blob)) {
        std::fprintf(stderr, "mlpsim: cannot read snapshot %s\n",
                     restore_path.c_str());
        return 1;
      }
      plan.restore_from = &blob;
    } else {
      plan.capture = true;
      plan.checkpoint_at = checkpoint_at;
    }
    results.push_back(sim::run_job(matrix[0], nullptr, nullptr, &plan));
    if (plan.capture && results[0].ok()) {
      if (!plan.captured_ok) {
        std::fprintf(stderr,
                     "mlpsim: run finished before cycle %llu; no snapshot "
                     "captured\n",
                     static_cast<unsigned long long>(checkpoint_at));
        return 1;
      }
      if (!write_file(checkpoint_out, plan.captured)) {
        std::fprintf(stderr, "mlpsim: cannot write snapshot %s\n",
                     checkpoint_out.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "mlpsim: snapshot captured at cycle %llu (%zu bytes) "
                   "-> %s\n",
                   static_cast<unsigned long long>(plan.captured_cycle),
                   plan.captured.size(), checkpoint_out.c_str());
    }
  } else {
    if (!checkpoint_out.empty()) {
      std::fprintf(stderr, "mlpsim: --checkpoint-out requires "
                           "--checkpoint-at N\n");
      return 2;
    }
    results = sim::run_matrix(matrix, jobs);
  }

  if (csv && !stats_json) {
    std::printf("arch,bench,records,%s\n", sim::csv_metric_header().c_str());
  }
  int exit_code = 0;
  for (const sim::MatrixResult& run : results) {
    if (!run.ok()) {
      std::fprintf(stderr, "RUN FAILED %s/%s: %s\n",
                   arch::arch_name(run.job.kind), run.job.bench.c_str(),
                   run.error.c_str());
      if (!run.diagnostic.empty()) {
        std::fprintf(stderr, "%s", run.diagnostic.c_str());
      }
      exit_code = 1;
      continue;
    }
    if (stats_json) continue;  // the JSON document is the whole report
    const arch::RunResult& r = run.result;
    const std::string& name = run.job.bench;
    if (csv) {
      std::printf("%s,%s,%llu,%s\n", r.arch.c_str(), name.c_str(),
                  static_cast<unsigned long long>(sim::job_records(run.job)),
                  sim::csv_metric_cells(r).c_str());
    } else {
      std::printf(
          "%-10s %-9s verified  rt=%9.2fus  clk=%4.0fMHz  "
          "E=%8.2fuJ  ipw=%6.1f  miss=%.3f\n",
          r.arch.c_str(), name.c_str(),
          static_cast<double>(r.runtime_ps) / 1e6, r.final_clock_mhz,
          r.energy.total_j() * 1e6, r.insts_per_word, r.row_miss_rate);
    }
    if (dump_stats) {
      for (const auto& [key, value] : r.stats) {
        std::printf("    %-32s %llu\n", key.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  if (stats_json) {
    std::fputs(sim::stats_json(results).c_str(), stdout);
  }
  return exit_code;
}
