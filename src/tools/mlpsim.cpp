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
  --records N       absolute record count           (default: by volume)
  --rows N          data volume in DRAM rows        (default 192)
  --seed N          data generation seed            (default 1)
  --cores N         corelets / lanes / cores        (default 32)
  --pf-entries N    prefetch buffer entries         (default 16)
  --jobs N          concurrent simulations          (default 1)
  --no-flow-control / --no-rate-match / --record-barrier
  --bus-efficiency F  effective DRAM bus efficiency (default 0.30)
  --channels N      DRAM channels (pow2; one controller each, default 1)
  --ranks N         DRAM ranks per channel (pow2; default 1)
  --mapping SPEC    address interleave field order, msb first, of
                    row|col|bank|rank|channel joined by ':'
                    (default row:bank:col = legacy row-interleaved banks)
  --page-policy SPEC  open | closed | open:idle=N:hits=M — per-bank row
                    policy (N in DRAM cycles, M in column accesses)
  --refresh SPEC    off | on | on:trefi=N:trfc=N:postpone=K — per-rank
                    auto-refresh (cycles; K = JEDEC postponement slots)
  --fault-rate P    DRAM bit-flip probability per transferred bit
                    (deterministic per seed; default 0 = off)
  --fault-delay-rate P / --fault-drop-rate P
                    per-transfer response delay / drop probability
  --fault-seed N    fault-injection seed               (default 1)
  --ecc             SECDED(72,64): correct single-bit flips, retry on
                    detected multi-bit flips; charges 8/64 energy overhead
  --watchdog-cycles N  abort a run (as a per-run error) after N step-loop
                    iterations; 0 disables             (default 2e10)
  --watchdog-stall N   livelock trip: error out after N iterations with no
                    instruction retired and no DRAM byte transferred;
                    0 disables                         (default 2e6)
  --csv             machine-readable one-line-per-run output
  --stats           dump every counter after each run
  --stats-json      emit one JSON document (schema_version, per-run config,
                    metrics, and every registered counter) on stdout instead
                    of the human/CSV report
  --trace           capture typed events (corelet stalls, DRAM ACT/PRE/RD/WR,
                    prefetch lifecycle, freq steps, watchdog/faults) and
                    write per-run Chrome-trace JSON under the trace dir
  --trace-dir DIR   output directory for trace files  (default traces)
  --trace-ring N    bounded capture: keep only the most recent N events and
                    write them as a compact binary ring instead of JSON
  --trace-interval N  sample every registered counter (as per-interval
                    deltas) every N compute cycles into a CSV timeline
  --no-fast-forward tick every component at every clock edge instead of
                    only those with work due (the poll oracle: bit-identical
                    results, slower; equivalence checks)
  --no-block-cache  execute every instruction with the reference
                    interpreter instead of its per-opcode handler
                    (bit-identical results; A/B equivalence checks)
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
    } else if (arg == "--records") {
      options.records = tools::parse_u64(arg, next(), /*min=*/1);
    } else if (arg == "--rows") {
      options.rows = tools::parse_u64(arg, next(), /*min=*/1);
    } else if (arg == "--seed") {
      options.seed = tools::parse_u64(arg, next());
    } else if (arg == "--cores") {
      options.cfg.core.cores = tools::parse_u32(arg, next(), /*min=*/1);
      options.cfg.gpgpu.warp_width = options.cfg.core.cores;
    } else if (arg == "--pf-entries") {
      options.cfg.millipede.pf_entries =
          tools::parse_u32(arg, next(), /*min=*/1);
    } else if (arg == "--bus-efficiency") {
      options.cfg.dram.bus_efficiency =
          tools::parse_positive_double(arg, next());
    } else if (arg == "--channels") {
      options.cfg.dram.channels = tools::parse_u32(arg, next(), /*min=*/1);
    } else if (arg == "--ranks") {
      options.cfg.dram.ranks = tools::parse_u32(arg, next(), /*min=*/1);
    } else if (arg == "--mapping") {
      options.cfg.dram.mapping = tools::parse_mapping_spec(arg, next());
    } else if (arg == "--page-policy") {
      options.cfg.dram.page_policy = tools::parse_page_policy_spec(arg, next());
    } else if (arg == "--refresh") {
      options.cfg.dram.refresh = tools::parse_refresh_spec(arg, next());
    } else if (arg == "--fault-rate") {
      options.cfg.dram.fault.bit_flip_rate =
          tools::parse_rate(arg, next());
    } else if (arg == "--fault-delay-rate") {
      options.cfg.dram.fault.delay_rate = tools::parse_rate(arg, next());
    } else if (arg == "--fault-drop-rate") {
      options.cfg.dram.fault.drop_rate = tools::parse_rate(arg, next());
    } else if (arg == "--fault-seed") {
      options.cfg.dram.fault.seed = tools::parse_u64(arg, next());
    } else if (arg == "--ecc") {
      options.cfg.dram.fault.ecc = true;
    } else if (arg == "--watchdog-cycles") {
      options.cfg.watchdog.max_cycles = tools::parse_u64(arg, next());
    } else if (arg == "--watchdog-stall") {
      options.cfg.watchdog.stall_cycles = tools::parse_u64(arg, next());
    } else if (arg == "--checkpoint-at") {
      checkpoint_at = tools::parse_u64(arg, next(), /*min=*/1);
    } else if (arg == "--checkpoint-out") {
      checkpoint_out = next();
    } else if (arg == "--restore") {
      restore_path = next();
    } else if (arg == "--jobs" || arg == "-j") {
      jobs = tools::parse_u32(arg, next(), /*min=*/1);
    } else if (arg == "--no-flow-control") {
      options.cfg.millipede.flow_control = false;
      options.cfg.millipede.rate_match = false;
      kind = arch::ArchKind::kMillipedeNoFlowControl;
    } else if (arg == "--no-rate-match") {
      kind = arch::ArchKind::kMillipedeNoRateMatch;
    } else if (arg == "--record-barrier") {
      options.record_barrier = true;
    } else if (arg == "--no-fast-forward") {
      options.cfg.fast_forward = false;
    } else if (arg == "--no-block-cache") {
      options.cfg.block_cache = false;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--trace") {
      options.trace.chrome_json = true;
    } else if (arg == "--trace-dir") {
      options.trace.dir = next();
    } else if (arg == "--trace-ring") {
      options.trace.ring_entries = tools::parse_u64(arg, next(), /*min=*/1);
    } else if (arg == "--trace-interval") {
      options.trace.interval_cycles =
          tools::parse_u64(arg, next(), /*min=*/1);
    } else {
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
    std::printf("arch,bench,records,runtime_us,cycles,insts,insts_per_word,"
                "clock_mhz,core_uj,dram_uj,leak_uj,row_miss_rate,"
                "ecc_corrected,ecc_detected,fault_retries\n");
  }
  auto stat_or_zero = [](const arch::RunResult& r, const char* key) {
    const auto it = r.stats.find(key);
    return it == r.stats.end() ? u64{0} : it->second;
  };
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
      const u64 records =
          run.job.options.records != 0
              ? run.job.options.records
              : sim::records_for(name, run.job.options.cfg,
                                 run.job.options.rows);
      std::printf("%s,%s,%llu,%.3f,%llu,%llu,%.2f,%.0f,%.3f,%.3f,%.3f,%.4f,"
                  "%llu,%llu,%llu\n",
                  r.arch.c_str(), name.c_str(),
                  static_cast<unsigned long long>(records),
                  static_cast<double>(r.runtime_ps) / 1e6,
                  static_cast<unsigned long long>(r.compute_cycles),
                  static_cast<unsigned long long>(r.thread_instructions),
                  r.insts_per_word, r.final_clock_mhz, r.energy.core_j * 1e6,
                  r.energy.dram_j * 1e6, r.energy.leak_j * 1e6,
                  r.row_miss_rate,
                  static_cast<unsigned long long>(
                      stat_or_zero(r, "dram.ecc_corrected")),
                  static_cast<unsigned long long>(
                      stat_or_zero(r, "dram.ecc_detected")),
                  static_cast<unsigned long long>(
                      stat_or_zero(r, "dram.fault_retries")));
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
