// perfbench — the repository's benchmark. Runs one workload for a given time,
// checks its outputs, and prints every metric by name with its unit:
//
//   perfbench --workload paper-grid|membound-grid|service-open --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Detail lines (sample counts, ratio bases, the counter digest) start with
// "# "; the line before the last records the run's configuration and the
// last line is the result: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; --trace 1 is the
// separate traced run that records spans around every layer call, writes
// them under DIR and reports per-layer numbers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "trace/json.hpp"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-grid|membound-grid|"
               "service-open --seed N --seconds S --trace 0|1 [--out DIR]\n");
}

bool parse_u64(const char* text, mlp::u64* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions on (build type %s); use Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench: refusing to measure a sanitizer build\n");
  return 2;
#endif
  perfbench::Options opt;
  mlp::u64 seconds = 0;
  mlp::u64 trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      ok = parse_u64(value, &opt.seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = parse_u64(value, &seconds) && seconds > 0;
    } else if (arg == "--trace") {
      ok = parse_u64(value, &trace) && trace <= 1;
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad %s %s\n", arg.c_str(), value);
      usage();
      return 2;
    }
  }
  const bool grid =
      opt.workload == "paper-grid" || opt.workload == "membound-grid";
  if ((!grid && opt.workload != "service-open") || !have_seed ||
      seconds == 0) {
    usage();
    return 2;
  }
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == 1;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());

  perfbench::Outcome out;
  try {
    if (opt.trace) std::filesystem::create_directories(opt.out_dir);
    out = grid ? perfbench::run_grid(opt) : perfbench::run_service(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& line : out.notes) {
    std::printf("# %s\n", line.c_str());
  }

  mlp::trace::JsonWriter config;
  config.begin_object();
  config.key("perfbench_config");
  config.begin_object();
  config.key("workload");
  config.value(opt.workload);
  config.key("seed");
  config.value(opt.seed);
  config.key("seconds");
  config.value(seconds);
  config.key("trace");
  config.value(opt.trace);
  config.key("nproc");
  config.value(static_cast<mlp::u64>(opt.nproc));
  config.key("compiler");
  config.value(PERFBENCH_COMPILER);
  config.key("build_type");
  config.value(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : out.config) {
    config.key(key);
    config.value(value);
  }
  config.end_object();
  config.end_object();
  std::printf("%s\n", config.str().c_str());

  mlp::trace::JsonWriter result;
  result.begin_object();
  result.key("correct");
  result.value(out.correct);
  result.key("attempted");
  result.value(out.attempted);
  result.key("failed");
  result.value(out.failed);
  result.key("metrics");
  result.begin_object();
  for (const auto& [name, metric] : out.metrics) {
    result.key(name);
    result.begin_object();
    result.key("value");
    result.value(metric.first);
    result.key("unit");
    result.value(metric.second);
    result.end_object();
  }
  result.end_object();
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  return 0;
}
