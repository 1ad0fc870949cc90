#include "sim/knobs.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "mem/addrmap.hpp"
#include "sim/report.hpp"

namespace mlp::sim {

namespace {

#define MLP_KNOB_FIELD(path) \
  [](SuiteOptions& o) -> KnobField { return &o.path; }

// Order is output format: the CSV config columns, the stats-JSON config
// members and the sweep's axis nesting (first axis slowest) follow it.
const Knob kKnobs[] = {
    {.name = "cores", .flag = "--cores", .metavar = "N",
     .help = "corelets / lanes / cores per processor, and the warp width",
     .field = MLP_KNOB_FIELD(cfg.core.cores), .range = KnobRange::kPositive,
     .tag = "c", .csv = true, .config = true,
     .on_set =
         [](SuiteOptions& o) { o.cfg.gpgpu.warp_width = o.cfg.core.cores; }},
    {.name = "pf_entries", .flag = "--pf-entries", .metavar = "N",
     .help = "prefetch buffer entries",
     .field = MLP_KNOB_FIELD(cfg.millipede.pf_entries),
     .range = KnobRange::kPositive, .tag = "pf", .csv = true, .config = true},
    {.name = "bus_efficiency", .flag = "--bus-efficiency", .metavar = "F",
     .help = "effective DRAM bus efficiency",
     .field = MLP_KNOB_FIELD(cfg.dram.bus_efficiency),
     .range = KnobRange::kPositive, .tag = "bus", .csv = true, .config = true,
     .cell_format = "%.3f"},
    {.name = "rows", .flag = "--rows", .metavar = "N",
     .help = "data volume in DRAM rows", .field = MLP_KNOB_FIELD(rows),
     .range = KnobRange::kPositive, .tag = "r", .csv = true, .config = true},
    {.name = "records", .flag = "--records", .metavar = "N",
     .help = "absolute record count; 0 sizes the input by --rows",
     .field = MLP_KNOB_FIELD(records), .csv = true, .config = true,
     .reported = job_records},
    {.name = "seed", .flag = "--seed", .metavar = "N",
     .help = "data generation seed", .field = MLP_KNOB_FIELD(seed),
     .csv = true, .config = true},
    {.name = "record_barrier", .flag = "--record-barrier",
     .help = "software barriers per record instead of flow control",
     .field = MLP_KNOB_FIELD(record_barrier), .config = true},
    {.name = "fault_rate", .flag = "--fault-rate", .metavar = "P",
     .help = "DRAM bit-flip probability per transferred bit",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.bit_flip_rate),
     .range = KnobRange::kProbability, .tag = "f", .csv = true,
     .config = true, .cell_format = "%g"},
    {.name = "ecc", .flag = "--ecc",
     .help = "SECDED(72,64): correct single-bit flips, retry on detect",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.ecc), .csv = true, .config = true},
    {.name = "channels", .flag = "--channels", .metavar = "N",
     .help = "DRAM channels, pow2 (one controller each)",
     .field = MLP_KNOB_FIELD(cfg.dram.channels), .range = KnobRange::kPositive,
     .tag = "ch", .tag_if_swept = true, .csv = true, .config = true},
    {.name = "ranks", .flag = "--ranks", .metavar = "N",
     .help = "DRAM ranks per channel, pow2",
     .field = MLP_KNOB_FIELD(cfg.dram.ranks), .range = KnobRange::kPositive,
     .tag = "rk", .tag_if_swept = true, .csv = true, .config = true},
    {.name = "mapping", .flag = "--mapping", .metavar = "SPEC",
     .help = "address interleave field order, msb first, of "
             "row|col|bank|rank|channel joined by ':'",
     .field = MLP_KNOB_FIELD(cfg.dram.mapping),
     .grammar = mem::AddressMap::check_grammar,
     .expects = "a field list like row:rank:bank:channel:col", .tag = "",
     .tag_if_swept = true, .csv = true, .config = true},
    {.name = "page_policy", .flag = "--page-policy", .metavar = "SPEC",
     .help = "open | closed | open:idle=N:hits=M (DRAM cycles / accesses)",
     .field = MLP_KNOB_FIELD(cfg.dram.page_policy),
     .grammar = [](const std::string& s) { (void)parse_page_policy(s); },
     .expects = "open, closed, or open:idle=N:hits=M", .tag = "",
     .tag_if_swept = true, .csv = true, .config = true},
    {.name = "refresh", .flag = "--refresh", .metavar = "SPEC",
     .help = "off | on | on:trefi=N:trfc=N:postpone=K (cycles / slots)",
     .field = MLP_KNOB_FIELD(cfg.dram.refresh),
     .grammar = [](const std::string& s) { (void)parse_refresh(s); },
     .expects = "off, on, or on:trefi=N:trfc=N:postpone=K", .tag = "",
     .tag_if_swept = true, .csv = true, .config = true},
    {.name = "slab_layout", .flag = "--slab-layout",
     .help = "slab-interleaved records, one DRAM row per record (MIMD)",
     .field = MLP_KNOB_FIELD(cfg.slab_layout)},
    {.name = "fault_delay", .flag = "--fault-delay-rate", .metavar = "P",
     .help = "per-transfer response delay probability",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.delay_rate),
     .range = KnobRange::kProbability},
    {.name = "fault_drop", .flag = "--fault-drop-rate", .metavar = "P",
     .help = "per-transfer response drop probability",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.drop_rate),
     .range = KnobRange::kProbability},
    {.name = "fault_seed", .flag = "--fault-seed", .metavar = "N",
     .help = "fault-injection seed",
     .field = MLP_KNOB_FIELD(cfg.dram.fault.seed)},
    {.name = "watchdog_cycles", .flag = "--watchdog-cycles", .metavar = "N",
     .help = "per-run error after N step-loop iterations; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.max_cycles)},
    {.name = "watchdog_stall", .flag = "--watchdog-stall", .metavar = "N",
     .help = "per-run error after N iterations without progress; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.stall_cycles)},
    {.name = "watchdog_wall", .flag = "--watchdog-wall", .metavar = "MS",
     .help = "per-run job-timeout error after MS ms of wall clock; 0 = off",
     .field = MLP_KNOB_FIELD(cfg.watchdog.wall_ms)},
    {.name = "fast_forward", .flag = "--no-fast-forward",
     .help = "tick every component at every clock edge (the poll oracle)",
     .field = MLP_KNOB_FIELD(cfg.fast_forward)},
    {.name = "block_cache", .flag = "--no-block-cache",
     .help = "run every instruction on the reference interpreter",
     .field = MLP_KNOB_FIELD(cfg.block_cache)},
    {.name = "trace", .flag = "--trace",
     .help = "per-run Chrome-trace JSON of typed events",
     .field = MLP_KNOB_FIELD(trace.chrome_json)},
    {.name = "trace_dir", .flag = "--trace-dir", .metavar = "DIR",
     .help = "output directory for trace files",
     .field = MLP_KNOB_FIELD(trace.dir)},
    {.name = "trace_ring", .flag = "--trace-ring", .metavar = "N",
     .help = "keep only the last N events, as a binary ring; 0 = off",
     .field = MLP_KNOB_FIELD(trace.ring_entries)},
    {.name = "trace_interval", .flag = "--trace-interval", .metavar = "N",
     .help = "counter timeline CSV sampled every N compute cycles; 0 = off",
     .field = MLP_KNOB_FIELD(trace.interval_cycles)},
};

#undef MLP_KNOB_FIELD

const SuiteOptions& defaults() {
  static const SuiteOptions options;
  return options;
}

KnobField field_of(const Knob& knob, const SuiteOptions& options) {
  // The accessor only forms a pointer; callers that hold a const
  // SuiteOptions never write through it.
  return knob.field(const_cast<SuiteOptions&>(options));
}

/// Largest value an integer knob's field holds.
u64 int_limit(const Knob& knob) {
  return std::holds_alternative<u32*>(field_of(knob, defaults()))
             ? std::numeric_limits<u32>::max()
             : std::numeric_limits<u64>::max();
}

bool in_range(const Knob& knob, const KnobValue& value) {
  if (const u64* n = std::get_if<u64>(&value)) {
    return *n <= int_limit(knob) &&
           (knob.range != KnobRange::kPositive || *n >= 1);
  }
  if (const double* x = std::get_if<double>(&value)) {
    if (!std::isfinite(*x)) return false;
    if (knob.range == KnobRange::kPositive) return *x > 0.0;
    if (knob.range == KnobRange::kProbability) return *x >= 0.0 && *x <= 1.0;
    return true;
  }
  if (const std::string* s = std::get_if<std::string>(&value)) {
    if (knob.grammar == nullptr) return true;
    try {
      knob.grammar(*s);
    } catch (const SimError&) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::span<const Knob> knobs() { return kKnobs; }

const Knob* knob_named(const std::string& name) {
  for (const Knob& knob : kKnobs) {
    if (name == knob.name) return &knob;
  }
  return nullptr;
}

const Knob* knob_for_flag(const std::string& flag) {
  for (const Knob& knob : kKnobs) {
    if (flag == knob.flag) return &knob;
  }
  return nullptr;
}

KnobValue knob_get(const Knob& knob, const SuiteOptions& options) {
  return std::visit(
      [](auto* field) -> KnobValue {
        if constexpr (std::is_same_v<decltype(field), u32*>) {
          return u64{*field};
        } else {
          return *field;
        }
      },
      field_of(knob, options));
}

void knob_set(const Knob& knob, SuiteOptions& options,
              const KnobValue& value) {
  std::visit(
      [&](auto* field) {
        if constexpr (std::is_same_v<decltype(field), u32*>) {
          *field = static_cast<u32>(std::get<u64>(value));
        } else {
          *field = std::get<std::remove_pointer_t<decltype(field)>>(value);
        }
      },
      knob.field(options));
  if (knob.on_set != nullptr) knob.on_set(options);
}

KnobValue knob_default(const Knob& knob) { return knob_get(knob, defaults()); }

bool knob_is_switch(const Knob& knob) {
  return std::holds_alternative<bool*>(field_of(knob, defaults()));
}

KnobValue knob_reported(const Knob& knob, const MatrixJob& job) {
  if (knob.reported != nullptr) return knob.reported(job);
  return knob_get(knob, job.options);
}

std::optional<KnobValue> knob_parse(const Knob& knob,
                                    const std::string& text) {
  KnobValue value = knob_default(knob);
  if (std::holds_alternative<u64>(value)) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || end != text.c_str() + text.size() ||
        errno != 0) {
      return std::nullopt;
    }
    value = u64{n};
  } else if (std::holds_alternative<double>(value)) {
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || errno != 0) {
      return std::nullopt;
    }
    value = x;
  } else if (std::holds_alternative<std::string>(value)) {
    value = text;
  } else {
    return std::nullopt;  // a switch takes no value
  }
  if (!in_range(knob, value)) return std::nullopt;
  return value;
}

std::optional<KnobValue> knob_from_json(const Knob& knob,
                                        const trace::JsonValue& json) {
  using Type = trace::JsonValue::Type;
  KnobValue value = knob_default(knob);
  if (std::holds_alternative<u64>(value)) {
    // A token past 2^64 parses saturated; reject it rather than clamp.
    if (json.type != Type::kNumber || !json.is_integer || json.number < 0 ||
        json.number >= 18446744073709551616.0) {
      return std::nullopt;
    }
    value = json.unsigned_integer;
  } else if (std::holds_alternative<double>(value)) {
    if (json.type != Type::kNumber) return std::nullopt;
    value = json.number;
  } else if (std::holds_alternative<bool>(value)) {
    if (json.type != Type::kBool) return std::nullopt;
    value = json.boolean;
  } else {
    if (json.type != Type::kString) return std::nullopt;
    value = json.string;
  }
  if (!in_range(knob, value)) return std::nullopt;
  return value;
}

std::string knob_expects(const Knob& knob) {
  if (knob.expects != nullptr) return knob.expects;
  const KnobValue value = knob_default(knob);
  if (std::holds_alternative<u64>(value)) {
    std::string text = knob.range == KnobRange::kPositive ? "a positive "
                                                          : "a non-negative ";
    if (int_limit(knob) == std::numeric_limits<u32>::max()) text += "32-bit ";
    return text + "integer";
  }
  if (std::holds_alternative<double>(value)) {
    return knob.range == KnobRange::kProbability ? "a probability in [0, 1]"
           : knob.range == KnobRange::kPositive  ? "a positive number"
                                                 : "a number";
  }
  if (std::holds_alternative<bool>(value)) return "a boolean";
  return "a string";
}

std::string knob_text(const KnobValue& value) {
  char buf[40];
  if (const u64* n = std::get_if<u64>(&value)) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(*n));
    return buf;
  }
  if (const double* x = std::get_if<double>(&value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", *x);
    return buf;
  }
  if (const bool* b = std::get_if<bool>(&value)) return *b ? "1" : "0";
  return std::get<std::string>(value);
}

std::string knob_cell(const Knob& knob, const KnobValue& value) {
  const double* x = std::get_if<double>(&value);
  if (x == nullptr || knob.cell_format == nullptr) return knob_text(value);
  char buf[512];
  std::snprintf(buf, sizeof(buf), knob.cell_format, *x);
  return buf;
}

void knob_json(trace::JsonWriter& w, const KnobValue& value) {
  std::visit([&w](const auto& v) { w.value(v); }, value);
}

std::string knob_identity(const SuiteOptions& options) {
  trace::JsonWriter w;
  w.begin_object();
  for (const Knob& knob : kKnobs) {
    const KnobValue value = knob_get(knob, options);
    if (value == knob_default(knob)) continue;
    w.key(knob.name);
    knob_json(w, value);
  }
  w.end_object();
  return w.take();
}

}  // namespace mlp::sim
