// Schema tests for the observability layer: the JSON writer/parser, the
// TraceSession capture modes (unbounded Chrome-trace buffer, bounded binary
// ring, interval sampler), the per-job trace files run_job writes (including
// for failed runs and across run_matrix thread counts), the sweep CSV with
// its trailing error column, and the --stats-json document round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace mlp {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("mlp_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

sim::MatrixJob traced_job(const std::string& bench, const fs::path& dir,
                          const std::string& tag = "") {
  sim::MatrixJob job;
  job.kind = arch::ArchKind::kMillipede;
  job.bench = bench;
  job.tag = tag;
  job.options.rows = 24;
  job.options.trace.chrome_json = true;
  job.options.trace.interval_cycles = 256;
  job.options.trace.dir = dir.string();
  return job;
}

// ---------------------------------------------------------------- JSON ----

TEST(Json, WriterParserRoundTrip) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value(std::string("a\"b\\c\n\t"));
  w.key("big");
  w.value(u64{18446744073709551615ull});
  w.key("neg");
  w.value(i64{-42});
  w.key("pi");
  w.value(3.25);
  w.key("flag");
  w.value(true);
  w.key("list");
  w.begin_array();
  w.value(u64{1});
  w.value(u64{2});
  w.end_array();
  w.end_object();
  const trace::JsonValue v = trace::json_parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.str_at("name"), "a\"b\\c\n\t");
  EXPECT_EQ(v.u64_at("big"), 18446744073709551615ull);
  EXPECT_EQ(v.find("neg")->integer, -42);
  EXPECT_DOUBLE_EQ(v.find("pi")->number, 3.25);
  EXPECT_TRUE(v.find("flag")->boolean);
  ASSERT_TRUE(v.find("list")->is_array());
  EXPECT_EQ(v.find("list")->array.size(), 2u);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(trace::json_parse("{"), SimError);
  EXPECT_THROW(trace::json_parse("{\"a\":1,}"), SimError);
  EXPECT_THROW(trace::json_parse("[1,2] trailing"), SimError);
  EXPECT_THROW(trace::json_parse("\"unterminated"), SimError);
  EXPECT_THROW(trace::json_parse(""), SimError);
  // Number tokens follow the JSON grammar and fit their integer type.
  EXPECT_THROW(trace::json_parse("[-]"), SimError);
  EXPECT_THROW(trace::json_parse("[--1]"), SimError);
  EXPECT_THROW(trace::json_parse("[1e5e5]"), SimError);
  EXPECT_THROW(trace::json_parse("{\"a\":-}"), SimError);
  EXPECT_THROW(trace::json_parse("[01]"), SimError);
  EXPECT_THROW(trace::json_parse("[1.]"), SimError);
  EXPECT_THROW(trace::json_parse("[18446744073709551616]"), SimError);
  EXPECT_THROW(trace::json_parse("[-9223372036854775809]"), SimError);
  EXPECT_EQ(trace::json_parse("[-9223372036854775808]").array[0].integer,
            std::numeric_limits<i64>::min());
  // A \u escape needs four hex digits.
  EXPECT_THROW(trace::json_parse("[\"\\uZZZZ\"]"), SimError);
  // Nesting is bounded: kMaxJsonDepth levels parse, one more does not.
  const u32 depth = trace::kMaxJsonDepth;
  EXPECT_NO_THROW(trace::json_parse(std::string(depth, '[') +
                                    std::string(depth, ']')));
  EXPECT_THROW(trace::json_parse(std::string(depth + 1, '[') +
                                 std::string(depth + 1, ']')),
               SimError);
  try {
    trace::json_parse("nope");
    FAIL() << "must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "json");
  }
}

/// Writes `value` back through JsonWriter: a document the writer produced
/// must come out byte for byte as it went in.
void rewrite(const trace::JsonValue& value, trace::JsonWriter* w) {
  switch (value.type) {
    case trace::JsonValue::Type::kNull: w->raw("null"); break;
    case trace::JsonValue::Type::kBool: w->value(value.boolean); break;
    case trace::JsonValue::Type::kString: w->value(value.string); break;
    case trace::JsonValue::Type::kNumber:
      if (!value.is_integer) {
        w->value(value.number);
      } else if (value.number < 0) {
        w->value(value.integer);
      } else {
        w->value(value.unsigned_integer);
      }
      break;
    case trace::JsonValue::Type::kArray:
      w->begin_array();
      for (const trace::JsonValue& item : value.array) rewrite(item, w);
      w->end_array();
      break;
    case trace::JsonValue::Type::kObject:
      w->begin_object();
      for (const auto& [name, item] : value.object) {
        w->key(name);
        rewrite(item, w);
      }
      w->end_object();
      break;
  }
}

std::string random_bytes(std::mt19937_64& rng) {
  std::string text(rng() % 12, ' ');
  for (char& c : text) c = static_cast<char>(rng() % 256);
  return text;
}

/// A random document through JsonWriter, at most `depth` containers deep:
/// strings of arbitrary bytes, integers across both types' ranges, finite
/// nonzero doubles from 2^-80 to 2^80 (the writer prints -0.0 as "-0",
/// which reads back as the integer 0), booleans and nulls.
void random_json(std::mt19937_64& rng, u32 depth, trace::JsonWriter* w) {
  switch (rng() % (depth == 0 ? 5 : 7)) {
    case 0: w->value(random_bytes(rng)); break;
    case 1: w->value(static_cast<u64>(rng() >> (rng() % 64))); break;
    case 2: w->value(static_cast<i64>(rng() >> (rng() % 64))); break;
    case 3: {
      const double mantissa =
          static_cast<double>((rng() >> 11) + 1) / 9007199254740992.0;
      const double number =
          std::ldexp(mantissa, static_cast<int>(rng() % 161) - 80);
      w->value(rng() % 2 == 0 ? number : -number);
      break;
    }
    case 4:
      if (rng() % 2 == 0) {
        w->value(rng() % 2 == 0);
      } else {
        w->raw("null");
      }
      break;
    case 5: {
      w->begin_array();
      for (u64 n = rng() % 5; n > 0; --n) random_json(rng, depth - 1, w);
      w->end_array();
      break;
    }
    default: {
      w->begin_object();
      for (u64 n = rng() % 5; n > 0; --n) {
        w->key(random_bytes(rng));
        random_json(rng, depth - 1, w);
      }
      w->end_object();
      break;
    }
  }
}

/// json_parse either succeeds or throws SimError("json").
void parse_or_typed_error(const std::string& text) {
  try {
    trace::json_parse(text);
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "json") << e.what();
  }
}

TEST(JsonFuzz, WriterDocumentsRoundTripAndDamageIsTyped) {
  std::mt19937_64 rng(20261019);  // fixed seed: failures must reproduce
  const std::string alphabet =
      std::string("[]{}:,\"\\-+.eE0123456789tfnu ") + '\0' + '\xff';
  for (int iter = 0; iter < 400; ++iter) {
    trace::JsonWriter w;
    random_json(rng, 1 + static_cast<u32>(rng() % 6), &w);
    const std::string text = w.str();
    trace::JsonWriter again;
    rewrite(trace::json_parse(text), &again);
    ASSERT_EQ(again.str(), text);
    for (int cut = 0; cut < 8; ++cut) {
      parse_or_typed_error(text.substr(0, rng() % text.size()));
    }
    for (int m = 0; m < 16; ++m) {
      std::string mutated = text;
      const std::size_t at = rng() % mutated.size();
      const char byte = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0: mutated[at] = byte; break;
        case 1: mutated.insert(mutated.begin() + at, byte); break;
        default: mutated.erase(at, 1); break;
      }
      parse_or_typed_error(mutated);
    }
  }
}

TEST(Json, EscapesNullsAndEmptyContainers) {
  trace::JsonWriter w;
  w.begin_object();
  w.key("esc");
  w.value(std::string("cr\r ctl\x01 end"));
  w.key("nan");
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.key("empty_obj");
  w.begin_object();
  w.end_object();
  w.key("empty_arr");
  w.begin_array();
  w.end_array();
  w.end_object();
  const std::string text = w.str();
  EXPECT_NE(text.find("\\r"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("null"), std::string::npos);

  const trace::JsonValue v = trace::json_parse(text);
  EXPECT_EQ(v.str_at("esc"), "cr\r ctl\x01 end");
  EXPECT_EQ(v.find("nan")->type, trace::JsonValue::Type::kNull);
  ASSERT_TRUE(v.find("empty_obj")->is_object());
  EXPECT_TRUE(v.find("empty_obj")->object.empty());
  ASSERT_TRUE(v.find("empty_arr")->is_array());
  EXPECT_TRUE(v.find("empty_arr")->array.empty());

  // Escape forms the writer never produces must still parse: solidus, the
  // control shorthands, an ASCII \u escape, and a non-ASCII one (which this
  // deliberately-minimal parser maps to '?').
  const trace::JsonValue esc =
      trace::json_parse("{\"s\": \"a\\/b\\r\\b\\f\\u0041\\u00e9\"}");
  EXPECT_EQ(esc.str_at("s"), "a/b\r\b\fA?");
  EXPECT_THROW(trace::json_parse("{\"s\": \"\\x\"}"), SimError);
  EXPECT_THROW(trace::json_parse("{\"s\": \"\\u00"), SimError);
}

// -------------------------------------------------------- TraceSession ----

TEST(TraceSession, RingKeepsMostRecentEventsInOrder) {
  trace::TraceConfig cfg;
  cfg.ring_entries = 4;
  trace::TraceSession session(cfg);
  for (u64 i = 0; i < 10; ++i) {
    session.emit(trace::Domain::kCompute, trace::EventKind::kDramRead,
                 /*ts=*/i * 100, /*track=*/0, /*a=*/i);
  }
  EXPECT_EQ(session.events_captured(), 10u);
  EXPECT_EQ(session.events_retained(), 4u);
  const std::vector<trace::Event> events = session.events();
  ASSERT_EQ(events.size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a, 6 + i) << "ring must keep the newest, oldest first";
  }
}

TEST(TraceSession, BinaryBlobLayout) {
  trace::TraceConfig cfg;
  cfg.ring_entries = 8;
  trace::TraceSession session(cfg);
  for (u64 i = 0; i < 3; ++i) {
    session.emit(trace::Domain::kChannel, trace::EventKind::kDramActivate,
                 i, trace::kDramTrackBase, i);
  }
  const std::string blob = session.binary_blob();
  ASSERT_GE(blob.size(), 32u);
  EXPECT_EQ(std::memcmp(blob.data(), "MLPTRACE", 8), 0);
  u32 version = 0, event_size = 0;
  std::memcpy(&version, blob.data() + 8, 4);
  std::memcpy(&event_size, blob.data() + 12, 4);
  u64 retained = 0, total = 0;
  std::memcpy(&retained, blob.data() + 16, 8);
  std::memcpy(&total, blob.data() + 24, 8);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(event_size, sizeof(trace::Event));
  EXPECT_EQ(retained, 3u);
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(blob.size(), 32u + retained * sizeof(trace::Event));
}

TEST(TraceSession, DisabledConfigCapturesNothing) {
  trace::TraceConfig cfg;  // all off
  EXPECT_FALSE(cfg.enabled());
  trace::TraceSession session(cfg);
  session.emit(trace::Domain::kCompute, trace::EventKind::kDramRead, 1, 0);
  EXPECT_EQ(session.events_captured(), 0u);
  EXPECT_EQ(session.events_retained(), 0u);
}

// ------------------------------------------------- per-job trace files ----

TEST(TraceFiles, ChromeJsonValidatesAndMapsTracks) {
  const fs::path dir = scratch_dir("chrome_json");
  const sim::MatrixResult run = sim::run_job(traced_job("count", dir));
  ASSERT_TRUE(run.ok()) << run.error;
  ASSERT_EQ(run.trace_files.size(), 2u);  // .trace.json + .timeline.csv

  const std::string path = (dir / "millipede-count.trace.json").string();
  EXPECT_EQ(run.trace_files[0], path);
  const trace::JsonValue doc = trace::json_parse(read_file(path));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.str_at("displayTimeUnit"), "ns");
  const trace::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Metadata: the process is arch/workload; thread names cover every tid
  // used by a real event.
  bool process_named = false;
  std::map<i64, std::string> thread_names;
  double last_ts = -1.0;
  std::map<std::string, u64> kinds;
  std::map<i64, i64> open_slices;  // tid -> B/E nesting depth
  for (const trace::JsonValue& e : events->array) {
    const std::string& ph = e.str_at("ph");
    if (ph == "M") {
      if (e.str_at("name") == "process_name") {
        process_named = true;
        EXPECT_EQ(e.find("args")->str_at("name"), "millipede/count");
      } else if (e.str_at("name") == "thread_name") {
        thread_names[e.find("tid")->integer] =
            e.find("args")->str_at("name");
      }
      continue;
    }
    const trace::JsonValue* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->number, last_ts) << "event timestamps must be sorted";
    last_ts = ts->number;
    ++kinds[e.str_at("name")];
    EXPECT_TRUE(thread_names.count(e.find("tid")->integer))
        << "unnamed track " << e.find("tid")->integer;
    if (ph == "B") ++open_slices[e.find("tid")->integer];
    if (ph == "E") {
      EXPECT_GT(open_slices[e.find("tid")->integer], 0)
          << "slice end without begin";
      --open_slices[e.find("tid")->integer];
    }
  }
  EXPECT_TRUE(process_named);
  // The acceptance triad: DRAM traffic, prefetch lifecycle, corelet stalls.
  EXPECT_GT(kinds["RD"], 0u);
  EXPECT_GT(kinds["ACT"], 0u);
  EXPECT_GT(kinds["pf_issue"], 0u);
  EXPECT_GT(kinds["pf_fill"], 0u);
  EXPECT_GT(kinds["pf_first_use"], 0u);
  EXPECT_GT(kinds["pf_retire"], 0u);
  EXPECT_GT(kinds["mem_stall"], 0u);
  for (const auto& [tid, depth] : open_slices) {
    EXPECT_EQ(depth, 0) << "unbalanced stall slices on tid " << tid;
  }
  // Corelet tracks follow the c<core>.x<ctx> convention.
  ASSERT_TRUE(thread_names.count(0));
  EXPECT_EQ(thread_names[0], "c0.x0");
}

TEST(TraceFiles, IntervalCsvHeaderAndMonotonicCycles) {
  const fs::path dir = scratch_dir("interval_csv");
  const sim::MatrixResult run = sim::run_job(traced_job("variance", dir));
  ASSERT_TRUE(run.ok()) << run.error;
  const std::string csv =
      read_file((dir / "millipede-variance.timeline.csv").string());
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("cycle,ps,", 0), 0u);
  EXPECT_NE(header.find(",dram.row_hits,"), std::string::npos);
  EXPECT_NE(header.find(",exec.instructions,"), std::string::npos);
  EXPECT_NE(header.find(",pb.occupancy,"), std::string::npos);
  const std::string tail = ",row_hit_rate,ipc";
  ASSERT_GE(header.size(), tail.size());
  EXPECT_EQ(header.substr(header.size() - tail.size()), tail);
  const std::size_t columns =
      static_cast<std::size_t>(
          std::count(header.begin(), header.end(), ',')) + 1;

  std::string line;
  u64 rows = 0;
  i64 last_cycle = -1, last_ps = -1;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) + 1,
              columns)
        << "ragged row: " << line;
    const i64 cycle = std::stoll(line);
    const i64 ps = std::stoll(line.substr(line.find(',') + 1));
    EXPECT_GT(cycle, last_cycle) << "cycle column must increase";
    EXPECT_GE(ps, last_ps) << "ps column must not go backwards";
    last_cycle = cycle;
    last_ps = ps;
  }
  EXPECT_GT(rows, 1u);
}

TEST(TraceFiles, FailedRunStillWritesPartialTrace) {
  const fs::path dir = scratch_dir("failed_run");
  sim::MatrixJob job = traced_job("count", dir);
  job.options.trace.interval_cycles = 0;
  job.options.trace.ring_entries = 64;
  job.options.cfg.watchdog.max_cycles = 500;  // guaranteed trip mid-run
  const sim::MatrixResult run = sim::run_job(job);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error.find("watchdog"), std::string::npos) << run.error;
  ASSERT_EQ(run.trace_files.size(), 2u);  // chrome json + ring
  // The chrome trace of the aborted run still validates, and the ring ends
  // with the watchdog trip event.
  const trace::JsonValue doc =
      trace::json_parse(read_file((dir / "millipede-count.trace.json")
                                      .string()));
  EXPECT_TRUE(doc.find("traceEvents")->is_array());
  const std::string blob =
      read_file((dir / "millipede-count.ring.bin").string());
  ASSERT_GT(blob.size(), 32u);
  trace::Event last{};
  std::memcpy(&last, blob.data() + blob.size() - sizeof(trace::Event),
              sizeof(trace::Event));
  EXPECT_EQ(last.kind, trace::EventKind::kWatchdogTrip);
  EXPECT_EQ(last.a, 500u);
}

TEST(TraceFiles, BitIdenticalAcrossMatrixThreadCounts) {
  const fs::path dir1 = scratch_dir("jobs1");
  const fs::path dir8 = scratch_dir("jobs8");
  const std::vector<std::string> benches = {"count", "variance", "nbayes",
                                            "kmeans"};
  std::vector<sim::MatrixJob> jobs1, jobs8;
  for (const std::string& bench : benches) {
    jobs1.push_back(traced_job(bench, dir1));
    jobs8.push_back(traced_job(bench, dir8));
  }
  const std::vector<sim::MatrixResult> r1 = sim::run_matrix(jobs1, 1);
  const std::vector<sim::MatrixResult> r8 = sim::run_matrix(jobs8, 8);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok()) << r1[i].error;
    ASSERT_TRUE(r8[i].ok()) << r8[i].error;
    ASSERT_EQ(r1[i].trace_files.size(), r8[i].trace_files.size());
    for (std::size_t f = 0; f < r1[i].trace_files.size(); ++f) {
      EXPECT_EQ(read_file(r1[i].trace_files[f]),
                read_file(r8[i].trace_files[f]))
          << "trace files must not depend on the pool thread count: "
          << r1[i].trace_files[f];
    }
  }
}

// ----------------------------------------------------------- sweep CSV ----

TEST(SweepCsv, HeaderIsLocked) {
  // Golden header: downstream notebooks key on these exact columns. Bump
  // deliberately when adding columns.
  EXPECT_EQ(sim::sweep_csv_header(),
            "arch,bench,cores,pf_entries,bus_efficiency,rows,records,seed,"
            "fault_rate,ecc,channels,ranks,mapping,page_policy,refresh,"
            "runtime_us,cycles,insts,insts_per_word,clock_mhz,"
            "core_uj,dram_uj,leak_uj,row_miss_rate,ecc_corrected,"
            "ecc_detected,fault_retries,error\n");
}

TEST(SweepCsv, SuccessRowShapeAndEccColumns) {
  sim::MatrixJob job;
  job.bench = "count";
  job.options.rows = 24;
  job.options.cfg.dram.fault.bit_flip_rate = 1e-7;
  job.options.cfg.dram.fault.ecc = true;
  const sim::MatrixResult run = sim::run_job(job);
  ASSERT_TRUE(run.ok()) << run.error;
  const std::string header = sim::sweep_csv_header();
  const std::string row = sim::sweep_csv_row(run);
  EXPECT_EQ(std::count(row.begin(), row.end(), ','),
            std::count(header.begin(), header.end(), ','));
  EXPECT_EQ(row.rfind("millipede,count,32,16,0.300,24,", 0), 0u) << row;
  EXPECT_EQ(row.back(), '\n');
  EXPECT_EQ(row[row.size() - 2], ',') << "error column must be empty: " << row;
  // fault_rate and ecc config columns are rendered.
  EXPECT_NE(row.find(",1e-07,1,"), std::string::npos) << row;
}

TEST(SweepCsv, FailedPointKeepsRectangularRow) {
  sim::MatrixJob job;
  job.bench = "pca";
  job.options.records = 2048;
  job.options.cfg.millipede.pf_entries = 8;  // < pca's row footprint
  const sim::MatrixResult run = sim::run_job(job);
  ASSERT_FALSE(run.ok());
  const std::string header = sim::sweep_csv_header();
  const std::string row = sim::sweep_csv_row(run);
  EXPECT_EQ(std::count(row.begin(), row.end(), ','),
            std::count(header.begin(), header.end(), ','))
      << "error text must not add columns: " << row;
  EXPECT_NE(row.find("row footprint"), std::string::npos) << row;
  EXPECT_EQ(row.find('\n'), row.size() - 1) << "single line per point";
  // Metric cells are empty: config prefix is followed immediately by the
  // 12 empty cells.
  EXPECT_NE(row.find(",,,,,,,,,,,,"), std::string::npos) << row;
}

// ----------------------------------------------------------- stats JSON ----

TEST(StatsJson, RoundTripsEveryCounter) {
  sim::MatrixJob ok_job;
  ok_job.bench = "sample";
  ok_job.options.rows = 24;
  sim::MatrixJob bad_job = ok_job;
  bad_job.bench = "nosuchbench";
  const std::vector<sim::MatrixResult> results =
      sim::run_matrix({ok_job, bad_job}, 2);
  const std::string doc_text = sim::stats_json(results);
  const trace::JsonValue doc = trace::json_parse(doc_text);
  EXPECT_EQ(doc.u64_at("schema_version"), sim::kStatsJsonSchemaVersion);
  const trace::JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 2u);

  const trace::JsonValue& good = runs->array[0];
  EXPECT_EQ(good.str_at("arch"), "millipede");
  EXPECT_EQ(good.str_at("bench"), "sample");
  EXPECT_TRUE(good.find("ok")->boolean);
  EXPECT_EQ(good.find("config")->u64_at("rows"), 24u);
  const trace::JsonValue* counters = good.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // Every registered counter survives the round trip, exactly.
  ASSERT_EQ(counters->object.size(), results[0].result.stats.size());
  for (const auto& [name, value] : results[0].result.stats) {
    EXPECT_EQ(counters->u64_at(name), value) << name;
  }
  const trace::JsonValue* metrics = good.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->u64_at("runtime_ps"),
            static_cast<u64>(results[0].result.runtime_ps));
  EXPECT_GT(metrics->find("total_j")->number, 0.0);

  const trace::JsonValue& bad = runs->array[1];
  EXPECT_FALSE(bad.find("ok")->boolean);
  EXPECT_NE(bad.str_at("error").find("unknown benchmark"), std::string::npos);
  EXPECT_EQ(bad.find("counters"), nullptr);

  // Determinism: rendering the same results again is byte-identical.
  EXPECT_EQ(sim::stats_json(results), doc_text);
}

}  // namespace
}  // namespace mlp
