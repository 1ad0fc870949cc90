#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "sim/snapshot.hpp"
#include "trace/json.hpp"

namespace mlp::trace {

namespace {

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kStallBegin:
    case EventKind::kStallEnd: return "mem_stall";
    case EventKind::kDramActivate: return "ACT";
    case EventKind::kDramPrecharge: return "PRE";
    case EventKind::kDramRead: return "RD";
    case EventKind::kDramWrite: return "WR";
    case EventKind::kPrefetchIssue: return "pf_issue";
    case EventKind::kPrefetchFill: return "pf_fill";
    case EventKind::kPrefetchFirstUse: return "pf_first_use";
    case EventKind::kPrefetchRetire: return "pf_retire";
    case EventKind::kPrefetchEvict: return "pf_evict";
    case EventKind::kFreqStep: return "freq_step";
    case EventKind::kWatchdogTrip: return "watchdog_trip";
    case EventKind::kFault: return "fault";
    case EventKind::kDramRefresh: return "REF";
  }
  return "?";
}

/// Simulated picoseconds rendered as chrome-trace microseconds. Integer
/// arithmetic keeps the text deterministic across compilers.
std::string ts_micros(Picos ps) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                static_cast<unsigned long long>(ps / 1000000),
                static_cast<unsigned long long>(ps % 1000000));
  return buf;
}

void csv_append_u64(std::string& out, u64 value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

TraceSession::TraceSession(const TraceConfig& cfg) : cfg_(cfg) {
  capture_events_ = cfg_.chrome_json || cfg_.ring_entries > 0;
  if (cfg_.ring_entries > 0) events_.reserve(cfg_.ring_entries);
  next_sample_cycle_ = cfg_.interval_cycles;
}

void TraceSession::begin_run(std::string process_name, const StatSet* stats) {
  process_name_ = std::move(process_name);
  stats_ = stats;
  counter_names_.clear();
  last_counters_.clear();
  if (stats_ != nullptr && cfg_.interval_cycles > 0) {
    for (const auto& [name, value] : stats_->snapshot()) {
      counter_names_.push_back(name);
      last_counters_.push_back(value);
    }
  }
}

void TraceSession::add_gauge(std::string name, std::function<u64()> fn) {
  if (cfg_.interval_cycles == 0) return;
  MLP_SIM_CHECK(rows_.empty(), "trace", "gauge registered after sampling began");
  gauges_.push_back({std::move(name), std::move(fn)});
}

void TraceSession::set_track_name(u32 track, std::string name) {
  track_names_.emplace_back(track, std::move(name));
}

void TraceSession::sample(u64 cycle, Picos now) {
  // The StatSet may gain counters after begin_run (components register
  // lazily); resync the column set while it still only grows append-sorted.
  const auto snap = stats_ != nullptr
                        ? stats_->snapshot()
                        : std::vector<std::pair<std::string, u64>>{};
  if (snap.size() != counter_names_.size()) {
    MLP_SIM_CHECK(rows_.empty(), "trace",
                  "counter set changed after sampling began");
    counter_names_.clear();
    last_counters_.clear();
    for (const auto& [name, value] : snap) {
      counter_names_.push_back(name);
      last_counters_.push_back(0);
    }
  }
  IntervalRow row;
  row.cycle = cycle;
  row.ps = now;
  row.counter_deltas.reserve(snap.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    row.counter_deltas.push_back(snap[i].second - last_counters_[i]);
    last_counters_[i] = snap[i].second;
  }
  row.gauges.reserve(gauges_.size());
  for (const Gauge& gauge : gauges_) row.gauges.push_back(gauge.fn());
  rows_.push_back(std::move(row));
  last_cycle_ = cycle;
  next_sample_cycle_ = cycle + cfg_.interval_cycles;
}

void TraceSession::checkpoint_sampler(sim::StateIO& io) {
  io.field(next_sample_cycle_);
  io.field(last_cycle_);
  io.expect(last_counters_.size(), "sampler column count");
  for (u64& value : last_counters_) io.field(value);
  // The first restored row's per-interval rates (ipc) divide by the cycles
  // since the last PRE-capture sample, exactly as the uninterrupted export
  // does for that row.
  if (io.loading()) base_cycle_ = last_cycle_;
}

void TraceSession::finish_run(u64 cycle, Picos now) {
  if (cfg_.interval_cycles == 0) return;
  if (!rows_.empty() && rows_.back().cycle == cycle) return;
  if (cycle <= last_cycle_ && !rows_.empty()) return;
  sample(cycle, now);
}

u64 TraceSession::events_retained() const { return events_.size(); }

std::vector<Event> TraceSession::events() const {
  std::vector<Event> out;
  out.reserve(events_.size());
  // ring_head_ is the oldest record once the ring wrapped (0 otherwise).
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(ring_head_ + i) % events_.size()]);
  }
  return out;
}

std::string TraceSession::chrome_trace_json() const {
  // Sort by timestamp for export; stable so same-ts events keep capture
  // order (chrome://tracing requires non-decreasing ts within a thread).
  std::vector<Event> sorted = events();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& x, const Event& y) { return x.ts < y.ts; });

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ns");
  w.key("traceEvents");
  w.begin_array();

  // Metadata: one "process" for the run, one named "thread" per track.
  w.begin_object();
  w.key("name");
  w.value("process_name");
  w.key("ph");
  w.value("M");
  w.key("pid");
  w.value(0);
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(process_name_.empty() ? std::string("mlpsim") : process_name_);
  w.end_object();
  w.end_object();
  for (const auto& [track, name] : track_names_) {
    w.newline();
    w.begin_object();
    w.key("name");
    w.value("thread_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(track);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(name);
    w.end_object();
    w.end_object();
  }

  for (const Event& event : sorted) {
    w.newline();
    w.begin_object();
    w.key("name");
    w.value(event_name(event.kind));
    w.key("ph");
    switch (event.kind) {
      case EventKind::kStallBegin: w.value("B"); break;
      case EventKind::kStallEnd: w.value("E"); break;
      case EventKind::kFreqStep: w.value("C"); break;
      default: w.value("i"); break;
    }
    w.key("ts");
    w.raw(ts_micros(event.ts));
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(event.track);
    if (event.kind != EventKind::kStallBegin &&
        event.kind != EventKind::kStallEnd && event.kind != EventKind::kFreqStep) {
      w.key("s");
      w.value("t");  // thread-scoped instant
    }
    w.key("args");
    w.begin_object();
    w.key("domain");
    w.value(event.domain == Domain::kCompute ? "compute" : "channel");
    switch (event.kind) {
      case EventKind::kStallBegin:
      case EventKind::kStallEnd:
        w.key("addr");
        w.value(event.a);
        break;
      case EventKind::kDramActivate:
      case EventKind::kDramPrecharge:
        w.key("row");
        w.value(event.a);
        break;
      case EventKind::kDramRead:
      case EventKind::kDramWrite:
        w.key("row");
        w.value(event.a);
        w.key("row_hit");
        w.value(event.b != 0);
        break;
      case EventKind::kPrefetchIssue:
      case EventKind::kPrefetchFill:
        w.key("row");
        w.value(event.a);
        break;
      case EventKind::kPrefetchFirstUse:
        w.key("row");
        w.value(event.a);
        w.key("df");
        w.value(event.b >> 1);
        w.key("filled");
        w.value((event.b & 1) != 0);
        break;
      case EventKind::kPrefetchRetire:
      case EventKind::kPrefetchEvict:
        w.key("row");
        w.value(event.a);
        w.key("df");
        w.value(event.b >> 1);
        w.key("pft");
        w.value((event.b & 1) != 0);
        break;
      case EventKind::kFreqStep:
        w.key("mhz");
        // kHz resolution rendered as fixed-point MHz text would lose the
        // counter-track semantics; chrome counters want numbers.
        w.raw(ts_micros(event.b * 1000));  // kHz -> "MHz.micro" fixed point
        break;
      case EventKind::kWatchdogTrip:
        w.key("iterations");
        w.value(event.a);
        break;
      case EventKind::kFault:
        w.key("addr");
        w.value(event.a);
        w.key("kind");
        w.value(event.b == 1 ? "flip" : event.b == 2 ? "delay" : "drop");
        break;
      case EventKind::kDramRefresh:
        w.key("rank");
        w.value(event.a);
        w.key("debt");
        w.value(event.b);
        break;
    }
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  w.newline();
  return w.take();
}

std::string TraceSession::interval_csv() const {
  std::string out = "cycle,ps";
  for (const std::string& name : counter_names_) {
    out += ',';
    out += name;
  }
  for (const Gauge& gauge : gauges_) {
    out += ',';
    out += gauge.name;
  }
  out += ",row_hit_rate,ipc\n";

  // Column indices for the derived per-interval rates.
  auto index_of = [&](const char* name) -> size_t {
    for (size_t i = 0; i < counter_names_.size(); ++i) {
      if (counter_names_[i] == name) return i;
    }
    return counter_names_.size();
  };
  const size_t hit_col = index_of("dram.row_hits");
  const size_t miss_col = index_of("dram.row_misses");
  size_t inst_col = counter_names_.size();
  u64 inst_cols_found = 0;
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    // "exec.instructions" (MIMD archs) or "sm.instructions" (GPGPU).
    if (counter_names_[i].size() > 13 &&
        counter_names_[i].compare(counter_names_[i].size() - 13, 13,
                                  ".instructions") == 0) {
      inst_col = i;
      ++inst_cols_found;
    }
  }

  u64 prev_cycle = base_cycle_;
  for (const IntervalRow& row : rows_) {
    csv_append_u64(out, row.cycle);
    out += ',';
    csv_append_u64(out, row.ps);
    for (const u64 delta : row.counter_deltas) {
      out += ',';
      csv_append_u64(out, delta);
    }
    for (const u64 gauge : row.gauges) {
      out += ',';
      csv_append_u64(out, gauge);
    }
    char buf[48];
    const u64 hits = hit_col < row.counter_deltas.size() ? row.counter_deltas[hit_col] : 0;
    const u64 misses =
        miss_col < row.counter_deltas.size() ? row.counter_deltas[miss_col] : 0;
    const double hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
    const u64 insts = (inst_cols_found == 1 && inst_col < row.counter_deltas.size())
                          ? row.counter_deltas[inst_col]
                          : 0;
    const u64 cycles = row.cycle - prev_cycle;
    const double ipc =
        cycles > 0 ? static_cast<double>(insts) / static_cast<double>(cycles) : 0.0;
    std::snprintf(buf, sizeof(buf), ",%.6f,%.6f\n", hit_rate, ipc);
    out += buf;
    prev_cycle = row.cycle;
  }
  return out;
}

std::string TraceSession::binary_blob() const {
  static_assert(sizeof(Event) == 32, "binary trace layout changed");
  struct Header {
    char magic[8];
    u32 version;
    u32 event_size;
    u64 retained;
    u64 total_emitted;
  };
  static_assert(sizeof(Header) == 32, "binary header layout changed");
  Header header{};
  std::memcpy(header.magic, "MLPTRACE", 8);
  header.version = 1;
  header.event_size = sizeof(Event);
  header.retained = events_.size();
  header.total_emitted = total_emitted_;

  const std::vector<Event> ordered = events();
  std::string out;
  out.resize(sizeof(Header) + ordered.size() * sizeof(Event));
  std::memcpy(out.data(), &header, sizeof(Header));
  if (!ordered.empty()) {
    std::memcpy(out.data() + sizeof(Header), ordered.data(),
                ordered.size() * sizeof(Event));
  }
  return out;
}

void name_context_tracks(TraceSession* session, u32 cores, u32 contexts) {
  if (session == nullptr) return;
  for (u32 core = 0; core < cores; ++core) {
    for (u32 ctx = 0; ctx < contexts; ++ctx) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "c%u.x%u", core, ctx);
      session->set_track_name(core * contexts + ctx, buf);
    }
  }
}

}  // namespace mlp::trace
