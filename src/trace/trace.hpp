#pragma once
// Cycle-domain tracing and interval statistics for the simulator — the
// observability layer behind `--trace`, `--trace-ring`, `--trace-interval`
// and `--stats-json`.
//
// Design constraints, in order:
//  1. OFF MEANS FREE. Components hold a `TraceSession*` that is nullptr in
//     normal runs; every emit site is guarded by that pointer test, so the
//     disabled-path cost is one predictable branch (measured ≤1% with a
//     component micro-benchmark when tracing landed).
//  2. Deterministic. Events are timestamped in simulated picoseconds and
//     contain no host state, so per-job trace files are bit-identical for
//     any `run_matrix` thread count.
//  3. Two capture modes sharing one emit path: an unbounded buffer exported
//     as Chrome-trace JSON (chrome://tracing / Perfetto loadable), and a
//     fixed-capacity binary ring cheap enough to leave on in long sweeps
//     (the most recent N events survive, e.g. for post-mortem of a watchdog
//     trip).
//
// Event taxonomy (see docs/ARCHITECTURE.md for the full table):
//   corelet stall begin/end      compute domain, track = corelet*contexts+ctx
//   DRAM ACT/PRE/RD/WR           channel domain, track = bank, row + hit/miss
//   prefetch lifecycle           issue -> fill -> first-use -> retire/evict,
//                                with the entry's PFT bit and DF counter
//   frequency-scaling steps      rate matcher retunes the compute clock
//   watchdog trip / fault        resilience events
//
// The interval sampler is the timeline view: every `interval_cycles` compute
// cycles it snapshots every registered StatSet counter (as per-interval
// deltas) plus run-registered gauges (prefetch-buffer occupancy, DF
// saturation, clock period) into one CSV row, with derived row-hit-rate and
// IPC columns.

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace mlp::sim {
class StateIO;
}

namespace mlp::trace {

enum class EventKind : u8 {
  kStallBegin,        // a hardware context blocked on a global load
  kStallEnd,          // ...and the data arrived (a = address)
  kDramActivate,      // a = row
  kDramPrecharge,     // a = previously open row
  kDramRead,          // a = row, b = 1 row hit / 0 row miss
  kDramWrite,         // a = row, b = 1 row hit / 0 row miss
  kPrefetchIssue,     // a = row
  kPrefetchFill,      // a = row
  kPrefetchFirstUse,  // a = row, b = (df << 1) | filled
  kPrefetchRetire,    // a = row, b = (df << 1) | pft   (DF-saturated head)
  kPrefetchEvict,     // a = row, b = (df << 1) | pft   (premature eviction)
  kFreqStep,          // a = new period [ps], b = new frequency [kHz]
  kWatchdogTrip,      // a = loop iterations at trip
  kFault,             // a = address, b = bit0 flip / bit1 delay / bit2 drop
  kDramRefresh,       // a = rank, b = refresh debt at issue
};

/// Clock domain an event was recorded against; events are buffered per
/// domain and merged (by timestamp) at export time.
enum class Domain : u8 { kCompute = 0, kChannel = 1 };

/// Track-id convention for non-corelet emitters (corelet stalls use
/// `corelet * contexts + context`, the corelet array's wake index).
inline constexpr u32 kDramTrackBase = 0x10000;  ///< + (channel*ranks + rank)
                                                ///<   * banks + bank
inline constexpr u32 kPrefetchTrack = 0x20000;
inline constexpr u32 kRateMatchTrack = 0x20001;
inline constexpr u32 kWatchdogTrack = 0x20002;

/// One captured event; plain data so the binary ring can write it raw.
struct Event {
  Picos ts = 0;
  u64 a = 0;
  u64 b = 0;
  u32 track = 0;
  EventKind kind = EventKind::kStallBegin;
  Domain domain = Domain::kCompute;
};

struct TraceConfig {
  /// Export the event buffer as Chrome-trace JSON ("--trace").
  bool chrome_json = false;
  /// Fixed-capacity binary ring buffer; 0 disables ("--trace-ring N"). When
  /// set, capture wraps instead of growing and the ring is exported as a
  /// compact binary blob.
  u64 ring_entries = 0;
  /// Interval-sampler cadence in compute cycles; 0 disables
  /// ("--trace-interval N").
  u64 interval_cycles = 0;
  /// Output directory for per-job files (tools / sim::run_job).
  std::string dir = "traces";

  bool enabled() const {
    return chrome_json || ring_entries > 0 || interval_cycles > 0;
  }
};

class TraceSession {
 public:
  explicit TraceSession(const TraceConfig& cfg);

  // ---- capture (hot path; callers guard on the session pointer) ----

  void emit(Domain domain, EventKind kind, Picos ts, u32 track, u64 a = 0,
            u64 b = 0) {
    if (!capture_events_) return;
    record({ts, a, b, track, kind, domain});
  }

  /// Compute-domain edge hook: drives the interval sampler. `cycle` is the
  /// domain's tick count BEFORE this edge.
  void tick_compute(u64 cycle, Picos now) {
    if (cfg_.interval_cycles == 0) return;
    if (cycle < next_sample_cycle_) return;
    sample(cycle, now);
  }

  /// First compute-domain cycle at which tick_compute() would take a sample;
  /// ~u64{0} when interval sampling is off. The simulation kernel caps its
  /// compute-domain fast-forward at this cycle so timelines keep every row.
  u64 next_sample_cycle() const {
    return cfg_.interval_cycles == 0 ? ~u64{0} : next_sample_cycle_;
  }

  // ---- per-run wiring (called once by the architecture model) ----

  /// Names the trace "process" (arch/workload) and attaches the counter set
  /// the interval sampler snapshots. The StatSet must outlive the run.
  void begin_run(std::string process_name, const StatSet* stats);

  /// Registers an instantaneous gauge sampled into the interval timeline.
  /// The callback is only invoked during the run (never at export time).
  void add_gauge(std::string name, std::function<u64()> fn);

  /// Perfetto/chrome thread metadata: names a track in the exported JSON.
  void set_track_name(u32 track, std::string name);

  /// Final simulated timestamp (close of the last interval). Safe to call
  /// whether or not the run completed.
  void finish_run(u64 cycle, Picos now);

  /// Interval-sampler cursor for mid-run snapshots. A restored session
  /// emits exactly the timeline rows the uninterrupted run emits past the
  /// restore point: same sample cycles, same counter deltas (the last
  /// counters hold the values already accounted to earlier rows). Restore
  /// comes between begin_run, which sets the counter columns the blob must
  /// match, and the first sample.
  void checkpoint_sampler(sim::StateIO& io);

  // ---- export ----

  const TraceConfig& config() const { return cfg_; }
  const std::string& process_name() const { return process_name_; }
  u64 events_captured() const { return total_emitted_; }
  u64 events_retained() const;
  /// Events in capture order after ring reassembly (for tests).
  std::vector<Event> events() const;

  /// Chrome-trace JSON (traceEvents array object form). Deterministic for a
  /// given run; timestamps are microseconds with the full picosecond
  /// precision retained in 6 decimals.
  std::string chrome_trace_json() const;

  /// Interval timeline as CSV: cycle,ps,<counter deltas...>,<gauges...>,
  /// row_hit_rate,ipc. Header is stable for a given architecture (columns
  /// are the sorted registered counter names).
  std::string interval_csv() const;

  /// Compact binary blob: "MLPTRACE" magic, version, event size, retained
  /// and total counts, then raw Event records oldest-first.
  std::string binary_blob() const;

 private:
  struct Gauge {
    std::string name;
    std::function<u64()> fn;
  };

  struct IntervalRow {
    u64 cycle = 0;
    Picos ps = 0;
    std::vector<u64> counter_deltas;  ///< aligned with counter_names_
    std::vector<u64> gauges;          ///< aligned with gauges_
  };

  void record(const Event& event) {
    ++total_emitted_;
    if (cfg_.ring_entries > 0 && events_.size() >= cfg_.ring_entries) {
      events_[ring_head_] = event;
      ring_head_ = (ring_head_ + 1) % cfg_.ring_entries;
      return;
    }
    events_.push_back(event);
  }

  void sample(u64 cycle, Picos now);

  TraceConfig cfg_;
  bool capture_events_ = false;
  std::string process_name_;

  std::vector<Event> events_;
  u64 ring_head_ = 0;  ///< oldest element once the ring wrapped
  u64 total_emitted_ = 0;

  std::vector<std::pair<u32, std::string>> track_names_;

  // Interval sampler state.
  const StatSet* stats_ = nullptr;
  std::vector<std::string> counter_names_;
  std::vector<u64> last_counters_;
  std::vector<Gauge> gauges_;
  std::vector<IntervalRow> rows_;
  u64 next_sample_cycle_ = 0;
  u64 last_cycle_ = 0;
  /// Cycle baseline for the first row's per-interval rates; nonzero only in
  /// a snapshot-restored session (the pre-capture rows live in the capturing
  /// process's timeline).
  u64 base_cycle_ = 0;
};

/// Registers the standard per-context track names ("c3.x1") used by the
/// MIMD architectures' stall events.
void name_context_tracks(TraceSession* session, u32 cores, u32 contexts);

}  // namespace mlp::trace
