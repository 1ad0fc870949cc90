#pragma once
// The benchmark's own arithmetic, kept apart from the workloads so it can be
// tested without running a simulation: percentiles with their sample counts,
// ratios that keep their base, span self time, and the open-loop schedule
// runner whose latencies count from each operation's due time.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double ms_between(Clock::time_point from, Clock::time_point to);

/// Median in the sense of Python's statistics.median (mean of the two middle
/// values for an even count); 0 for no samples.
double median(std::vector<double> samples);

/// A reported percentile together with what it rests on.
struct Percentile {
  double value = 0.0;
  double pct = 0.0;         ///< the percentile actually reported
  std::size_t samples = 0;  ///< how many samples it was taken from
  int segments = 1;  ///< >1: the median of this many segments' values
};

/// The median as a Percentile (pct 50), with its sample count.
Percentile median_percentile(std::vector<double> samples);

/// Nearest-rank percentile `wanted` (e.g. 99), lowered when needed to the
/// highest percentile that still has at least 10 samples beyond it. With
/// fewer than 11 samples no percentile qualifies and the minimum is
/// reported with pct 0.
Percentile tail_percentile(std::vector<double> samples, double wanted = 99.0);

/// A ratio that is printed with its numerator and denominator, so a reader
/// can tell 1/2 from 500/1000. A zero base reads 0.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den == 0.0 ? 0.0 : num / den; }
  std::string str() const;  ///< "0.5 (1/2)"
};

/// One timed call: a span of the traced run. Times are ns since the run's
/// epoch; `parent` is the index of the enclosing span, -1 at the root.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span recorder shared by all threads of a run. Disabled
/// recorders return -1 from every call and record nothing, so untraced runs
/// pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;

  /// Record a finished span; returns its index (or -1 when disabled).
  std::int64_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t job);
  /// Open a span now and close it later with close(); used for parents
  /// whose children are recorded before the parent ends.
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::uint64_t job);
  void close(std::int64_t index);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON of every span ("X" events, ids in args).
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time per span name, in ns: each span's duration minus the part of
/// its interval that its direct children cover (overlapping children count
/// once; child time outside the parent is ignored).
std::map<std::string, double> self_times_ns(const std::vector<Span>& spans);

/// When one operation of an open-loop schedule was due, started and ended,
/// in ms since the schedule's start.
struct OpTiming {
  double due_ms = 0.0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double latency_ms() const { return end_ms - due_ms; }
  double lag_ms() const { return start_ms - due_ms; }
};

/// Run `op(index, connection)` for every entry of `due_ms` (ascending, ms
/// from now) on `connections` threads. Operations are taken in due order;
/// each starts at its due time or, when every connection is busy, as soon as
/// one frees. Latency counts from the due time, so a stalled operation also
/// delays the ones queued behind it. `op` must not throw.
std::vector<OpTiming> run_open_loop(
    const std::vector<double>& due_ms, unsigned connections,
    const std::function<void(std::size_t, unsigned)>& op);

/// Process high-water resident set size in MB.
double peak_rss_mb();

/// CPU time the process has used so far, user plus system, in seconds.
double process_cpu_s();

}  // namespace perfbench
