#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "trace/json.hpp"

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Percentile median_percentile(std::vector<double> samples) {
  Percentile out;
  out.samples = samples.size();
  out.pct = 50;
  out.value = median(std::move(samples));
  return out;
}

Percentile tail_percentile(std::vector<double> samples, double wanted) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n < 11) {
    out.value = samples.front();
    return out;
  }
  // Nearest rank (1-based) of the wanted percentile, then at most n - 10 so
  // that ten samples lie beyond the reported one.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(wanted / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.pct = wanted;
  if (rank > n - 10) {
    rank = n - 10;
    out.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  out.value = samples[rank - 1];
  return out;
}

std::string Ratio::str() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%.17g/%.17g)", value(), num, den);
  return buf;
}

std::int64_t SpanLog::now_ns() const { return to_ns(Clock::now()); }

std::int64_t SpanLog::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t SpanLog::add(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int64_t parent,
                          std::uint64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, job});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::open(const std::string& name, std::int64_t parent,
                           std::uint64_t job) {
  if (!enabled_) return -1;
  return add(name, now_ns(), -1, parent, job);
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanLog::chrome_json() const {
  const std::vector<Span> all = spans();
  mlp::trace::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<double>(s.start_ns) / 1e3);
    w.key("dur");
    w.value(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("pid");
    w.value(mlp::u64{1});
    w.key("tid");
    w.value(static_cast<mlp::u64>(s.job));
    w.key("args");
    w.begin_object();
    w.key("span");
    w.value(static_cast<mlp::u64>(i));
    w.key("parent");
    w.value(static_cast<mlp::i64>(s.parent));
    w.key("job");
    w.value(static_cast<mlp::u64>(s.job));
    w.end_object();
    w.end_object();
    w.newline();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::map<std::string, double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::vector<OpTiming> run_open_loop(
    const std::vector<double>& due_ms, unsigned connections,
    const std::function<void(std::size_t, unsigned)>& op) {
  std::vector<OpTiming> timings(due_ms.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  const auto worker = [&](unsigned connection) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_ms.size()) return;
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    due_ms[i]));
      std::this_thread::sleep_until(due);
      OpTiming& t = timings[i];
      t.due_ms = due_ms[i];
      t.start_ms = ms_between(t0, Clock::now());
      op(i, connection);
      t.end_ms = ms_between(t0, Clock::now());
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < std::max(1u, connections); ++c) {
    threads.emplace_back(worker, c);
  }
  for (std::thread& t : threads) t.join();
  return timings;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
