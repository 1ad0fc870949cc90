// The service workload: an in-process mlpserved on loopback TCP with a fixed
// worker count, loaded from the same process by an open-loop generator over
// at most nproc connections. Operations are due on a fixed schedule; each is
// timed from its due time, so a slow server shows as latency even when the
// generator is the one kept waiting. The nominal rate gives the latency
// figures; a search over faster rates finds the fastest that still meets the
// latency limit.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/report.hpp"

namespace perfbench {

namespace {

using namespace mlp;

/// Server workers: one more than bench/service_bench.cpp's 2, so that at the
/// nominal rate few jobs wait for a worker. With 2 workers, each about half
/// busy, job p50 rose about twice as fast as the run's CPU time when the host
/// slowed (+42% against +19% across ten runs); with 3, about 1.4 times as
/// fast.
constexpr u32 kWorkers = 3;
/// Records per job: eight times bench/service_bench.cpp's 256, so that the
/// simulation makes up most of a job's latency and the thread handoffs of
/// framing, admission and wakeups the rest. At 256 records the median job
/// simulated in under 1 ms against a job p50 of 1.6-1.9 ms, and the latency
/// figures followed host scheduling: one busy loop beside the benchmark
/// raised job p50 by 25-30% and p99 by 50%. At 2048 records the median job
/// simulates in about 6.7 ms against a job p50 near 7 ms.
constexpr u64 kRecords = 2048;
/// Jobs and snapshots cycle through the kernels and architectures of the
/// membound-grid workload, so the two workloads simulate the same programs,
/// one through the serve layer and one directly.
const char* const kBenches[] = {"count", "sample", "nbayes", "variance"};
const arch::ArchKind kKinds[] = {arch::ArchKind::kMillipede,
                                 arch::ArchKind::kSsmc, arch::ArchKind::kGpgpu,
                                 arch::ArchKind::kMulticore};
/// Offered operations per second at the nominal rate: about a third of the
/// 280-370 ops/s the SLO search reached when the benchmark was defined
/// (4-core x86 host, Release build), so that queueing adds little to the
/// latency figures.
constexpr double kNominalOpsPerS = 100;
/// The latency limit slo_jobs_per_s is measured against: about twice the
/// nominal job p99, which the slowest jobs (nbayes on ssmc and multicore,
/// 50-60 ms on their own) set.
constexpr double kSloMs = 100;
/// A segment has a growing backlog when the median operation due in its last
/// fifth leaves later than this: a server that falls behind holds every
/// connection, so sends queue in the generator. Without this check a short
/// segment met the limit above capacity, before the backlog reached it.
constexpr double kBacklogLagMs = 5;
/// The SLO search bisects, geometrically, between the nominal rate and this
/// multiple of it, well beyond capacity, in this many steps (between this
/// fraction of the nominal rate and the nominal rate, when that misses).
constexpr double kSearchCeiling = 5.0;
constexpr int kSearchSteps = 4;
/// A search step lasts this share of a search: the steps plus the reruns of
/// those that miss (about half of them) fill it.
constexpr double kSearchStepShare = 1.0 / 6;
/// The run is this many rounds, each a nominal segment followed by one SLO
/// search, so a host stall moves one round rather than the run's figures.
constexpr int kRounds = 5;
/// Results compared byte-for-byte with a local run, per run.
constexpr int kCheckedResults = 8;
/// One job in this many uses a fresh data seed.
constexpr u32 kFreshEvery = 10;

/// One operation is one round of bench/service_bench.cpp's request script,
/// drawn in its proportions: of every five, two are a submit and a result
/// wait, one is the same plus a cancel of the finished job, one a ping and a
/// status poll, and one a snapshot and a restore.
enum class OpKind { kJob, kJobCancel, kObserve, kSnapshot };

bool submits(OpKind kind) {
  return kind == OpKind::kJob || kind == OpKind::kJobCancel;
}

struct Op {
  OpKind kind = OpKind::kObserve;
  serve::JobSpec spec;
};

/// What one operation returned. Verb times are client round trips.
struct OpRecord {
  bool ok = false;
  bool refused = false;
  std::string error;
  std::vector<std::pair<const char*, double>> verb_ms;
  double after_result_ms = 0;  ///< the cancel that follows a job's result
  std::string stats;           ///< stats-JSON of the job or restore
  u64 frame_bytes = 0;
  u64 frames = 0;
};

sim::MatrixJob service_job(arch::ArchKind kind, const std::string& bench,
                           u64 data_seed) {
  sim::MatrixJob job;
  job.kind = kind;
  job.bench = bench;
  job.options.records = kRecords;
  job.options.seed = data_seed;
  return job;
}

/// Draws from a fixed multiset in seeded order, reshuffling after each pass,
/// so every seed gets the same proportions.
class Deck {
 public:
  Deck(std::vector<u32> cards, Rng* rng)
      : cards_(std::move(cards)), rng_(rng), next_(cards_.size()) {}

  u32 draw() {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng_->below(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<u32> cards_;
  Rng* rng_;
  std::size_t next_;
};

/// The seeded operation mix: the script's proportions in seeded order. Jobs
/// and snapshots each cycle through every (kernel, architecture) pair on the
/// run's data seed, except that one job in kFreshEvery takes a fresh data
/// seed and so misses the prepare cache. The script has no such jobs; their
/// share is this benchmark's choice, not a measurement.
std::vector<Op> make_ops(u64 seed, u64 segment, std::size_t n) {
  Rng rng(seed * 1000003 + segment);
  Deck kinds({0, 0, 1, 2, 3}, &rng);
  std::vector<u32> pairs(std::size(kBenches) * std::size(kKinds));
  for (u32 k = 0; k < pairs.size(); ++k) pairs[k] = k;
  Deck job_pairs(pairs, &rng);
  Deck snapshot_pairs(pairs, &rng);
  std::vector<u32> fresh_cards(kFreshEvery, 0);
  fresh_cards[0] = 1;
  Deck fresh(fresh_cards, &rng);
  std::vector<Op> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.kind = static_cast<OpKind>(kinds.draw());
    if (op.kind == OpKind::kObserve) continue;
    const bool job = submits(op.kind);
    const u32 pair = (job ? job_pairs : snapshot_pairs).draw();
    const bool fresh_seed = job && fresh.draw() == 1;
    op.spec.job = service_job(
        kKinds[pair % std::size(kKinds)], kBenches[pair / std::size(kKinds)],
        fresh_seed ? (u64{1} << 40) + seed * (u64{1} << 24) +
                         segment * 1000000 + i
                   : seed);
  }
  return ops;
}

/// One timed round trip, with its span when tracing.
serve::Response timed(const char* verb, SpanLog* spans, std::int64_t parent,
                      u64 job, OpRecord* rec,
                      const std::function<serve::Response()>& call) {
  const Clock::time_point a = Clock::now();
  serve::Response r = call();
  const Clock::time_point b = Clock::now();
  rec->verb_ms.emplace_back(verb, ms_between(a, b));
  rec->frame_bytes += r.raw.size();
  ++rec->frames;
  spans->add(std::string("serve.") + verb, spans->to_ns(a), spans->to_ns(b),
             parent, job);
  return r;
}

bool flag(const serve::Response& r, const char* name) {
  const trace::JsonValue* v = r.doc.find(name);
  return v != nullptr && v->boolean;
}

OpRecord execute(const Op& op, serve::Client* c, SpanLog* spans,
                 std::int64_t segment_span, u64 index) {
  OpRecord rec;
  const std::int64_t span = spans->open("gen.op", segment_span, index);
  const auto call = [&](const char* verb,
                        const std::function<serve::Response()>& fn) {
    return timed(verb, spans, span, index, &rec, fn);
  };
  try {
    switch (op.kind) {
      case OpKind::kJob:
      case OpKind::kJobCancel: {
        const serve::Response s =
            call("submit", [&] { return c->submit(op.spec); });
        if (!s.ok) {
          rec.refused = s.error == serve::kErrQueueFull;
          rec.error = "submit: " + s.error;
          break;
        }
        const u64 id = s.doc.u64_at("id");
        const serve::Response r =
            call("result_wait", [&] { return c->result(id, /*wait=*/true); });
        if (!r.ok || r.doc.str_at("state") != "done" || !flag(r, "run_ok")) {
          rec.error = "result: " + (r.ok ? r.doc.str_at("state") : r.error);
          break;
        }
        rec.stats = r.doc.str_at("stats");
        if (op.kind == OpKind::kJobCancel) {
          // Cancelling a finished job is refused with a typed job-done.
          const serve::Response x =
              call("cancel", [&] { return c->cancel(id); });
          rec.after_result_ms = rec.verb_ms.back().second;
          if (x.ok || x.error != serve::kErrJobDone) {
            rec.error = "cancel: " + (x.ok ? "accepted" : x.error);
            break;
          }
        }
        rec.ok = true;
        break;
      }
      case OpKind::kObserve: {
        const serve::Response p = call("ping", [&] { return c->ping(); });
        if (!p.ok) {
          rec.error = "ping: " + p.error;
          break;
        }
        const serve::Response r =
            call("status", [&] { return c->server_status(); });
        rec.ok = r.ok;
        if (!r.ok) rec.error = "status: " + r.error;
        break;
      }
      case OpKind::kSnapshot: {
        const serve::Response s =
            call("snapshot", [&] { return c->snapshot(op.spec, 1); });
        if (!s.ok || !flag(s, "captured")) {
          rec.error = "snapshot: " + (s.ok ? "not captured" : s.error);
          break;
        }
        const serve::Response r =
            call("restore", [&] { return c->restore(op.spec, 1); });
        if (!r.ok || !flag(r, "run_ok")) {
          rec.error = "restore: " + (r.ok ? "run failed" : r.error);
          break;
        }
        rec.stats = r.doc.str_at("stats");
        rec.ok = true;
        break;
      }
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  spans->close(span);
  return rec;
}

/// Server-side counters read from a status response.
struct Counters {
  u64 prepare_hits = 0;
  u64 prepare_misses = 0;
  u64 image_bytes = 0;
  u64 snapshot_hits = 0;
  u64 snapshot_misses = 0;
};

/// An in-process server plus the generator's connections to it. Stops the
/// server and joins its thread on destruction.
class Service {
 public:
  explicit Service(unsigned connections) {
    serve::ServeConfig cfg;
    cfg.listen_address = "127.0.0.1:0";
    cfg.threads = kWorkers;
    server_ = std::make_unique<serve::Server>(cfg);
    server_->listen();
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server stopped: %s\n", e.what());
      }
    });
    try {
      for (unsigned c = 0; c < connections; ++c) {
        clients_.push_back(std::make_unique<serve::Client>());
        clients_.back()->connect(server_->tcp_address());
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Service() { stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  serve::Client* client(unsigned c) { return clients_[c].get(); }

  Counters counters() {
    const serve::Response r = clients_[0]->server_status();
    if (!r.ok) throw std::runtime_error("status failed: " + r.error);
    const trace::JsonValue* cache = r.doc.find("cache");
    const trace::JsonValue* snaps = r.doc.find("snapshots");
    if (cache == nullptr || snaps == nullptr) {
      throw std::runtime_error("status lacks cache counters");
    }
    return {cache->u64_at("hits"), cache->u64_at("misses"),
            cache->u64_at("image_bytes"), snaps->u64_at("hits"),
            snaps->u64_at("misses")};
  }

 private:
  void stop() {
    clients_.clear();
    server_->request_stop();
    thread_.join();
  }

  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
};

/// Start a server, connect, and warm the prepare cache with every repeated
/// key (one per kernel: prepare keys do not depend on the architecture).
std::unique_ptr<Service> start_service(unsigned connections, u64 seed) {
  auto service = std::make_unique<Service>(connections);
  serve::Client* c = service->client(0);
  for (const char* bench : kBenches) {
    serve::JobSpec spec;
    spec.job = service_job(arch::ArchKind::kMillipede, bench, seed);
    const serve::Response s = c->submit(spec);
    const serve::Response r =
        s.ok ? c->result(s.doc.u64_at("id"), true) : s;
    if (!r.ok) throw std::runtime_error("warm-up job failed: " + r.error);
  }
  return service;
}

/// Starts a server for one segment, timing its set-up.
using StartService = std::function<std::unique_ptr<Service>()>;

/// One stretch of the schedule at one offered rate.
struct Segment {
  double length_ms = 0;  ///< from the first due time to one spacing past the last
  double cpu_s = 0;      ///< process CPU time while the segment ran
  std::vector<Op> ops;
  std::vector<OpRecord> records;
  std::vector<OpTiming> timings;
  Counters before;
  Counters after;

  /// From each job's due time until its result arrived, for every job or
  /// only those due in the last fifth. A failed or refused job never meets
  /// the limit: it counts as infinitely late.
  std::vector<double> job_latencies(bool last_fifth = false) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!submits(ops[i].kind) ||
          (last_fifth && timings[i].due_ms < 0.8 * length_ms)) {
        continue;
      }
      out.push_back(records[i].ok ? timings[i].latency_ms() -
                                        records[i].after_result_ms
                                  : std::numeric_limits<double>::infinity());
    }
    return out;
  }
  u64 failures() const {
    u64 n = 0;
    for (const OpRecord& r : records) n += r.ok ? 0 : 1;
    return n;
  }
  double jobs_per_s() const {
    double end_ms = 0;
    for (const OpTiming& t : timings) end_ms = std::max(end_ms, t.end_ms);
    return static_cast<double>(job_latencies().size()) / (end_ms / 1000.0);
  }
  /// How late each operation due in the last fifth left its schedule.
  std::vector<double> last_fifth_lags() const {
    std::vector<double> out;
    for (const OpTiming& t : timings) {
      if (t.due_ms >= 0.8 * length_ms) out.push_back(t.lag_ms());
    }
    return out;
  }
  /// Within the limit with no failure and no growing backlog: the median job
  /// due in the last fifth meets the limit too, and the median operation due
  /// then left on time.
  bool meets_slo() const {
    return failures() == 0 &&
           tail_percentile(job_latencies()).value <= kSloMs &&
           median(job_latencies(true)) <= kSloMs &&
           median(last_fifth_lags()) <= kBacklogLagMs;
  }
};

/// Every segment run at the nominal rate, untraced or traced. Latency
/// figures are medians over the segments, which are spread across the run.
struct Rate {
  std::vector<Segment> segments;

  Percentile percentile(double wanted) const {
    std::vector<double> values;
    Percentile out;
    out.pct = wanted;
    out.segments = static_cast<int>(segments.size());
    for (const Segment& s : segments) {
      const std::vector<double> lat = s.job_latencies();
      const Percentile p = wanted == 50 ? median_percentile(lat)
                                        : tail_percentile(lat, wanted);
      values.push_back(p.value);
      out.pct = std::min(out.pct, p.pct);
      out.samples += p.samples;
    }
    out.value = median(values);
    return out;
  }
  u64 failures() const {
    u64 n = 0;
    for (const Segment& s : segments) n += s.failures();
    return n;
  }
  u64 ops() const {
    u64 n = 0;
    for (const Segment& s : segments) n += s.ops.size();
    return n;
  }
  double cpu_s() const {
    double sum = 0;
    for (const Segment& s : segments) sum += s.cpu_s;
    return sum;
  }
};

/// Runs one segment on a server of its own: a server keeps every job it ran
/// and its status verb walks them all, so a server kept across segments
/// would make each segment slower than the one before.
Segment run_segment(const StartService& start, unsigned connections,
                    u64 seed, u64 index, double ops_per_s, double seconds,
                    SpanLog* spans) {
  std::unique_ptr<Service> service = start();
  Segment p;
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(ops_per_s * seconds)));
  p.ops = make_ops(seed, index, n);
  p.length_ms = 1000.0 * n / ops_per_s;
  p.records.resize(n);
  std::vector<double> due_ms(n);
  for (std::size_t i = 0; i < n; ++i) due_ms[i] = 1000.0 * i / ops_per_s;
  p.before = service->counters();
  const std::int64_t segment_span = spans->open("service.segment", -1, index);
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  p.timings = run_open_loop(due_ms, connections, [&](std::size_t i,
                                                     unsigned c) {
    p.records[i] =
        execute(p.ops[i], service->client(c), spans, segment_span, i);
  });
  p.cpu_s = process_cpu_s() - cpu0;
  spans->close(segment_span);
  for (std::size_t i = 0; i < n && spans->enabled(); ++i) {
    const std::int64_t base = spans->to_ns(t0);
    spans->add("gen.lag",
               base + static_cast<std::int64_t>(p.timings[i].due_ms * 1e6),
               base + static_cast<std::int64_t>(p.timings[i].start_ms * 1e6),
               segment_span, i);
  }
  p.after = service->counters();
  // Hand the server's memory back before the next segment, so that the
  // high-water mark is that of one segment, not of the fragments that the
  // per-thread malloc arenas of earlier servers kept.
  service.reset();
  ::malloc_trim(0);
  return p;
}

/// One SLO search. The round's nominal segment is its lower end, or its
/// upper end when it missed the limit; each step runs a segment at the
/// geometric middle of the rates still in doubt and keeps the half holding
/// the edge. Returns the jobs/s completed at the fastest segment that met the
/// limit (0 when none did).
double search_slo(const StartService& start, unsigned connections, u64 seed,
                  u64 base, const Segment& nominal, double step_s,
                  Outcome* out) {
  SpanLog untraced(false);
  double lo = kNominalOpsPerS;
  double hi = kNominalOpsPerS * kSearchCeiling;
  double best = 0;
  if (nominal.meets_slo()) {
    best = nominal.jobs_per_s();
  } else {
    hi = lo;
    lo /= kSearchCeiling;
  }
  for (int step = 0; step < kSearchSteps; ++step) {
    const double rate = std::sqrt(lo * hi);
    // A host stall of a few tens of ms can fail a short segment on its own,
    // so a rate counts as missing the limit only when it misses twice.
    Segment s = run_segment(start, connections, seed,
                            base + 2 + static_cast<u64>(step), rate, step_s,
                            &untraced);
    if (!s.meets_slo()) {
      s = run_segment(start, connections, seed,
                      base + 2 + kSearchSteps + static_cast<u64>(step), rate,
                      step_s, &untraced);
    }
    if (s.meets_slo()) {
      lo = rate;
      best = s.jobs_per_s();
    } else {
      hi = rate;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SLO search: met the %.0f ms limit up to %.4g ops/s (%.4g "
                "jobs/s done), missed it at %.4g ops/s",
                kSloMs, lo, best, hi);
  out->note(buf);
  return best;
}

RunCounters parse_counters(const std::string& stats_json) {
  const trace::JsonValue doc = trace::json_parse(stats_json);
  RunCounters rc;
  const trace::JsonValue* metrics = doc.find("metrics");
  const trace::JsonValue* counters = doc.find("counters");
  if (metrics == nullptr || counters == nullptr) {
    throw std::runtime_error("result stats lack metrics or counters");
  }
  rc.thread_instructions = metrics->u64_at("thread_instructions");
  rc.compute_cycles = metrics->u64_at("compute_cycles");
  rc.warp_width = static_cast<u32>(metrics->u64_at("warp_width"));
  for (const auto& [name, value] : counters->object) {
    rc.stats[name] = value.unsigned_integer;
  }
  return rc;
}

/// The counters of every simulation the rate's jobs and restores ran.
std::vector<RunCounters> run_counters(const Rate& rate) {
  std::vector<RunCounters> out;
  for (const Segment& s : rate.segments) {
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      if (s.ops[i].kind != OpKind::kObserve && s.records[i].ok) {
        out.push_back(parse_counters(s.records[i].stats));
      }
    }
  }
  return out;
}

/// Output check: a seeded sample of the segment's job and restore results
/// must equal a local sim::stats_json_run of the same job, byte for byte.
void check_sample(const Segment& p, u64 seed, Outcome* out) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].kind != OpKind::kObserve && p.records[i].ok) {
      candidates.push_back(i);
    }
  }
  Rng rng(seed ^ 0x5eedc0ffeeull);
  int checked = 0;
  for (int k = 0; k < kCheckedResults && !candidates.empty(); ++k) {
    const std::size_t i = candidates[rng.below(candidates.size())];
    const std::string local =
        sim::stats_json_run(sim::run_job(p.ops[i].spec.job));
    if (local != p.records[i].stats) {
      out->fail("server result of op " + std::to_string(i) +
                " differs from a local run");
    }
    ++checked;
  }
  out->note("checked " + std::to_string(checked) +
            " sampled results byte-for-byte against local runs");
}

void note_rate(const Rate& rate, const char* label, Outcome* out) {
  const Percentile p50 = rate.percentile(50);
  const Percentile tail = rate.percentile(99);
  std::vector<double> backlog_ms;
  for (const Segment& s : rate.segments) {
    backlog_ms.push_back(median(s.job_latencies(true)));
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: offered %.4g ops/s, %llu ops (%zu jobs) in %zu segments, "
                "%llu failed, %.4g CPU s; median over segments of p50 %.4g "
                "ms, of p%.4g %.4g ms and of the last fifth's p50 %.4g ms",
                label, kNominalOpsPerS,
                static_cast<unsigned long long>(rate.ops()), p50.samples,
                rate.segments.size(),
                static_cast<unsigned long long>(rate.failures()), rate.cpu_s(),
                p50.value, tail.pct, tail.value, median(backlog_ms));
  out->note(buf);
  for (const Segment& s : rate.segments) {
    for (const OpRecord& r : s.records) {
      if (!r.ok) {
        out->note(std::string(label) + " op failed: " + r.error);
        return;
      }
    }
  }
}

}  // namespace

Outcome run_service(const Options& opt) {
  Outcome out;
  const unsigned connections = std::min(4u, opt.nproc);
  out.config["server_workers"] = std::to_string(kWorkers);
  out.config["connections"] = std::to_string(connections);
  out.config["records_per_job"] = std::to_string(kRecords);
  out.config["nominal_ops_per_s"] = std::to_string(kNominalOpsPerS);
  out.config["slo_ms"] = std::to_string(kSloMs);
  out.config["rounds"] = std::to_string(kRounds);
  out.config["search_steps"] = std::to_string(kSearchSteps);

  // Set-up: server start, connections and prepare-cache warm-up, timed for
  // the server of every segment, so the median spans the whole run.
  std::vector<double> setup_s;
  const StartService timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> s = start_service(connections, opt.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return s;
  };

  // Each round runs a nominal segment for half the round and, untraced, an
  // SLO search in the other half; traced runs spend that half on a traced
  // nominal segment instead.
  SpanLog untraced(false);
  SpanLog run_spans(opt.trace);
  Rate nominal;
  Rate traced;
  std::vector<double> slo_jobs_per_s;
  const double half_round_s = opt.seconds / kRounds / 2;
  // One unmeasured nominal segment first, so that first-touch page faults and
  // lazy allocation stay out of the figures.
  run_segment([&] { return start_service(connections, opt.seed); },
              connections, opt.seed, static_cast<u64>(kRounds) * 16,
              kNominalOpsPerS, half_round_s / 2, &untraced);
  for (int round = 0; round < kRounds; ++round) {
    const u64 base = static_cast<u64>(round) * 16;
    nominal.segments.push_back(run_segment(timed_setup, connections, opt.seed,
                                           base, kNominalOpsPerS,
                                           half_round_s, &untraced));
    if (opt.trace) {
      traced.segments.push_back(run_segment(timed_setup, connections,
                                            opt.seed, base + 1,
                                            kNominalOpsPerS, half_round_s,
                                            &run_spans));
    } else {
      slo_jobs_per_s.push_back(search_slo(
          timed_setup, connections, opt.seed, base, nominal.segments.back(),
          half_round_s * kSearchStepShare, &out));
    }
  }
  out.config["setup_repeats"] = std::to_string(setup_s.size());

  note_rate(nominal, "nominal", &out);
  if (opt.trace) note_rate(traced, "traced nominal", &out);
  // Only the nominal-rate segments count towards errors.
  for (const Rate* r : {&nominal, &traced}) {
    out.attempted += r->ops();
    out.failed += r->failures();
  }
  check_sample(nominal.segments.front(), opt.seed, &out);

  if (!opt.trace) {
    double instructions = 0;
    for (const RunCounters& c : run_counters(nominal)) {
      instructions += static_cast<double>(c.thread_instructions);
    }
    out.set("setup_s", median(setup_s), "s");
    out.set("wall_s", nominal.cpu_s(), "s");
    out.set("sim_mips", instructions / nominal.cpu_s() / 1e6, "M_instr/s");
    out.set_percentile("job_p50_ms", nominal.percentile(50));
    out.set_percentile("job_p99_ms", nominal.percentile(99));
    out.set("slo_jobs_per_s", median(slo_jobs_per_s), "jobs/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Per-layer numbers, from the traced nominal segments.
  out.set_ratio("trace.overhead_ratio", {traced.percentile(50).value,
                                         nominal.percentile(50).value});
  std::map<std::string, std::vector<double>> verb_ms;
  u64 frame_bytes = 0;
  u64 frames = 0;
  u64 refused = 0;
  u64 submits_sent = 0;
  std::vector<double> lag_ms;
  Counters delta;
  for (const Segment& s : traced.segments) {
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      const OpRecord& r = s.records[i];
      for (const auto& [verb, ms] : r.verb_ms) verb_ms[verb].push_back(ms);
      frame_bytes += r.frame_bytes;
      frames += r.frames;
      refused += r.refused ? 1 : 0;
      submits_sent += submits(s.ops[i].kind) ? 1 : 0;
      lag_ms.push_back(s.timings[i].lag_ms());
    }
    delta.prepare_hits += s.after.prepare_hits - s.before.prepare_hits;
    delta.prepare_misses += s.after.prepare_misses - s.before.prepare_misses;
    delta.snapshot_hits += s.after.snapshot_hits - s.before.snapshot_hits;
    delta.snapshot_misses +=
        s.after.snapshot_misses - s.before.snapshot_misses;
    delta.image_bytes = s.after.image_bytes;
  }
  for (const auto& [verb, ms] : verb_ms) {
    out.set_percentile("serve." + verb + "_p50_ms", median_percentile(ms));
    out.set_percentile("serve." + verb + "_p99_ms", tail_percentile(ms));
  }
  out.set_ratio("serve.refusals_per_submit",
                {static_cast<double>(refused),
                 static_cast<double>(submits_sent)});
  const double hits = static_cast<double>(delta.prepare_hits);
  const double misses = static_cast<double>(delta.prepare_misses);
  out.set_ratio("serve.prepare_hit_ratio", {hits, hits + misses});
  const double snap_hits = static_cast<double>(delta.snapshot_hits);
  out.set_ratio("serve.snapshot_hit_ratio",
                {snap_hits,
                 snap_hits + static_cast<double>(delta.snapshot_misses)});
  out.set("serve.frame_kb",
          frames == 0 ? 0.0
                      : static_cast<double>(frame_bytes) /
                            static_cast<double>(frames) / 1024.0,
          "KB");
  out.set_percentile("gen.lag_p99_ms", tail_percentile(lag_ms));
  out.set("prepare.cache_hits", hits, "count");
  out.set("prepare.cache_misses", misses, "count");
  out.set("prepare.image_mb",
          static_cast<double>(delta.image_bytes) / (1 << 20), "MB");
  // The server prepares inside its workers, out of sight; time the same
  // entry point locally for each repeated key instead.
  SpanLog setup_spans(opt.trace);
  for (const char* bench : kBenches) {
    const sim::MatrixJob job =
        service_job(arch::ArchKind::kMillipede, bench, opt.seed);
    const Clock::time_point t0 = Clock::now();
    sim::prepare_job(job);
    const Clock::time_point t1 = Clock::now();
    out.set(std::string("prepare.ms.") + bench, ms_between(t0, t1), "ms");
    setup_spans.add(std::string("setup.prepare.") + bench,
                    setup_spans.to_ns(t0), setup_spans.to_ns(t1), -1, 0);
  }
  set_layer_counters(run_counters(traced), 0, &out);
  set_self_times(setup_spans.spans(), 1, &out);
  set_self_times(run_spans.spans(), 1, &out);
  out.set_ratio("error_rate", {static_cast<double>(out.failed),
                               static_cast<double>(out.attempted)});
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  write_text_file(stem + "-setup.trace.json", setup_spans.chrome_json(), &out);
  write_text_file(stem + ".trace.json", run_spans.chrome_json(), &out);
  return out;
}

}  // namespace perfbench
