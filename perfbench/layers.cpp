// Per-layer roll-ups shared by every workload: simulated work counters
// grouped by the module that does the work, and span self time grouped by
// the layer boundary each span times.

#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Cache counters carry an instance in their name (l1.0.hits, l1d.hits,
/// l1d0.hits, l2.0.hits); sum every instance of one level.
double cache_sum(const std::map<std::string, double>& totals,
                 const std::string& level, const std::string& counter) {
  double sum = 0.0;
  for (const auto& [name, value] : totals) {
    if (starts_with(name, level) && ends_with(name, "." + counter)) {
      sum += value;
    }
  }
  return sum;
}

/// The architecture family a run_job span belongs to, for the millipede and
/// gpgpu rows of the layer table.
std::string arch_family(const std::string& arch) {
  if (arch.find("millipede") != std::string::npos) return "millipede";
  if (arch.find("gpgpu") != std::string::npos ||
      arch.find("vws") != std::string::npos) {
    return "gpgpu";
  }
  return arch;
}

}  // namespace

void Outcome::set_ratio(const std::string& name, const Ratio& r) {
  set(name, r.value(), "ratio");
  note(name + " = " + r.str());
}

void Outcome::set_percentile(const std::string& name, const Percentile& p) {
  char buf[200];
  if (p.segments > 1) {
    std::snprintf(buf, sizeof(buf),
                  "%s = %.6g ms: median over %d segments of p%.4g, %zu samples",
                  name.c_str(), p.value, p.segments, p.pct, p.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "%s = %.6g ms: p%.4g of %zu samples",
                  name.c_str(), p.value, p.pct, p.samples);
  }
  set(name, p.value, "ms");
  note(buf);
}

void set_layer_counters(const std::vector<RunCounters>& runs, double run_ns,
                        Outcome* out) {
  std::map<std::string, double> t;
  double instructions = 0.0;
  double cycles = 0.0;
  double lane_slots = 0.0;
  for (const RunCounters& r : runs) {
    for (const auto& [name, value] : r.stats) {
      t[name] += static_cast<double>(value);
    }
    instructions += static_cast<double>(r.thread_instructions);
    cycles += static_cast<double>(r.compute_cycles);
    const auto warps = r.stats.find("sm.warp_instructions");
    if (warps != r.stats.end()) {
      lane_slots += static_cast<double>(warps->second) * r.warp_width;
    }
  }
  const auto sum = [&t](const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second;
  };
  const auto count = [&](const std::string& name) {
    out->set(name, sum(name), "count");
  };

  // core
  out->set("sim.thread_instructions", instructions, "count");
  for (const char* name : {"exec.instructions", "exec.busy_cycles",
                           "exec.idle_cycles", "decode.block_hits",
                           "decode.batched_lanes"}) {
    count(name);
  }
  out->set_ratio("decode.hit_ratio",
                 {sum("decode.block_hits"),
                  sum("decode.block_hits") + sum("decode.block_misses")});
  out->set("core.ns_per_instr", instructions > 0 ? run_ns / instructions : 0,
           "ns");
  // sim kernel
  out->set("compute_cycles", cycles, "count");
  out->set("kernel.ns_per_edge", cycles > 0 ? run_ns / cycles : 0, "ns");
  // mem
  for (const char* name :
       {"dram.reads", "dram.writes", "dram.queue_rejections"}) {
    count(name);
  }
  const double accepted = sum("dram.reads") + sum("dram.writes");
  out->set_ratio("mem.push_accept_ratio",
                 {accepted, accepted + sum("dram.queue_rejections")});
  out->set_ratio("dram.row_hit_ratio",
                 {sum("dram.row_hits"),
                  sum("dram.row_hits") + sum("dram.row_misses")});
  const double l1_hits = cache_sum(t, "l1", "hits");
  out->set_ratio("l1.hit_ratio",
                 {l1_hits, l1_hits + cache_sum(t, "l1", "misses")});
  out->set("l1.mshr_stalls", cache_sum(t, "l1", "mshr_stalls"), "count");
  out->set_ratio("l1.prefetch_accuracy",
                 {cache_sum(t, "l1", "prefetch_useful"),
                  cache_sum(t, "l1", "prefetch_issued")});
  const double l2_hits = cache_sum(t, "l2", "hits");
  out->set_ratio("l2.hit_ratio",
                 {l2_hits, l2_hits + cache_sum(t, "l2", "misses")});
  // millipede
  for (const char* name : {"pb.hits", "pb.fill_waits", "pb.flow_waits",
                           "pb.direct_fetches", "rate.steps_down"}) {
    count(name);
  }
  // gpgpu
  for (const char* name : {"sm.warp_instructions", "sm.issue_slots_busy",
                           "sm.issue_slots_idle"}) {
    count(name);
  }
  out->set_ratio("sm.lane_utilization",
                 {sum("sm.thread_instructions"), lane_slots});
}

void set_self_times(const std::vector<Span>& spans, double repeats,
                    Outcome* out) {
  std::map<std::string, double> layer_ns;
  for (const auto& [name, ns] : self_times_ns(spans)) {
    std::string layer;
    if (starts_with(name, "setup.prepare")) {
      layer = "prepare";
    } else if (starts_with(name, "pool.wait")) {
      layer = "pool_wait";
    } else if (starts_with(name, "sim.run_job.")) {
      layer = "run_job";
      layer_ns["run_job." + arch_family(name.substr(12))] += ns;
    } else if (starts_with(name, "report.")) {
      layer = "report";
    } else if (starts_with(name, "grid.")) {
      layer = "grid";
    } else if (starts_with(name, "serve.")) {
      layer = "serve";
    } else if (name == "gen.op") {
      layer = "gen";
    } else if (name == "gen.lag") {
      layer = "gen_lag";
    } else {
      continue;
    }
    layer_ns[layer] += ns;
  }
  for (const auto& [layer, ns] : layer_ns) {
    out->set("self_ms." + layer, ns / 1e6 / repeats, "ms");
  }
}

void write_text_file(const std::string& path, const std::string& text,
                     Outcome* out) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written =
      f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) {
    out->fail("cannot close " + path);
  } else if (!written) {
    out->fail("cannot write " + path);
  } else {
    out->note("spans written to " + path);
  }
}

}  // namespace perfbench
