#include "sim/kernel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mlp::sim {
namespace {

/// Number of `clock` edges strictly before `target` (the grid is anchored
/// at next_edge_ps and spaced by the current period; the period only
/// changes inside processed edges, never across a skipped gap). Most jumps
/// are one or two edges long, so those skip the division.
u64 edges_before(const ClockDomain& clock, Picos target) {
  const Picos edge = clock.next_edge_ps();
  if (target == kNoEvent || target <= edge) return 0;
  const Picos period = clock.period_ps();
  if (target <= edge + period) return 1;
  return static_cast<u64>((target - edge + period - 1) / period);
}

/// First edge of `clock`'s grid at or after `at`.
Picos first_edge_at_or_after(const ClockDomain& clock, Picos at) {
  if (at == kNoEvent) return kNoEvent;
  return clock.next_edge_ps() +
         static_cast<Picos>(edges_before(clock, at)) * clock.period_ps();
}

}  // namespace

void Schedule::attach() {
  const Picos edge = clock_->next_edge_ps();
  wake_.assign(units_.size(), kNoEvent);
  charged_.assign(units_.size(), clock_->ticks());
  edge_ = ~u64{0};
  passed_ = 0;
  earliest_ = kNoEvent;
  for (u32 slot = 0; slot < units_.size(); ++slot) {
    units_[slot]->schedule_ = this;
    units_[slot]->slot_ = slot;
    post(slot, units_[slot]->next_event(edge));
  }
}

void Schedule::tick_due(Picos now, Picos period_ps) {
  edge_ = clock_->ticks();
  passed_ = 0;
  const u32 units = static_cast<u32>(units_.size());
  if (earliest_ > now) {
    passed_ = units;  // every unit idles; its charge waits for a settle
    return;
  }
  // Posts during the scan lower earliest_ directly; each unit's wake joins
  // it as the scan passes (a ticked unit's returned wake replaces posts made
  // before its turn, which may leave earliest_ early — that only costs one
  // scan of an edge with nothing due).
  earliest_ = kNoEvent;
  Picos earliest = kNoEvent;
  for (u32 slot = 0; slot < units; ++slot) {
    if (wake_[slot] <= now) {
      Tickable* unit = units_[slot];
      if (charged_[slot] < edge_) unit->skip_idle(edge_ - charged_[slot]);
      charged_[slot] = edge_ + 1;
      // Units up to this one have passed the edge; a settle() during its
      // tick charges the skipped ones before it for this edge too.
      passed_ = slot + 1;
      wake_[slot] = unit->tick(now, period_ps);
    }
    earliest = std::min(earliest, wake_[slot]);
  }
  passed_ = units;
  earliest_ = std::min(earliest_, earliest);
}

SimulationKernel::SimulationKernel(const MachineConfig& cfg,
                                   std::string watchdog_arch,
                                   trace::TraceSession* trace)
    : compute_(cfg.core.period_ps()),
      channel_(cfg.dram.period_ps()),
      watchdog_cfg_(cfg.watchdog),
      watchdog_arch_(std::move(watchdog_arch)),
      channels_(cfg.dram.channels),
      ranks_(cfg.dram.ranks),
      banks_(cfg.dram.banks),
      fast_forward_(cfg.fast_forward),
      trace_(trace) {}

void SimulationKernel::wire_trace(
    const std::string& process_name, const StatSet* stats,
    const std::function<void(trace::TraceSession*)>& name_tracks,
    const std::function<void(trace::TraceSession*)>& arch_hook,
    std::function<u64()> dram_queue, std::function<u64()> dram_refresh) {
  if (trace_ == nullptr) return;
  trace_->begin_run(process_name, stats);
  if (name_tracks) name_tracks(trace_);
  // Bank tracks span the channel x rank x bank hierarchy; the default 1x1
  // hierarchy keeps the historical flat "dram.bank<b>" names.
  const bool flat = channels_ == 1 && ranks_ == 1;
  for (u32 c = 0; c < channels_; ++c) {
    for (u32 r = 0; r < ranks_; ++r) {
      for (u32 b = 0; b < banks_; ++b) {
        const u32 track =
            trace::kDramTrackBase + (c * ranks_ + r) * banks_ + b;
        trace_->set_track_name(
            track, flat ? "dram.bank" + std::to_string(b)
                        : "dram.c" + std::to_string(c) + ".r" +
                              std::to_string(r) + ".b" + std::to_string(b));
      }
    }
  }
  if (arch_hook) arch_hook(trace_);
  trace_->set_track_name(trace::kWatchdogTrack, "watchdog");
  if (dram_queue) trace_->add_gauge("dram.queue", std::move(dram_queue));
  if (dram_refresh) {
    trace_->add_gauge("dram.refresh", std::move(dram_refresh));
  }
  trace_->add_gauge("clock.period_ps",
                    [this] { return compute_.period_ps(); });
}

bool SimulationKernel::all_quiescent() const {
  for (const auto& [id, state] : states_) {
    if (!state->quiescent()) return false;
  }
  return true;
}

void SimulationKernel::capture(const Watchdog& watchdog) {
  if (fast_forward_) settle_all();  // the counters section must be current
  SnapshotWriter w;

  SnapshotMeta meta;
  if (meta_fn_) meta_fn_(meta);
  meta.cycle = compute_.ticks();
  meta.now_ps = now_;
  w.begin_section(kSecMeta);
  meta.save(w);
  w.end_section();

  w.begin_section(kSecKernel);
  w.put_u64(compute_.period_ps());
  w.put_u64(compute_.next_edge_ps());
  w.put_u64(compute_.ticks());
  w.put_u64(channel_.period_ps());
  w.put_u64(channel_.next_edge_ps());
  w.put_u64(channel_.ticks());
  w.put_u64(now_);
  w.put_u64(watchdog.iterations());
  w.put_u64(watchdog.stalled());
  w.put_u64(watchdog.last_progress());
  w.end_section();

  if (trace_ != nullptr) {
    const trace::TraceSession::SamplerState sampler = trace_->sampler_state();
    w.begin_section(kSecTraceSampler);
    w.put_u64(sampler.next_sample_cycle);
    w.put_u64(sampler.last_cycle);
    w.put_u64(sampler.last_counters.size());
    for (const u64 value : sampler.last_counters) w.put_u64(value);
    w.end_section();
  }

  for (const auto& [id, state] : states_) {
    w.begin_section(id);
    state->save_state(w);
    w.end_section();
  }

  // Counters LAST: restore then overwrites any restore-time side effects.
  if (stats_snapshot_ != nullptr) {
    w.begin_section(kSecStats);
    const auto snap = stats_snapshot_->snapshot();
    w.put_u64(snap.size());
    for (const auto& [name, value] : snap) {
      w.put_string(name);
      w.put_u64(value);
    }
    w.end_section();
  }

  plan_->captured = w.blob();
  plan_->captured_cycle = meta.cycle;
  plan_->captured_ok = true;
}

void SimulationKernel::restore(const std::string& blob) {
  SnapshotReader reader(blob);
  bool saw_meta = false;
  bool saw_kernel = false;
  bool saw_sampler = false;
  bool saw_stats = false;
  SnapshotSection section;
  while (reader.next(&section)) {
    SnapshotCursor& r = section.cursor;
    switch (section.id) {
      case kSecMeta: {
        MLP_SIM_CHECK(!saw_meta, "snapshot", "duplicate meta section");
        SnapshotMeta meta;
        meta.restore(r);
        if (meta_fn_) {
          SnapshotMeta expected;
          meta_fn_(expected);
          MLP_SIM_CHECK(meta.arch_label == expected.arch_label, "snapshot",
                        "snapshot architecture '" + meta.arch_label +
                            "' does not match this machine '" +
                            expected.arch_label + "'");
          MLP_SIM_CHECK(meta.warp_width == expected.warp_width, "snapshot",
                        "snapshot warp width does not match this machine");
          MLP_SIM_CHECK(meta.image_bytes == expected.image_bytes, "snapshot",
                        "snapshot image size does not match this machine");
        }
        saw_meta = true;
        break;
      }
      case kSecKernel: {
        MLP_SIM_CHECK(saw_meta, "snapshot", "kernel section before meta");
        // Named locals: argument evaluation order is unspecified.
        const Picos c_period = r.get_u64();
        const Picos c_edge = r.get_u64();
        const u64 c_ticks = r.get_u64();
        compute_.restore(c_period, c_edge, c_ticks);
        const Picos ch_period = r.get_u64();
        const Picos ch_edge = r.get_u64();
        const u64 ch_ticks = r.get_u64();
        channel_.restore(ch_period, ch_edge, ch_ticks);
        now_ = r.get_u64();
        pending_wd_iterations_ = r.get_u64();
        pending_wd_stalled_ = r.get_u64();
        pending_wd_last_progress_ = r.get_u64();
        saw_kernel = true;
        break;
      }
      case kSecTraceSampler: {
        MLP_SIM_CHECK(trace_ != nullptr, "snapshot",
                      "snapshot was traced but this run has no trace session");
        trace::TraceSession::SamplerState sampler;
        sampler.next_sample_cycle = r.get_u64();
        sampler.last_cycle = r.get_u64();
        const u64 columns = r.get_u64();
        sampler.last_counters.reserve(columns);
        for (u64 i = 0; i < columns; ++i) {
          sampler.last_counters.push_back(r.get_u64());
        }
        trace_->restore_sampler(sampler);
        saw_sampler = true;
        break;
      }
      case kSecStats: {
        MLP_SIM_CHECK(stats_snapshot_ != nullptr, "snapshot",
                      "snapshot has counters but no StatSet is attached");
        const u64 count = r.get_u64();
        for (u64 i = 0; i < count; ++i) {
          const std::string name = r.get_string();
          const u64 value = r.get_u64();
          stats_snapshot_->set(name, value);
        }
        saw_stats = true;
        break;
      }
      default: {
        Snapshottable* target = nullptr;
        for (const auto& [id, state] : states_) {
          if (id == section.id) {
            target = state;
            break;
          }
        }
        MLP_SIM_CHECK(target != nullptr, "snapshot",
                      "unknown snapshot section id " +
                          std::to_string(section.id));
        target->restore_state(r);
        break;
      }
    }
    MLP_SIM_CHECK(r.done(), "snapshot",
                  "trailing bytes in snapshot section " +
                      std::to_string(section.id));
  }
  MLP_SIM_CHECK(saw_meta && saw_kernel, "snapshot",
                "snapshot is missing its meta/kernel sections");
  MLP_SIM_CHECK((trace_ != nullptr) == saw_sampler, "snapshot",
                "trace attachment does not match the snapshot");
  MLP_SIM_CHECK((stats_snapshot_ != nullptr) == saw_stats, "snapshot",
                "counter section presence does not match the snapshot");
  restored_ = true;
}

Picos SimulationKernel::run(const std::function<bool()>& done) {
  MLP_CHECK(progress_ != nullptr, "kernel needs a progress signature");
  Watchdog watchdog(watchdog_cfg_, watchdog_arch_, dump_, trace_);
  if (restored_) {
    watchdog.restore(pending_wd_iterations_, pending_wd_stalled_,
                     pending_wd_last_progress_);
  }
  if (fast_forward_) {
    compute_units_.attach();
    channel_units_.attach();
  }
  const bool want_capture = plan_ != nullptr && plan_->capture;
  // Nothing changes the signature between two processed edges, so the one
  // read after an edge serves the next edge's watchdog step and jump.
  u64 signature = progress_();
  while (!done()) {
    if (fast_forward_) jump(&watchdog, signature);
    if (want_capture && !plan_->captured_ok &&
        compute_.ticks() >= plan_->checkpoint_at && all_quiescent()) {
      capture(watchdog);
    }
    watchdog.step(signature, now_);
    if (compute_.next_edge_ps() <= channel_.next_edge_ps()) {
      now_ = compute_.next_edge_ps();
      const Picos period = compute_.period_ps();
      if (compute_edge_hook_) compute_edge_hook_();
      if (fast_forward_) {
        compute_units_.tick_due(now_, period);
      } else {
        compute_units_.tick_all(now_, period);
      }
      if (trace_ != nullptr) {
        // A sample reads every counter: charge what the idle units owe.
        if (fast_forward_ && compute_.ticks() >= trace_->next_sample_cycle()) {
          settle_all();
        }
        trace_->tick_compute(compute_.ticks(), now_);
      }
      compute_.advance();
    } else {
      now_ = channel_.next_edge_ps();
      const Picos period = channel_.period_ps();
      if (fast_forward_) {
        channel_units_.tick_due(now_, period);
      } else {
        channel_units_.tick_all(now_, period);
      }
      channel_.advance();
    }
    signature = progress_();
  }
  if (fast_forward_) settle_all();
  if (trace_ != nullptr) trace_->finish_run(compute_.ticks(), now_);
  return now_;
}

void SimulationKernel::jump(Watchdog* watchdog, u64 signature) {
  const Picos compute_edge = compute_.next_edge_ps();
  const Picos channel_edge = channel_.next_edge_ps();
  // Earliest time any compute unit could act...
  Picos compute_at = compute_units_.earliest();
  // ... capped at the interval sampler's next sample edge, which must be
  // processed for real so the timeline keeps every row.
  if (trace_ != nullptr) {
    const u64 sample_cycle = trace_->next_sample_cycle();
    if (sample_cycle != ~u64{0}) {
      const u64 ticks = compute_.ticks();
      const Picos sample_at =
          sample_cycle <= ticks
              ? compute_edge
              : compute_edge + static_cast<Picos>(sample_cycle - ticks) *
                                   compute_.period_ps();
      compute_at = std::min(compute_at, sample_at);
    }
  }
  const Picos channel_at = channel_units_.earliest();
  // The common case: the next edge in global order has work.
  if (compute_edge <= channel_edge ? compute_at <= compute_edge
                                   : channel_at <= channel_edge) {
    return;
  }

  // The first edge with a due unit. Every edge strictly before it has no
  // due unit in its domain, so its tick would only have charged what the
  // units' settles charge later. A domain whose earliest wake is not before
  // the other's first due edge cannot move the target.
  const bool compute_first = compute_at <= channel_at;
  Picos target = compute_first ? first_edge_at_or_after(compute_, compute_at)
                               : first_edge_at_or_after(channel_, channel_at);
  if (!compute_first && compute_at < target) {
    target = std::min(target, first_edge_at_or_after(compute_, compute_at));
  } else if (compute_first && channel_at < target) {
    target = std::min(target, first_edge_at_or_after(channel_, channel_at));
  }
  if (target == kNoEvent) return;  // deadlock: step edges to the trip

  const u64 skip_compute = edges_before(compute_, target);
  const u64 skip_channel = edges_before(channel_, target);
  const u64 total = skip_compute + skip_channel;
  if (total == 0) return;
  // Never skip across a watchdog limit: the trip must fire from a real
  // step() at its exact iteration count (and trace timestamp).
  if (total >= watchdog->steps_until_trip(signature)) return;

  // `now` at the resumed edge's step() is the last skipped edge's time,
  // exactly as if it had been polled.
  Picos last = now_;
  if (skip_compute > 0) {
    last = std::max(last, compute_edge + (skip_compute - 1) *
                                             compute_.period_ps());
  }
  if (skip_channel > 0) {
    last = std::max(last, channel_edge + (skip_channel - 1) *
                                             channel_.period_ps());
  }
  now_ = last;
  compute_.advance_by(skip_compute);
  channel_.advance_by(skip_channel);
  watchdog->skip(total, signature);
}

}  // namespace mlp::sim
