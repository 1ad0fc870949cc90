#include "gpgpu/sm.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace mlp::gpgpu {

StreamingMultiprocessor::StreamingMultiprocessor(const MachineConfig& cfg,
                                                 u32 warp_width, Deps deps)
    : cfg_(cfg),
      warp_width_(warp_width),
      groups_(cfg.core.cores / warp_width),
      deps_(deps),
      reconv_(isa::ReconvergenceTable::build(deps.dcache->program())),
      rr_(groups_, 0) {
  MLP_CHECK(cfg.core.cores % warp_width == 0, "width must divide lanes");
  MLP_CHECK(warp_width <= kMaxLanes, "warp wider than a lane mask");
  MLP_CHECK(deps_.lane_state != nullptr && deps_.dram != nullptr &&
                deps_.banking != nullptr && deps_.stats != nullptr,
            "SM wiring incomplete");
  MLP_CHECK(deps_.l1d != nullptr || deps_.pb != nullptr,
            "SM needs an input path (L1D or prefetch buffer)");
  MLP_CHECK(deps_.lane_state->size() == cfg.core.cores,
            "one live-state store per lane");
  warps_.reserve(static_cast<size_t>(groups_) * cfg.core.contexts);
  for (u32 g = 0; g < groups_; ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) warps_.emplace_back(warp_width_);
  }
  for (u32 i = 0; i < warps_.size(); ++i) warps_[i].index = i;
}

void StreamingMultiprocessor::fill_done(Warp& warp, Picos at) {
  warp.latest_fill = std::max(warp.latest_fill, at);
  MLP_CHECK(warp.outstanding > 0, "spurious fill");
  if (--warp.outstanding == 0) {
    if (deps_.trace != nullptr && warp.waiting) {
      deps_.trace->emit(trace::Domain::kCompute,
                        trace::EventKind::kStallBegin, warp.wait_began,
                        warp.index);
      deps_.trace->emit(trace::Domain::kCompute, trace::EventKind::kStallEnd,
                        warp.latest_fill, warp.index);
    }
    warp.waiting = false;
    warp.ready_at = warp.latest_fill;
    wake_at(warp.ready_at);
  }
}

core::Context& StreamingMultiprocessor::context(u32 group, u32 slot,
                                                u32 lane) {
  MLP_CHECK(group < groups_ && slot < cfg_.core.contexts && lane < warp_width_,
            "context index out of range");
  return warps_[group * cfg_.core.contexts + slot].lanes[lane];
}

bool StreamingMultiprocessor::halted() const {
  for (const Warp& warp : warps_) {
    if (!warp.stack.all_halted()) return false;
  }
  return true;
}

void StreamingMultiprocessor::checkpoint(sim::StateIO& io) {
  io.expect(static_cast<u32>(warps_.size()), "SM warp count");
  io.expect(warp_width_, "SM warp width");
  const u32 program = deps_.dcache->program().size();
  for (Warp& warp : warps_) {
    warp.stack.checkpoint(io, program, warp_width_);
    // Lane pcs are scratch: every issue sets them from the stack's pc.
    for (core::Context& ctx : warp.lanes) {
      for (u32& reg : ctx.regs) io.field(reg);
      io.field(ctx.pc);
      for (u32& value : ctx.csr.values) io.field(value);
      io.field(ctx.instret);
    }
    io.field(warp.ready_at);
    io.field(warp.latest_fill);
  }
  for (u32& cursor : rr_) io.index(cursor, cfg_.core.contexts, "SM cursor");
  io.expect(deps_.lane_state->size(), "SM lane count");
  for (mem::LocalStore& state : *deps_.lane_state) {
    std::vector<u32>& words = state.words();
    io.expect(words.size(), "SM lane-state size");
    for (u32& word : words) io.field(word);
  }
}

std::string StreamingMultiprocessor::debug_dump() const {
  std::string out;
  char line[160];
  for (u32 g = 0; g < groups_; ++g) {
    for (u32 s = 0; s < cfg_.core.contexts; ++s) {
      const Warp& warp = warps_[g * cfg_.core.contexts + s];
      std::snprintf(line, sizeof(line),
                    "  warp[%u.%u] halted=%d waiting=%d outstanding=%u "
                    "ready_at=%llu pc0=%u\n",
                    g, s, warp.stack.all_halted() ? 1 : 0,
                    warp.waiting ? 1 : 0, warp.outstanding,
                    static_cast<unsigned long long>(warp.ready_at),
                    warp.lanes.empty() ? 0 : warp.lanes.front().pc);
      out += line;
    }
  }
  return out;
}

Picos StreamingMultiprocessor::tick(Picos now, Picos period_ps) {
  deps_.dcache->begin_compute_edge();
  const u32 contexts = cfg_.core.contexts;
  bool ready = false;
  for (u32 g = 0; g < groups_; ++g) {
    Warp* group = &warps_[g * contexts];
    // Retry lines previously bounced by a full MSHR (their `outstanding`
    // slots are already counted; only the L1 access is replayed).
    for (u32 s = 0; s < contexts; ++s) {
      Warp& warp = group[s];
      while (!warp.retry_lines.empty()) {
        const Addr line = warp.retry_lines.back();
        const auto status = deps_.l1d->access(line, /*is_write=*/false, now,
                                              {this, warp.index});
        if (status == mem::AccessStatus::kMshrFull) break;
        warp.retry_lines.pop_back();
        if (status == mem::AccessStatus::kHit) {
          fill_done(warp, now + deps_.l1d->hit_latency_ps());
        }
      }
    }
    // Issue one ready warp from this lane group (round robin).
    Warp* chosen = nullptr;
    for (u32 i = 0, slot = rr_[g]; i < contexts; ++i) {
      const u32 next = slot + 1 == contexts ? 0 : slot + 1;
      if (group[slot].runnable(now)) {
        chosen = &group[slot];
        rr_[g] = next;
        break;
      }
      slot = next;
    }
    if (chosen == nullptr) {
      bool group_live = false;
      for (u32 s = 0; s < contexts; ++s) {
        group_live |= !group[s].stack.all_halted();
      }
      if (group_live) {
        deps_.stats->issue_slots_idle.inc();
        // An idle lane group still clocks all its lanes.
        deps_.stats->inactive_lane_slots.inc(warp_width_);
      }
      continue;
    }
    deps_.stats->issue_slots_busy.inc();
    issue(*chosen, g, now, period_ps);
    ready |= !chosen->waiting && !chosen->stack.all_halted();
  }
  // As on the corelet: a warp still ready after issuing usually goes again
  // at the next edge, so only an SM whose warps all blocked looks ahead.
  return ready ? now : next_event(now);
}

Picos StreamingMultiprocessor::next_event(Picos now) const {
  Picos at = sim::kNoEvent;
  for (const Warp& warp : warps_) {
    // MSHR-bounced line replays are retried (and counted) every edge.
    if (!warp.retry_lines.empty()) return now;
    if (warp.waiting || warp.stack.all_halted()) continue;
    at = std::min(at, std::max(warp.ready_at, now));
  }
  return at;
}

void StreamingMultiprocessor::skip_idle(u64 edges) {
  for (u32 g = 0; g < groups_; ++g) {
    bool group_live = false;
    for (u32 s = 0; s < cfg_.core.contexts; ++s) {
      group_live |= !warps_[g * cfg_.core.contexts + s].stack.all_halted();
    }
    if (group_live) {
      deps_.stats->issue_slots_idle.inc(edges);
      deps_.stats->inactive_lane_slots.inc(edges * warp_width_);
    }
  }
}

void StreamingMultiprocessor::issue(Warp& warp, u32 group, Picos now,
                                    Picos period_ps) {
  const u32 pc = warp.stack.pc();
  const LaneMask mask = warp.stack.active_mask();
  const core::DecodedInstr& de = deps_.dcache->entry(pc);
  const isa::Instr& instr = de.instr;

  const u64 active_lanes = static_cast<u64>(std::popcount(mask));
  if (active_lanes > 0) {
    // SIMT convergence batching: the extra active lanes of this warp all
    // execute the one decoded instruction fetched above.
    deps_.dcache->note_batched(active_lanes - 1);
  }
  deps_.stats->warp_instructions.inc();
  deps_.stats->thread_instructions.inc(active_lanes);
  deps_.stats->inactive_lane_slots.inc(warp_width_ - active_lanes);
  if (de.kind == core::StepKind::kFloat) {
    deps_.stats->thread_float_ops.inc(active_lanes);
  } else if (de.kind == core::StepKind::kLocal) {
    deps_.stats->thread_local_accesses.inc(active_lanes);
  } else if (de.kind == core::StepKind::kGlobalLoad) {
    deps_.stats->thread_global_loads.inc(active_lanes);
  }

  // Execute all active lanes functionally at the warp pc, in lane order.
  auto for_active = [&](auto&& fn) {
    for (LaneMask rest = mask; rest != 0; rest &= rest - 1) {
      fn(static_cast<u32>(std::countr_zero(rest)));
    }
  };
  auto step_lane = [&](u32 l) {
    core::Context& ctx = warp.lanes[l];
    ctx.pc = pc;
    return de.fn(de, ctx, (*deps_.lane_state)[lane_id(group, l)],
                 *deps_.dram);
  };

  switch (de.kind) {
    case core::StepKind::kAlu:
    case core::StepKind::kFloat:
    case core::StepKind::kCsr:
    case core::StepKind::kGlobalStore: {
      for_active(step_lane);
      warp.stack.advance(pc + 1);
      warp.ready_at = now + period_ps;
      break;
    }
    case core::StepKind::kLocal: {
      // Gather each lane's shared-memory address for the conflict model.
      u32 accesses = 0;
      for_active([&](u32 l) {
        lane_accesses_[accesses++] = {
            lane_id(group, l),
            warp.lanes[l].reg(instr.rs1) + static_cast<u32>(instr.imm)};
        step_lane(l);
      });
      const u32 conflicts = deps_.banking->conflict_cycles(
          {lane_accesses_.data(), accesses});
      deps_.stats->shared_accesses.inc();
      if (conflicts > 1) {
        deps_.stats->shared_conflict_cycles.inc(conflicts - 1);
      }
      warp.stack.advance(pc + 1);
      warp.ready_at =
          now + static_cast<Picos>(cfg_.gpgpu.shared_latency + conflicts - 1) *
                    period_ps;
      break;
    }
    case core::StepKind::kBranch: {
      LaneMask taken = 0;
      for_active([&](u32 l) {
        if (step_lane(l)) taken |= LaneMask{1} << l;
      });
      deps_.stats->branches.inc();
      const bool diverged =
          warp.stack.branch(taken, de.taken_pc, pc + 1, reconv_.at(pc));
      if (diverged) deps_.stats->divergent_branches.inc();
      u32 cycles = 1;
      if (diverged) {
        cycles += cfg_.core.branch_penalty + cfg_.gpgpu.divergence_penalty;
      } else if (taken != 0) {
        cycles += cfg_.core.branch_penalty;
      }
      warp.ready_at = now + static_cast<Picos>(cycles) * period_ps;
      break;
    }
    case core::StepKind::kJump: {
      u32 target = 0;
      bool first = true;
      for_active([&](u32 l) {
        step_lane(l);
        const u32 lane_target = warp.lanes[l].pc;
        if (first) {
          target = lane_target;
          first = false;
        } else {
          MLP_CHECK(target == lane_target, "divergent indirect jump");
        }
      });
      warp.stack.advance(target);
      warp.ready_at =
          now + static_cast<Picos>(1 + cfg_.core.branch_penalty) * period_ps;
      break;
    }
    case core::StepKind::kHalt: {
      for_active(step_lane);
      warp.stack.halt_lanes(mask);
      break;
    }
    case core::StepKind::kBarrier: {
      // Internal invariant: the software-barrier ablation targets the
      // Millipede processor, and run_arch rejects record barriers on every
      // other kind as a config error before any program reaches the SM.
      MLP_CHECK(false, "bar is not supported on the SM");
      break;
    }
    case core::StepKind::kGlobalLoad: {
      deps_.stats->global_load_warps.inc();
      warp.outstanding = 0;
      warp.latest_fill = now + period_ps;
      if (deps_.pb != nullptr) {
        // Row-oriented input path: per-lane word demands into the prefetch
        // buffer (slab discipline: lane == slab).
        for_active([&](u32 l) {
          core::Context& ctx = warp.lanes[l];
          const Addr addr = core::global_addr(ctx, instr);
          const auto result = deps_.pb->load(lane_id(group, l), 0, addr, now,
                                             {this, warp.index});
          step_lane(l);
          if (result.status == core::PortStatus::kDone) {
            warp.latest_fill = std::max(warp.latest_fill, result.ready_at);
          } else {
            MLP_CHECK(result.status == core::PortStatus::kPending,
                      "prefetch buffer cannot retry");
            ++warp.outstanding;
          }
        });
      } else {
        // Plain path: coalesce active lanes' addresses into L1 lines.
        num_lines_ = 0;
        for_active([&](u32 l) {
          const Addr addr = core::global_addr(warp.lanes[l], instr);
          add_line(addr & ~static_cast<Addr>(cfg_.gpgpu.line_bytes - 1));
          step_lane(l);
        });
        deps_.stats->global_lines.inc(num_lines_);
        for (u32 i = 0; i < num_lines_; ++i) {
          if (deps_.prefetcher != nullptr) {
            deps_.prefetcher->observe(lines_[i], &prefetch_lines_);
            for (const Addr pf : prefetch_lines_) deps_.l1d->prefetch(pf, now);
          }
          start_line_fill(warp, lines_[i], now);
        }
      }
      warp.stack.advance(pc + 1);
      if (warp.outstanding == 0) {
        warp.ready_at = std::max(warp.latest_fill,
                                 now + static_cast<Picos>(
                                           cfg_.gpgpu.l1_hit_latency) *
                                           period_ps);
      } else {
        begin_wait(warp, now);
      }
      break;
    }
  }
}

void StreamingMultiprocessor::add_line(Addr line) {
  u32 at = num_lines_;
  while (at > 0 && lines_[at - 1] > line) --at;
  if (at > 0 && lines_[at - 1] == line) return;
  std::copy_backward(lines_.begin() + at, lines_.begin() + num_lines_,
                     lines_.begin() + num_lines_ + 1);
  lines_[at] = line;
  ++num_lines_;
}

void StreamingMultiprocessor::start_line_fill(Warp& warp, Addr line,
                                              Picos now) {
  const auto status =
      deps_.l1d->access(line, /*is_write=*/false, now, {this, warp.index});
  switch (status) {
    case mem::AccessStatus::kHit:
      warp.latest_fill =
          std::max(warp.latest_fill, now + deps_.l1d->hit_latency_ps());
      break;
    case mem::AccessStatus::kMiss:
      ++warp.outstanding;
      begin_wait(warp, now);
      break;
    case mem::AccessStatus::kMshrFull:
      warp.retry_lines.push_back(line);
      ++warp.outstanding;  // accounted so the warp stays blocked
      begin_wait(warp, now);
      break;
  }
}

}  // namespace mlp::gpgpu
