#include "gpgpu/sm.hpp"

#include <bit>

#include <algorithm>
#include <cstdio>
#include <set>

namespace mlp::gpgpu {

StreamingMultiprocessor::StreamingMultiprocessor(const MachineConfig& cfg,
                                                 u32 warp_width, Deps deps)
    : cfg_(cfg),
      warp_width_(warp_width),
      groups_(cfg.core.cores / warp_width),
      deps_(deps),
      reconv_(isa::ReconvergenceTable::build(*deps.program)),
      rr_(groups_, 0) {
  MLP_CHECK(cfg.core.cores % warp_width == 0, "width must divide lanes");
  MLP_CHECK(deps_.program != nullptr && deps_.lane_state != nullptr &&
                deps_.dram != nullptr && deps_.banking != nullptr &&
                deps_.stats != nullptr,
            "SM wiring incomplete");
  MLP_CHECK(deps_.l1d != nullptr || deps_.pb != nullptr,
            "SM needs an input path (L1D or prefetch buffer)");
  MLP_CHECK(deps_.lane_state->size() == cfg.core.cores,
            "one live-state store per lane");
  warps_.reserve(static_cast<size_t>(groups_) * cfg.core.contexts);
  for (u32 g = 0; g < groups_; ++g) {
    for (u32 s = 0; s < cfg.core.contexts; ++s) warps_.emplace_back(warp_width_);
  }
  for (u32 i = 0; i < warps_.size(); ++i) warps_[i].track = i;
}

void StreamingMultiprocessor::fill_done(Warp& warp, Picos at) {
  warp.latest_fill = std::max(warp.latest_fill, at);
  MLP_CHECK(warp.outstanding > 0, "spurious fill");
  if (--warp.outstanding == 0) {
    if (deps_.trace != nullptr && warp.waiting) {
      deps_.trace->emit(trace::Domain::kCompute,
                        trace::EventKind::kStallBegin, warp.wait_began,
                        warp.track);
      deps_.trace->emit(trace::Domain::kCompute, trace::EventKind::kStallEnd,
                        warp.latest_fill, warp.track);
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

void StreamingMultiprocessor::save_state(sim::SnapshotWriter& w) const {
  MLP_SIM_CHECK(quiescent(), "snapshot",
                "SM captured with outstanding global fills");
  w.put_u32(static_cast<u32>(warps_.size()));
  w.put_u32(warp_width_);
  for (const Warp& warp : warps_) {
    const auto& stack = warp.stack.entries();
    w.put_u32(static_cast<u32>(stack.size()));
    for (const SimtStack::Entry& entry : stack) {
      w.put_u32(entry.pc);
      w.put_u32(entry.rpc);
      w.put_u64(entry.mask);
    }
    for (const core::Context& ctx : warp.lanes) {
      for (const u32 reg : ctx.regs) w.put_u32(reg);
      w.put_u32(ctx.pc);
      for (const u32 value : ctx.csr.values) w.put_u32(value);
      w.put_u64(ctx.instret);
    }
    w.put_u64(warp.ready_at);
    w.put_u64(warp.latest_fill);
  }
  for (const u32 cursor : rr_) w.put_u32(cursor);
  w.put_u64(deps_.lane_state->size());
  for (const mem::LocalStore& state : *deps_.lane_state) {
    const std::vector<u32>& words = state.words();
    w.put_u64(words.size());
    for (const u32 word : words) w.put_u32(word);
  }
}

void StreamingMultiprocessor::restore_state(sim::SnapshotCursor& r) {
  const u32 warps = r.get_u32();
  const u32 width = r.get_u32();
  MLP_SIM_CHECK(warps == warps_.size() && width == warp_width_, "snapshot",
                "snapshot warp geometry does not match this SM");
  for (Warp& warp : warps_) {
    const u32 depth = r.get_u32();
    std::vector<SimtStack::Entry> stack(depth);
    for (SimtStack::Entry& entry : stack) {
      entry.pc = r.get_u32();
      entry.rpc = r.get_u32();
      entry.mask = r.get_u64();
    }
    warp.stack.restore_entries(std::move(stack));
    for (core::Context& ctx : warp.lanes) {
      for (u32& reg : ctx.regs) reg = r.get_u32();
      ctx.pc = r.get_u32();
      for (u32& value : ctx.csr.values) value = r.get_u32();
      ctx.instret = r.get_u64();
    }
    warp.ready_at = r.get_u64();
    warp.latest_fill = r.get_u64();
    warp.waiting = false;
    warp.outstanding = 0;
    warp.retry_lines.clear();
  }
  for (u32& cursor : rr_) cursor = r.get_u32();
  const u64 lanes = r.get_u64();
  MLP_SIM_CHECK(lanes == deps_.lane_state->size(), "snapshot",
                "snapshot lane count does not match this SM");
  for (mem::LocalStore& state : *deps_.lane_state) {
    std::vector<u32>& words = state.words();
    const u64 size = r.get_u64();
    MLP_SIM_CHECK(size == words.size(), "snapshot",
                  "snapshot lane-state size does not match this SM");
    for (u32& word : words) word = r.get_u32();
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
  for (u32 g = 0; g < groups_; ++g) {
    // Retry lines previously bounced by a full MSHR (their `outstanding`
    // slots are already counted; only the L1 access is replayed).
    for (u32 s = 0; s < cfg_.core.contexts; ++s) {
      Warp& warp = warps_[g * cfg_.core.contexts + s];
      while (!warp.retry_lines.empty()) {
        const Addr line = warp.retry_lines.back();
        const auto status = deps_.l1d->access(
            line, /*is_write=*/false, now,
            [this, &warp](Picos at) { fill_done(warp, at); });
        if (status == mem::AccessStatus::kMshrFull) break;
        warp.retry_lines.pop_back();
        if (status == mem::AccessStatus::kHit) {
          fill_done(warp, now + deps_.l1d->hit_latency_ps());
        }
      }
    }
    // Issue one ready warp from this lane group (round robin).
    Warp* chosen = nullptr;
    for (u32 i = 0; i < cfg_.core.contexts; ++i) {
      const u32 slot = (rr_[g] + i) % cfg_.core.contexts;
      Warp& warp = warps_[g * cfg_.core.contexts + slot];
      if (warp.runnable(now)) {
        chosen = &warp;
        rr_[g] = (slot + 1) % cfg_.core.contexts;
        break;
      }
    }
    if (chosen == nullptr) {
      bool group_live = false;
      for (u32 s = 0; s < cfg_.core.contexts; ++s) {
        group_live |= !warps_[g * cfg_.core.contexts + s].stack.all_halted();
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
  }
  return next_event(now);
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
  // Decode accounting is unconditional (counters stay bit-identical with
  // --no-block-cache); the predecoded dispatch below is what the flag gates.
  const core::DecodedInstr* de =
      deps_.dcache != nullptr ? &deps_.dcache->entry(pc) : nullptr;
  const bool fast = de != nullptr && deps_.dcache->dispatch_enabled();
  const isa::Instr& instr = fast ? de->instr : deps_.program->at(pc);
  const core::StepKind kind = fast ? de->kind : core::classify(instr);

  const u64 active_lanes = static_cast<u64>(std::popcount(mask));
  if (deps_.dcache != nullptr && active_lanes > 0) {
    // SIMT convergence batching: the extra active lanes of this warp all
    // execute the one decoded instruction fetched above.
    deps_.dcache->note_batched(active_lanes - 1);
  }
  deps_.stats->warp_instructions.inc();
  deps_.stats->thread_instructions.inc(active_lanes);
  deps_.stats->inactive_lane_slots.inc(warp_width_ - active_lanes);
  if (kind == core::StepKind::kFloat) {
    deps_.stats->thread_float_ops.inc(active_lanes);
  } else if (kind == core::StepKind::kLocal) {
    deps_.stats->thread_local_accesses.inc(active_lanes);
  } else if (kind == core::StepKind::kGlobalLoad) {
    deps_.stats->thread_global_loads.inc(active_lanes);
  }

  // Execute all active lanes functionally at the warp pc.
  auto for_active = [&](auto&& fn) {
    for (u32 l = 0; l < warp_width_; ++l) {
      if (mask & (LaneMask{1} << l)) fn(l);
    }
  };
  auto step_lane = [&](u32 l) -> core::StepResult {
    core::Context& ctx = warp.lanes[l];
    ctx.pc = pc;
    mem::LocalStore& state = (*deps_.lane_state)[lane_id(group, l)];
    return fast ? core::step_decoded(*de, ctx, state, *deps_.dram)
                : core::step(ctx, *deps_.program, state, *deps_.dram);
  };

  switch (kind) {
    case core::StepKind::kAlu:
    case core::StepKind::kFloat:
    case core::StepKind::kCsr: {
      for_active([&](u32 l) { step_lane(l); });
      warp.stack.advance(pc + 1);
      warp.ready_at = now + period_ps;
      break;
    }
    case core::StepKind::kLocal: {
      // Gather each lane's shared-memory address for the conflict model.
      std::vector<mem::SharedMemBanking::LaneAccess> accesses;
      for_active([&](u32 l) {
        core::Context& ctx = warp.lanes[l];
        accesses.push_back(
            {lane_id(group, l),
             ctx.reg(instr.rs1) + static_cast<u32>(instr.imm)});
        step_lane(l);
      });
      const u32 conflicts = deps_.banking->conflict_cycles(accesses);
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
        if (step_lane(l).branch_taken) taken |= LaneMask{1} << l;
      });
      deps_.stats->branches.inc();
      const u32 target = static_cast<u32>(static_cast<i32>(pc) + instr.imm);
      const bool diverged =
          warp.stack.branch(taken, target, pc + 1, reconv_.at(pc));
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
      for_active([&](u32 l) { step_lane(l); });
      warp.stack.halt_lanes(mask);
      break;
    }
    case core::StepKind::kBarrier: {
      // The software-barrier ablation targets the MIMD machines; SIMT warps
      // are already lockstep within a warp and the kernels never emit `bar`
      // for the SM.
      MLP_CHECK(false, "bar is not supported on the SM");
      break;
    }
    case core::StepKind::kGlobalStore: {
      for_active([&](u32 l) { step_lane(l); });
      warp.stack.advance(pc + 1);
      warp.ready_at = now + period_ps;
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
          ctx.pc = pc;
          const Addr addr = core::global_addr(ctx, instr);
          const auto result = deps_.pb->load(
              lane_id(group, l), 0, addr, now,
              [this, &warp](Picos at) { fill_done(warp, at); });
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
        std::set<Addr> lines;
        for_active([&](u32 l) {
          core::Context& ctx = warp.lanes[l];
          ctx.pc = pc;
          const Addr addr = core::global_addr(ctx, instr);
          lines.insert(addr & ~static_cast<Addr>(cfg_.gpgpu.line_bytes - 1));
          step_lane(l);
        });
        deps_.stats->global_lines.inc(lines.size());
        for (Addr line : lines) {
          if (deps_.prefetcher != nullptr) {
            for (Addr pf : deps_.prefetcher->observe(line)) {
              deps_.l1d->prefetch(pf, now);
            }
          }
          start_line_fill(warp, line, now);
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

void StreamingMultiprocessor::start_line_fill(Warp& warp, Addr line,
                                              Picos now) {
  const auto status = deps_.l1d->access(
      line, /*is_write=*/false, now,
      [this, &warp](Picos at) { fill_done(warp, at); });
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
