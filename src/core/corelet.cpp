#include "core/corelet.hpp"

#include <algorithm>

#include "core/decode_cache.hpp"

namespace mlp::core {

Corelet::Corelet(u32 core_id, const CoreConfig& cfg,
                 const isa::Program* program, mem::LocalStore* local,
                 mem::DramImage* dram, GlobalPort* port, ExecStats* stats,
                 trace::TraceSession* trace, DecodedBlockCache* dcache,
                 u32 issue_width, u32* live_corelets)
    : core_id_(core_id),
      cfg_(cfg),
      program_(program),
      local_(local),
      dram_(dram),
      port_(port),
      stats_(stats),
      trace_(trace),
      dcache_(dcache),
      issue_width_(issue_width),
      live_corelets_(live_corelets),
      contexts_(cfg.contexts) {
  MLP_CHECK(program_ != nullptr && local_ != nullptr && dram_ != nullptr &&
                port_ != nullptr && stats_ != nullptr,
            "corelet wiring incomplete");
  MLP_CHECK(issue_width_ > 0, "corelet issue width must be positive");
  recount_live();
}

void Corelet::recount_live() {
  const bool was_live = live_contexts_ != 0;
  live_contexts_ = 0;
  for (const Context& ctx : contexts_) {
    if (ctx.state != Context::State::kHalted) ++live_contexts_;
  }
  const bool live = live_contexts_ != 0;
  if (live_corelets_ != nullptr && live != was_live) {
    if (live) {
      ++*live_corelets_;
    } else {
      --*live_corelets_;
    }
  }
}

void Corelet::save_state(sim::SnapshotWriter& w) const {
  MLP_SIM_CHECK(quiescent(), "snapshot",
                "corelet captured with a context blocked on memory");
  w.put_u32(static_cast<u32>(contexts_.size()));
  for (const Context& ctx : contexts_) {
    for (const u32 reg : ctx.regs) w.put_u32(reg);
    w.put_u32(ctx.pc);
    w.put_u8(static_cast<u8>(ctx.state));
    w.put_u64(ctx.ready_at);
    for (const u32 value : ctx.csr.values) w.put_u32(value);
    w.put_u64(ctx.instret);
  }
  w.put_u32(rr_next_);
  const std::vector<u32>& words = local_->words();
  w.put_u64(words.size());
  for (const u32 word : words) w.put_u32(word);
}

void Corelet::restore_state(sim::SnapshotCursor& r) {
  const u32 contexts = r.get_u32();
  MLP_SIM_CHECK(contexts == contexts_.size(), "snapshot",
                "snapshot context count does not match this corelet");
  for (Context& ctx : contexts_) {
    for (u32& reg : ctx.regs) reg = r.get_u32();
    ctx.pc = r.get_u32();
    const u8 state = r.get_u8();
    MLP_SIM_CHECK(state <= static_cast<u8>(Context::State::kHalted),
                  "snapshot", "invalid context state in snapshot");
    ctx.state = static_cast<Context::State>(state);
    ctx.ready_at = r.get_u64();
    for (u32& value : ctx.csr.values) value = r.get_u32();
    ctx.instret = r.get_u64();
  }
  rr_next_ = r.get_u32();
  std::vector<u32>& words = local_->words();
  const u64 size = r.get_u64();
  MLP_SIM_CHECK(size == words.size(), "snapshot",
                "snapshot local-store size does not match this corelet");
  for (u32& word : words) word = r.get_u32();
  recount_live();
}

Picos Corelet::next_event(Picos now) const {
  // A kReady context issues at its wake-up edge; kWaitMem and kHalted
  // contexts only become schedulable through a port callback. Note a kReady
  // context whose last issue hit port backpressure (kRetry) keeps
  // ready_at <= now, so retry polling is never skipped over.
  Picos at = sim::kNoEvent;
  for (const Context& ctx : contexts_) {
    if (ctx.state != Context::State::kReady) continue;
    at = std::min(at, std::max(ctx.ready_at, now));
  }
  return at;
}

void Corelet::skip_idle(u64 edges) {
  if (!halted()) stats_->idle_cycles.inc(edges * issue_width_);
}

Picos Corelet::tick(Picos now, Picos period_ps) {
  bool ready = false;
  const u32 contexts = static_cast<u32>(contexts_.size());
  for (u32 slot = 0; slot < issue_width_; ++slot) {
    // Round-robin pick of the next runnable context.
    u32 chosen = rr_next_;
    u32 tried = 0;
    while (tried < contexts && !contexts_[chosen].runnable(now)) {
      chosen = following(chosen);
      ++tried;
    }
    if (tried == contexts) {
      // An idle slot changes nothing, so the edge's later slots idle too.
      if (!halted()) stats_->idle_cycles.inc(issue_width_ - slot);
      break;
    }
    ready |= issue(chosen, now, period_ps);
  }
  // A context still ready after issuing usually goes again at the next
  // edge, so skip the scan and ask to be ticked then (an early wake is
  // safe); only a corelet whose contexts all blocked or idled looks ahead.
  return ready ? now : next_event(now);
}

bool Corelet::issue(u32 chosen_index, Picos now, Picos period_ps) {
  rr_next_ = following(chosen_index);
  Context& ctx = contexts_[chosen_index];

  // Decode accounting runs whenever a cache is wired, even with its
  // dispatch fast path disabled (--no-block-cache), so decode.* counters —
  // pure functions of the issue stream — stay bit-identical across modes.
  const DecodedInstr* de =
      dcache_ != nullptr ? &dcache_->entry(ctx.pc) : nullptr;
  const bool fast = de != nullptr && dcache_->dispatch_enabled();
  const isa::Instr& instr = fast ? de->instr : program_->at(ctx.pc);
  const StepKind kind = fast ? de->kind : classify(instr);
  const auto exec = [&]() {
    return fast ? step_decoded(*de, ctx, *local_, *dram_)
                : step(ctx, *program_, *local_, *dram_);
  };

  // Global accesses negotiate the port before committing execution.
  if (kind == StepKind::kGlobalLoad) {
    const Addr addr = global_addr(ctx, instr);
    ctx.state = Context::State::kWaitMem;  // callback may fire synchronously
    PortResult port_result;
    if (trace_ == nullptr) {
      port_result =
          port_->load(core_id_, chosen_index, addr, now,
                      [this, &ctx](Picos at) { wake(ctx, at); });
    } else {
      // A stall slice is only real once the load actually pends; both edges
      // are emitted at wake time (begin carries the issue timestamp — the
      // exporter orders by ts), so synchronous hits add no events. The fat
      // capture is trace-only: the hot path above keeps its two-pointer
      // closure inside std::function's small-buffer optimisation.
      const u32 track = core_id_ * cfg_.contexts + chosen_index;
      port_result = port_->load(
          core_id_, chosen_index, addr, now,
          [this, &ctx, track, addr, now](Picos at) {
            trace_->emit(trace::Domain::kCompute,
                         trace::EventKind::kStallBegin, now, track, addr);
            trace_->emit(trace::Domain::kCompute, trace::EventKind::kStallEnd,
                         at, track, addr);
            wake(ctx, at);
          });
    }
    if (port_result.status == PortStatus::kRetry) {
      ctx.state = Context::State::kReady;
      stats_->retry_stalls.inc();
      return ctx.state == Context::State::kReady;
    }
    exec();
    stats_->instructions.inc();
    stats_->global_loads.inc();
    stats_->busy_cycles.inc();
    if (port_result.status == PortStatus::kDone) {
      ctx.state = Context::State::kReady;
      ctx.ready_at = port_result.ready_at;
    }
    return ctx.state == Context::State::kReady;
  }
  if (kind == StepKind::kGlobalStore) {
    const Addr addr = global_addr(ctx, instr);
    const PortResult port_result = port_->store(core_id_, chosen_index, addr, now);
    if (port_result.status == PortStatus::kRetry) {
      stats_->retry_stalls.inc();
      return ctx.state == Context::State::kReady;
    }
    exec();
    stats_->instructions.inc();
    stats_->global_stores.inc();
    stats_->busy_cycles.inc();
    ctx.ready_at = std::max(port_result.ready_at, now + period_ps);
    return ctx.state == Context::State::kReady;
  }

  if (kind == StepKind::kBarrier) {
    ctx.state = Context::State::kWaitMem;  // release may fire synchronously
    const PortResult port_result =
        port_->barrier(core_id_, chosen_index, now, period_ps,
                       [this, &ctx](Picos at) { wake(ctx, at); });
    exec();
    stats_->instructions.inc();
    stats_->busy_cycles.inc();
    if (port_result.status == PortStatus::kDone) {
      ctx.state = Context::State::kReady;
      ctx.ready_at = port_result.ready_at;
    }
    return ctx.state == Context::State::kReady;
  }
  if (kind == StepKind::kLocal) {
    // Live-state access: latency is architecture-specific (dedicated local
    // memory vs. a cached state region competing with the input stream).
    const Addr addr = global_addr(ctx, instr);
    const Picos fixed =
        now + static_cast<Picos>(cfg_.local_latency) * period_ps;
    ctx.state = Context::State::kWaitMem;  // callback may fire synchronously
    const bool is_store =
        fast ? de->is_store : isa::op_info(instr.op).is_store;
    const PortResult port_result = port_->local_access(
        core_id_, chosen_index, addr, is_store, fixed, now,
        [this, &ctx](Picos at) { wake(ctx, at); });
    if (port_result.status == PortStatus::kRetry) {
      ctx.state = Context::State::kReady;
      stats_->retry_stalls.inc();
      return ctx.state == Context::State::kReady;
    }
    exec();
    stats_->instructions.inc();
    stats_->local_ops.inc();
    stats_->busy_cycles.inc();
    if (port_result.status == PortStatus::kDone) {
      ctx.state = Context::State::kReady;
      ctx.ready_at = port_result.ready_at;
    }
    return ctx.state == Context::State::kReady;
  }

  const StepResult result = exec();
  stats_->instructions.inc();
  stats_->busy_cycles.inc();
  switch (result.kind) {
    case StepKind::kAlu:
    case StepKind::kCsr:
      stats_->int_alu.inc();
      ctx.ready_at = now + period_ps;
      break;
    case StepKind::kFloat:
      stats_->float_alu.inc();
      ctx.ready_at = now + period_ps;
      break;
    case StepKind::kBranch:
      stats_->branches.inc();
      if (result.branch_taken) {
        stats_->branches_taken.inc();
        ctx.ready_at =
            now + static_cast<Picos>(1 + cfg_.branch_penalty) * period_ps;
      } else {
        ctx.ready_at = now + period_ps;
      }
      break;
    case StepKind::kJump:
      stats_->jumps.inc();
      ctx.ready_at =
          now + static_cast<Picos>(1 + cfg_.branch_penalty) * period_ps;
      break;
    case StepKind::kHalt:
      if (--live_contexts_ == 0 && live_corelets_ != nullptr) {
        --*live_corelets_;
      }
      port_->thread_halted(core_id_, chosen_index, now, period_ps);
      break;
    case StepKind::kLocal:
    case StepKind::kGlobalLoad:
    case StepKind::kGlobalStore:
    case StepKind::kBarrier:
      MLP_CHECK(false, "handled above");
  }
  return ctx.state == Context::State::kReady;
}

}  // namespace mlp::core
