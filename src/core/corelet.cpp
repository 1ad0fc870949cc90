#include "core/corelet.hpp"

#include <algorithm>
#include <cstdio>

#include "core/decode_cache.hpp"

namespace mlp::core {

Corelet::Corelet(CoreletArray* array, u32 core_id, const CoreConfig& cfg,
                 DecodedBlockCache* dcache, mem::LocalStore* local,
                 mem::DramImage* dram, GlobalPort* port, ExecStats* stats,
                 trace::TraceSession* trace, u32 issue_width)
    : contexts_(cfg.contexts),
      issue_width_(issue_width),
      branch_penalty_(cfg.branch_penalty),
      dcache_(dcache),
      local_(local),
      dram_(dram),
      stats_(stats),
      array_(array),
      core_id_(core_id),
      cfg_(cfg),
      port_(port),
      trace_(trace),
      issued_(cfg.contexts) {
  MLP_CHECK(dcache_ != nullptr && local_ != nullptr && dram_ != nullptr &&
                port_ != nullptr && stats_ != nullptr,
            "corelet wiring incomplete");
  MLP_CHECK(issue_width_ > 0, "corelet issue width must be positive");
  const auto straight = [this](StepKind kind, Counter* counter, u32 cycles) {
    timing_[static_cast<u32>(kind)] = {counter, cycles};
  };
  straight(StepKind::kAlu, &stats_->int_alu, 1);
  straight(StepKind::kCsr, &stats_->int_alu, 1);
  straight(StepKind::kFloat, &stats_->float_alu, 1);
  straight(StepKind::kBranch, &stats_->branches, 1);
  straight(StepKind::kJump, &stats_->jumps, 1 + branch_penalty_);
  if (port_->local_latency_fixed()) {
    straight(StepKind::kLocal, &stats_->local_ops, cfg_.local_latency);
  }
  recount_live();
}

void Corelet::recount_live() {
  live_contexts_ = 0;
  for (const Context& ctx : contexts_) {
    if (ctx.state != Context::State::kHalted) ++live_contexts_;
  }
}

void Corelet::checkpoint(sim::StateIO& io) {
  io.expect(static_cast<u32>(contexts_.size()), "corelet context count");
  const u32 program = dcache_->program().size();
  for (Context& ctx : contexts_) {
    for (u32& reg : ctx.regs) io.field(reg);
    io.index(ctx.pc, program, "corelet pc");
    u8 state = static_cast<u8>(ctx.state);
    io.field(state);
    ctx.state = static_cast<Context::State>(state);
    // Quiescence: no context is blocked on memory at a capture.
    io.require(ctx.state == Context::State::kReady ||
                   ctx.state == Context::State::kHalted,
               "corelet context state");
    io.field(ctx.ready_at);
    for (u32& value : ctx.csr.values) io.field(value);
    io.field(ctx.instret);
  }
  io.index(rr_next_, contexts_.size(), "corelet round-robin cursor");
  std::vector<u32>& words = local_->words();
  io.expect(words.size(), "corelet local-store size");
  for (u32& word : words) io.field(word);
  if (io.loading()) {
    recount_live();
    array_->recount_live();
  }
}

// Inlined into tick(): the straight path is the per-instruction hot loop.
[[gnu::always_inline]] inline bool Corelet::issue(u32 index, Picos now,
                                                  Picos period_ps) {
  rr_next_ = following(index);
  Context& ctx = contexts_[index];
  const DecodedInstr& de = dcache_->entry(ctx.pc);
  const KindTiming& timing = timing_[static_cast<u32>(de.kind)];
  if (timing.counter == nullptr) {
    return issue_to_port(de, ctx, index, now, period_ps);
  }
  const bool taken = de.fn(de, ctx, *local_, *dram_);
  stats_->instructions.inc();
  stats_->busy_cycles.inc();
  timing.counter->inc();
  stats_->branches_taken.inc(taken);
  ctx.ready_at =
      now + static_cast<Picos>(timing.cycles + taken * branch_penalty_) *
                period_ps;
  return true;
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
  if (ready) return now;
  // A kReady context issues at its wake-up edge; kWaitMem and kHalted
  // contexts only become schedulable through a wake. A kReady context whose
  // last issue hit port backpressure (kRetry) keeps ready_at <= now, so
  // retry polling is never skipped over.
  Picos at = sim::kNoEvent;
  for (const Context& ctx : contexts_) {
    if (ctx.state != Context::State::kReady) continue;
    at = std::min(at, std::max(ctx.ready_at, now));
  }
  return at;
}

void Corelet::wake(u32 index, Picos at) {
  Context& ctx = contexts_[index];
  IssueRecord& record = issued_[index];
  if (record.traced) {
    // Both edges of the stall slice are emitted at wake time (begin carries
    // the issue timestamp; the exporter orders by ts), so a load that
    // completes at once adds no events.
    const u32 track = core_id_ * cfg_.contexts + index;
    trace_->emit(trace::Domain::kCompute, trace::EventKind::kStallBegin,
                 record.began, track, record.addr);
    trace_->emit(trace::Domain::kCompute, trace::EventKind::kStallEnd, at,
                 track, record.addr);
    record.traced = false;
  }
  ctx.state = Context::State::kReady;
  ctx.ready_at = at;
}

bool Corelet::issue_to_port(const DecodedInstr& de, Context& ctx, u32 index,
                            Picos now, Picos period_ps) {
  if (de.kind == StepKind::kHalt) {
    de.fn(de, ctx, *local_, *dram_);
    stats_->instructions.inc();
    stats_->busy_cycles.inc();
    --live_contexts_;
    array_->retire_thread(*this, now, period_ps);
    return false;
  }
  if (de.kind == StepKind::kGlobalStore) {
    const PortResult result =
        port_->store(core_id_, index, global_addr(ctx, de.instr), now);
    if (result.status == PortStatus::kRetry) {
      stats_->retry_stalls.inc();
      return true;
    }
    de.fn(de, ctx, *local_, *dram_);
    stats_->instructions.inc();
    stats_->global_stores.inc();
    stats_->busy_cycles.inc();
    ctx.ready_at = std::max(result.ready_at, now + period_ps);
    return true;
  }

  // Loads, port-timed live-state accesses and barriers block the context
  // until the port or the barrier fires its wake, which may happen before
  // the call returns; a retry leaves the instruction unexecuted.
  const sim::Wake wake{array_, core_id_ * cfg_.contexts + index};
  ctx.state = Context::State::kWaitMem;
  PortResult result;
  Counter* counter = nullptr;
  switch (de.kind) {
    case StepKind::kGlobalLoad: {
      const Addr addr = global_addr(ctx, de.instr);
      if (trace_ != nullptr) issued_[index] = {now, addr, true};
      result = port_->load(core_id_, index, addr, now, wake);
      // A load that completes at once or retries opens no stall slice.
      if (result.status != PortStatus::kPending) issued_[index].traced = false;
      counter = &stats_->global_loads;
      break;
    }
    case StepKind::kLocal:
      // Live state behind a cache: the latency is the port's to decide.
      result = port_->local_access(
          core_id_, index, global_addr(ctx, de.instr), de.is_store,
          now + static_cast<Picos>(cfg_.local_latency) * period_ps, now,
          wake);
      counter = &stats_->local_ops;
      break;
    default:
      MLP_CHECK(de.kind == StepKind::kBarrier, "kind issues straight");
      result = array_->barrier()->arrive(now, period_ps, wake);
      break;
  }
  if (result.status == PortStatus::kRetry) {
    ctx.state = Context::State::kReady;
    stats_->retry_stalls.inc();
    return true;
  }
  de.fn(de, ctx, *local_, *dram_);
  stats_->instructions.inc();
  stats_->busy_cycles.inc();
  if (counter != nullptr) counter->inc();
  if (result.status == PortStatus::kDone) {
    ctx.state = Context::State::kReady;
    ctx.ready_at = result.ready_at;
  }
  return ctx.state == Context::State::kReady;
}

CoreletArray::CoreletArray(const CoreConfig& cfg, DecodedBlockCache* dcache,
                           std::span<mem::LocalStore> locals,
                           mem::DramImage* dram, GlobalPort* port,
                           ExecStats* stats, trace::TraceSession* trace,
                           u32 issue_width)
    : wake_(cfg.cores, 0),
      dcache_(dcache),
      stats_(stats),
      contexts_(cfg.contexts),
      issue_width_(issue_width) {
  MLP_CHECK(locals.size() == cfg.cores, "one local store per core");
  corelets_.reserve(cfg.cores);
  for (u32 c = 0; c < cfg.cores; ++c) {
    corelets_.emplace_back(this, c, cfg, dcache, &locals[c], dram, port,
                           stats, trace, issue_width);
  }
  if (dcache->program().contains(isa::Opcode::kBar)) {
    barrier_.emplace(cfg.threads());
  }
  recount_live();
}

void CoreletArray::recount_live() {
  live_cores_ = 0;
  for (const Corelet& core : corelets_) live_cores_ += !core.halted();
}

Picos CoreletArray::tick(Picos now, Picos period_ps) {
  dcache_->begin_compute_edge();
  // Polled, every core is due at every edge.
  const Picos due_by = scheduled() ? now : sim::kNoEvent;
  u64 idle = live_cores_;  // less each live core ticked
  Picos next = sim::kNoEvent;
  woken_ = sim::kNoEvent;
  for (u32 c = 0; c < corelets_.size(); ++c) {
    if (wake_[c] <= due_by) {
      idle -= !corelets_[c].halted();
      wake_[c] = corelets_[c].tick(now, period_ps);
      ++core_ticks_;
    }
    next = std::min(next, wake_[c]);
  }
  stats_->idle_cycles.inc(idle * issue_width_);
  // A barrier released by a later core's halt wakes a core the loop
  // already passed.
  return std::min(next, woken_);
}

Picos CoreletArray::next_event(Picos now) const {
  // A core ticked before its wake only idles, so an early wake is safe.
  return std::max(now, *std::min_element(wake_.begin(), wake_.end()));
}

void CoreletArray::wake(u32 index, Picos at) {
  const u32 c = index / contexts_;
  corelets_[c].wake(index - c * contexts_, at);
  wake_[c] = std::min(wake_[c], at);
  woken_ = std::min(woken_, at);
  wake_at(at);
}

std::string CoreletArray::debug_dump() const {
  // By Context::State.
  static constexpr const char* kStates[] = {"ready", "wait-mem", "halted"};
  std::string out;
  char line[160];
  for (u32 c = 0; c < corelets_.size(); ++c) {
    for (u32 x = 0; x < contexts_; ++x) {
      const Context& ctx = corelets_[c].context(x);
      std::snprintf(line, sizeof(line),
                    "  corelet[%u].ctx[%u] pc=%u state=%s ready_at=%llu "
                    "instret=%llu\n",
                    c, x, ctx.pc, kStates[static_cast<u32>(ctx.state)],
                    static_cast<unsigned long long>(ctx.ready_at),
                    static_cast<unsigned long long>(ctx.instret));
      out += line;
    }
  }
  return out;
}

}  // namespace mlp::core
