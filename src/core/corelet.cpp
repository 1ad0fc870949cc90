#include "core/corelet.hpp"

#include <algorithm>
#include <cstdio>

#include "core/decode_cache.hpp"

namespace mlp::core {

CoreletArray::CoreletArray(const CoreConfig& cfg, DecodedBlockCache* dcache,
                           std::span<mem::LocalStore> locals,
                           mem::DramImage* dram, GlobalPort* port,
                           ExecStats* stats, trace::TraceSession* trace,
                           u32 issue_width)
    : contexts_(cfg.threads()),
      cores_(cfg.cores),
      per_core_(cfg.contexts),
      issue_width_(issue_width),
      branch_penalty_(cfg.branch_penalty),
      local_latency_(cfg.local_latency),
      dcache_(dcache),
      locals_(locals),
      dram_(dram),
      stats_(stats),
      port_(port),
      trace_(trace),
      issued_(cfg.threads()) {
  MLP_CHECK(dcache_ != nullptr && dram_ != nullptr && port_ != nullptr &&
                stats_ != nullptr,
            "corelet wiring incomplete");
  MLP_CHECK(locals.size() == cfg.cores, "one local store per core");
  MLP_CHECK(issue_width_ > 0, "corelet issue width must be positive");
  const auto straight = [this](StepKind kind, Counter* counter, u32 cycles) {
    timing_[static_cast<u32>(kind)] = {counter, cycles};
  };
  straight(StepKind::kAlu, &stats_->int_alu, 1);
  straight(StepKind::kCsr, &stats_->int_alu, 1);
  straight(StepKind::kFloat, &stats_->float_alu, 1);
  straight(StepKind::kBranch, &stats_->branches, 1);
  straight(StepKind::kJump, &stats_->jumps, 1 + branch_penalty_);
  // No BMLA issues a global `sw` (results live in local state); one would
  // write the image and occupy the core for one cycle.
  straight(StepKind::kGlobalStore, &stats_->global_stores, 1);
  if (port_->local_latency_fixed()) {
    straight(StepKind::kLocal, &stats_->local_ops, local_latency_);
  }
  if (dcache->program().contains(isa::Opcode::kBar)) {
    barrier_.emplace(cfg.threads());
  }
  sections_.reserve(cfg.cores);
  for (u32 c = 0; c < cfg.cores; ++c) sections_.emplace_back(this, c);
  recount_live();
}

void CoreletArray::recount_live() {
  live_cores_ = 0;
  for (u32 c = 0; c < cores_.size(); ++c) {
    Core& core = cores_[c];
    core.live = 0;
    for (u32 x = 0; x < per_core_; ++x) {
      core.live += context(c, x).state != Context::State::kHalted;
    }
    live_cores_ += core.live != 0;
  }
}

void CoreletArray::CoreSection::checkpoint(sim::StateIO& io) {
  CoreletArray& a = *array_;
  io.expect(a.per_core_, "corelet context count");
  const u32 program = a.dcache_->program().size();
  for (u32 x = 0; x < a.per_core_; ++x) {
    Context& ctx = a.context(core_, x);
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
  io.index(a.cores_[core_].rr_next, a.per_core_,
           "corelet round-robin cursor");
  std::vector<u32>& words = a.locals_[core_].words();
  io.expect(words.size(), "corelet local-store size");
  for (u32& word : words) io.field(word);
  if (io.loading()) a.recount_live();
}

bool CoreletArray::CoreSection::quiescent() const {
  for (u32 x = 0; x < array_->per_core_; ++x) {
    if (array_->context(core_, x).state == Context::State::kWaitMem) {
      return false;
    }
  }
  return true;
}

// Inlined into tick_core(): the straight path is the per-instruction hot
// loop.
[[gnu::always_inline]] inline bool CoreletArray::issue(
    u32 c, Core& core, Context* ctxs, mem::LocalStore& local, u32 x,
    Picos now, Picos period_ps) {
  core.rr_next = following(x);
  Context& ctx = ctxs[x];
  const DecodedInstr& de = dcache_->entry(ctx.pc);
  const KindTiming& timing = timing_[static_cast<u32>(de.kind)];
  if (timing.counter == nullptr) {
    return issue_to_port(de, ctx, c, now, period_ps);
  }
  const bool taken = de.fn(de, ctx, local, *dram_);
  stats_->instructions.inc();
  stats_->busy_cycles.inc();
  timing.counter->inc();
  stats_->branches_taken.inc(taken);
  ctx.ready_at =
      now + static_cast<Picos>(timing.cycles + taken * branch_penalty_) *
                period_ps;
  return true;
}

Picos CoreletArray::tick_core(u32 c, Picos now, Picos period_ps) {
  Core& core = cores_[c];
  mem::LocalStore& local = locals_[c];
  Context* const ctxs = &context(c, 0);
  bool ready = false;
  for (u32 slot = 0; slot < issue_width_; ++slot) {
    // Round-robin pick of the next runnable context.
    u32 chosen = core.rr_next;
    u32 tried = 0;
    while (tried < per_core_ && !ctxs[chosen].runnable(now)) {
      chosen = following(chosen);
      ++tried;
    }
    if (tried == per_core_) {
      // An idle slot changes nothing, so the edge's later slots idle too.
      if (core.live != 0) stats_->idle_cycles.inc(issue_width_ - slot);
      break;
    }
    ready |= issue(c, core, ctxs, local, chosen, now, period_ps);
  }
  // A context still ready after issuing usually goes again at the next
  // edge, so skip the scan and ask to be ticked then (an early wake is
  // safe); only a core whose contexts all blocked or idled looks ahead.
  if (ready) return now;
  // A kReady context issues at its wake-up edge; kWaitMem and kHalted
  // contexts only become schedulable through a wake. A kReady context whose
  // last issue hit port backpressure (kRetry) keeps ready_at <= now, so
  // retry polling is never skipped over.
  Picos at = sim::kNoEvent;
  for (u32 x = 0; x < per_core_; ++x) {
    if (ctxs[x].state != Context::State::kReady) continue;
    at = std::min(at, std::max(ctxs[x].ready_at, now));
  }
  return at;
}

void CoreletArray::wake(u32 index, Picos at) {
  IssueRecord& record = issued_[index];
  if (record.traced) {
    // Both edges of the stall slice are emitted at wake time (begin carries
    // the issue timestamp; the exporter orders by ts), so a load that
    // completes at once adds no events.
    trace_->emit(trace::Domain::kCompute, trace::EventKind::kStallBegin,
                 record.began, index, record.addr);
    trace_->emit(trace::Domain::kCompute, trace::EventKind::kStallEnd, at,
                 index, record.addr);
    record.traced = false;
  }
  Context& ctx = contexts_[index];
  ctx.state = Context::State::kReady;
  ctx.ready_at = at;
  Picos& core_wake = cores_[index / per_core_].wake;
  core_wake = std::min(core_wake, at);
  woken_ = std::min(woken_, at);
  wake_at(at);
}

bool CoreletArray::issue_to_port(const DecodedInstr& de, Context& ctx, u32 c,
                                 Picos now, Picos period_ps) {
  mem::LocalStore& local = locals_[c];
  if (de.kind == StepKind::kHalt) {
    de.fn(de, ctx, local, *dram_);
    stats_->instructions.inc();
    stats_->busy_cycles.inc();
    live_cores_ -= --cores_[c].live == 0;
    if (barrier_) barrier_->deregister(now, period_ps);
    return false;
  }

  // Loads, port-timed live-state accesses and barriers block the context
  // until the port or the barrier fires its wake, which may happen before
  // the call returns; a retry leaves the instruction unexecuted.
  const u32 index = static_cast<u32>(&ctx - contexts_.data());
  const sim::Wake wake{this, index};
  ctx.state = Context::State::kWaitMem;
  PortResult result;
  Counter* counter = nullptr;
  switch (de.kind) {
    case StepKind::kGlobalLoad: {
      const Addr addr = global_addr(ctx, de.instr);
      if (trace_ != nullptr) issued_[index] = {now, addr, true};
      result = port_->load(c, addr, now, wake);
      // A load that completes at once or retries opens no stall slice.
      if (result.status != PortStatus::kPending) issued_[index].traced = false;
      counter = &stats_->global_loads;
      break;
    }
    case StepKind::kLocal:
      // Live state behind a cache: the latency is the port's to decide.
      result = port_->local_access(
          c, global_addr(ctx, de.instr), de.is_store,
          now + static_cast<Picos>(local_latency_) * period_ps, now, wake);
      counter = &stats_->local_ops;
      break;
    default:
      MLP_CHECK(de.kind == StepKind::kBarrier, "kind issues straight");
      result = barrier_->arrive(now, period_ps, wake);
      break;
  }
  if (result.status == PortStatus::kRetry) {
    ctx.state = Context::State::kReady;
    stats_->retry_stalls.inc();
    return true;
  }
  de.fn(de, ctx, local, *dram_);
  stats_->instructions.inc();
  stats_->busy_cycles.inc();
  if (counter != nullptr) counter->inc();
  if (result.status == PortStatus::kDone) {
    ctx.state = Context::State::kReady;
    ctx.ready_at = result.ready_at;
  }
  return ctx.state == Context::State::kReady;
}

Picos CoreletArray::tick(Picos now, Picos period_ps) {
  dcache_->begin_compute_edge();
  // Polled, every core is due at every edge.
  const Picos due_by = scheduled() ? now : sim::kNoEvent;
  u64 idle = live_cores_;  // less each live core ticked
  Picos next = sim::kNoEvent;
  woken_ = sim::kNoEvent;
  for (u32 c = 0; c < cores_.size(); ++c) {
    Core& core = cores_[c];
    if (core.wake <= due_by) {
      idle -= core.live != 0;
      core.wake = tick_core(c, now, period_ps);
      ++core_ticks_;
    }
    next = std::min(next, core.wake);
  }
  stats_->idle_cycles.inc(idle * issue_width_);
  // A barrier released by a later core's halt wakes a core the loop
  // already passed.
  return std::min(next, woken_);
}

Picos CoreletArray::next_event(Picos now) const {
  // A core ticked before its wake only idles, so an early wake is safe.
  Picos at = sim::kNoEvent;
  for (const Core& core : cores_) at = std::min(at, core.wake);
  return std::max(now, at);
}

std::string CoreletArray::debug_dump() const {
  // By Context::State.
  static constexpr const char* kStates[] = {"ready", "wait-mem", "halted"};
  std::string out;
  char line[160];
  for (u32 i = 0; i < contexts_.size(); ++i) {
    const Context& ctx = contexts_[i];
    std::snprintf(line, sizeof(line),
                  "  corelet[%u].ctx[%u] pc=%u state=%s ready_at=%llu "
                  "instret=%llu\n",
                  i / per_core_, i % per_core_, ctx.pc,
                  kStates[static_cast<u32>(ctx.state)],
                  static_cast<unsigned long long>(ctx.ready_at),
                  static_cast<unsigned long long>(ctx.instret));
    out += line;
  }
  return out;
}

}  // namespace mlp::core
