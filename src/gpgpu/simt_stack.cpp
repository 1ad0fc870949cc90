#include "gpgpu/simt_stack.hpp"

namespace mlp::gpgpu {
namespace {

LaneMask all_lanes(u32 width) {
  return width == 64 ? ~LaneMask{0} : ((LaneMask{1} << width) - 1);
}

}  // namespace

SimtStack::SimtStack(u32 width) {
  MLP_CHECK(width >= 1 && width <= 64, "warp width out of range");
  stack_.push_back({0, kNoReconv, all_lanes(width)});
}

void SimtStack::pop_converged() {
  // Classic GPGPU-Sim rule: pop the top while its lanes are all gone or it
  // has reached its reconvergence pc; execution then continues from the
  // entry beneath (the reconvergence placeholder holds the merged mask —
  // masks are nested supersets down the stack).
  while (!stack_.empty()) {
    const Entry& top = stack_.back();
    if (top.mask == 0) {
      stack_.pop_back();
      continue;
    }
    if (top.rpc != kNoReconv && top.pc == top.rpc) {
      stack_.pop_back();
      continue;
    }
    break;
  }
}

void SimtStack::advance(u32 next_pc) {
  MLP_CHECK(!stack_.empty(), "advance on empty stack");
  stack_.back().pc = next_pc;
  pop_converged();
}

bool SimtStack::branch(LaneMask taken, u32 target, u32 fallthrough,
                       u32 reconv) {
  MLP_CHECK(!stack_.empty(), "branch on empty stack");
  Entry& top = stack_.back();
  const LaneMask active = top.mask;
  taken &= active;

  if (taken == active) {  // uniform taken
    top.pc = target;
    pop_converged();
    return false;
  }
  if (taken == 0) {  // uniform not-taken
    top.pc = fallthrough;
    pop_converged();
    return false;
  }

  const LaneMask not_taken = active & ~taken;
  if (reconv != kNoReconv) {
    // The current entry becomes the reconvergence placeholder: it keeps the
    // full mask and waits at `reconv`; the split entries pop when they reach
    // it. (If reconv coincides with this entry's own rpc the placeholder
    // will itself pop at merge time, correctly chaining to the outer join.)
    top.pc = reconv;
    stack_.push_back({fallthrough, reconv, not_taken});
    stack_.push_back({target, reconv, taken});
  } else {
    // No join before exit: split with no placeholder; entries retire as
    // their lanes halt.
    stack_.pop_back();
    stack_.push_back({fallthrough, kNoReconv, not_taken});
    stack_.push_back({target, kNoReconv, taken});
  }
  // A split arm may start exactly at the join (e.g. an if with an empty
  // then-arm): pop it straight away.
  pop_converged();
  return true;
}

void SimtStack::halt_lanes(LaneMask lanes) {
  for (Entry& entry : stack_) entry.mask &= ~lanes;
  pop_converged();
}

void SimtStack::checkpoint(sim::StateIO& io, u32 program_size, u32 width) {
  u32 depth = static_cast<u32>(stack_.size());
  io.field(depth);
  // Restore grows the stack entry by entry: a forged depth runs out of
  // section before it can run out of memory.
  if (io.loading()) stack_.clear();
  for (u32 i = 0; i < depth; ++i) {
    Entry entry = io.loading() ? Entry{} : stack_[i];
    io.index(entry.pc, program_size, "SIMT pc");
    io.field(entry.rpc);
    io.field(entry.mask);
    io.require(entry.rpc == kNoReconv || entry.rpc < program_size,
               "SIMT reconvergence pc");
    io.require((entry.mask & ~all_lanes(width)) == 0, "SIMT mask");
    if (io.loading()) stack_.push_back(entry);
  }
}

}  // namespace mlp::gpgpu
