#pragma once
// A hardware thread context: architectural registers, pc, CSR values and the
// scheduling state used by the multithreaded core timing models.

#include <array>

#include "common/types.hpp"
#include "isa/isa.hpp"

namespace mlp::core {

/// Per-thread CSR file (thread identity, layout geometry, kernel args).
struct CsrValues {
  std::array<u32, isa::kNumCsrs> values{};

  u32 get(isa::Csr csr) const { return values[static_cast<u32>(csr)]; }
  void set(isa::Csr csr, u32 value) { values[static_cast<u32>(csr)] = value; }
};

/// Cache-line aligned: a context then spans exactly four host lines, and an
/// issue touches the same three of them every time.
struct alignas(64) Context {
  enum class State : u8 {
    kReady,    ///< schedulable once `ready_at` has passed
    kWaitMem,  ///< blocked on an outstanding global load
    kHalted,
  };

  // Everything an issue touches sits in the registers' cache lines and the
  // one after them; the CSRs, read at kernel start only, come last.
  std::array<u32, 32> regs{};
  u32 pc = 0;
  State state = State::kReady;
  Picos ready_at = 0;
  u64 instret = 0;
  CsrValues csr;

  bool runnable(Picos now) const {
    return state == State::kReady && ready_at <= now;
  }

  u32 reg(u8 r) const { return regs[r]; }
  void set_reg(u8 r, u32 value) {
    if (r != 0) regs[r] = value;  // r0 is hardwired zero
  }

  void reset() {
    regs.fill(0);
    pc = 0;
    state = State::kReady;
    ready_at = 0;
    instret = 0;
  }
};

}  // namespace mlp::core
