#pragma once
// Fundamental integer/width aliases, the duration bound and the check macro
// used across the simulator. Kept deliberately tiny: every other header
// includes this one.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mlp {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Byte address into the simulated machine's global (DRAM) or local space.
using Addr = u64;

/// Simulated wall-clock time in picoseconds. Two clock domains (compute and
/// DRAM channel) are reconciled through this common unit, which also lets
/// dynamic frequency scaling change the compute period mid-run.
using Picos = u64;

/// The longest millisecond duration a flag or a request may ask for: one
/// week. A deadline is steady_clock::now() plus milliseconds(v), which
/// converts v to signed 64-bit nanoseconds and overflows past ~9.2e12 ms.
inline constexpr u64 kMaxDurationMs = 604'800'000;
/// What a value past kMaxDurationMs is told it should be.
inline std::string duration_expects() {
  return "a duration of at most " + std::to_string(kMaxDurationMs) +
         " ms (one week)";
}

}  // namespace mlp

/// Internal invariant check, active in all build types: a simulator that
/// silently corrupts its own state produces subtly wrong "results", which is
/// worse than an abort. Data/config-dependent conditions in run paths use
/// MLP_SIM_CHECK (common/error.hpp) instead, which throws a recoverable
/// SimError. The message is flushed before aborting so it survives ctest and
/// thread-pool output capture.
#define MLP_CHECK(cond, msg)                                                 \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "MLP_CHECK failed in %s at %s:%d: %s\n  %s\n",    \
                   __func__, __FILE__, __LINE__, #cond, msg);                \
      std::fflush(stderr);                                                   \
      std::abort();                                                          \
    }                                                                        \
  } while (0)
