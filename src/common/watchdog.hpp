#pragma once
// Forward-progress watchdog for the architecture step loops. Every
// architecture's main loop advances one clock edge (compute or channel) per
// iteration; a protocol bug or an invalid configuration that slips past the
// fail-fast checks turns that loop into a livelock (e.g. a flow-control
// deadlock: every context blocked on rows beyond the prefetch window, the
// head entry never saturating). The watchdog bounds both failure modes:
//
//  * cycle ceiling — a hard cap on loop iterations (`max_cycles`);
//  * livelock detector — no instruction retired AND no DRAM data movement
//    for `stall_cycles` consecutive iterations;
//  * wall-clock budget — a real-time ceiling (`wall_ms`) for service
//    deployments, where a job that is making nominal progress but will not
//    finish inside the operator's deadline must still be cancelled. Trips
//    with the distinct kind "job-timeout" so clients can tell a genuinely
//    wedged simulation from one that was merely too slow.
//
// On trip it throws SimError("watchdog", ...) (or SimError("job-timeout",
// ...) for the wall-clock budget) carrying the architecture's diagnostic
// dump (per-corelet PC/state, outstanding requests, prefetch buffer
// occupancy, PFT/DF counters), so a hung point in a sweep matrix becomes a
// per-job error instead of a hung pool thread.

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/snapshot.hpp"
#include "trace/trace.hpp"

namespace mlp {

struct WatchdogConfig {
  /// Hard ceiling on main-loop iterations (clock edges across both domains);
  /// 0 disables the ceiling. The default is far beyond any legitimate run of
  /// this simulator's workload sizes.
  u64 max_cycles = 20'000'000'000ull;
  /// Loop iterations without any progress (instructions retired or DRAM
  /// bytes moved) before declaring a livelock; 0 disables the detector. A
  /// live system makes progress every few thousand edges even when rate
  /// matching has slowed compute to its floor.
  u64 stall_cycles = 2'000'000;
  /// Wall-clock budget in milliseconds, at most kMaxDurationMs; 0 disables
  /// it. Unlike the cycle limits this is nondeterministic by nature, so it
  /// is OFF by default and only set by service deployments (mlpserved
  /// --job-timeout-ms) where a client-visible deadline matters more than
  /// reproducing the trip point.
  u64 wall_ms = 0;

  bool operator==(const WatchdogConfig&) const = default;
};

class Watchdog {
 public:
  /// `dump` is invoked only on trip, to snapshot the machine state into the
  /// SimError diagnostic; it may be empty.
  Watchdog(const WatchdogConfig& cfg, std::string arch,
           std::function<std::string()> dump,
           trace::TraceSession* trace = nullptr)
      : cfg_(cfg), arch_(std::move(arch)), dump_(std::move(dump)),
        trace_(trace) {
    if (cfg_.wall_ms != 0) {
      // Every flag and job member that sets it checks the bound.
      MLP_CHECK(cfg_.wall_ms <= kMaxDurationMs, "wall-clock budget too long");
      wall_deadline_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.wall_ms);
    }
  }

  /// Call once per main-loop iteration with a monotonic progress signature
  /// (e.g. instructions retired + DRAM bytes transferred). Throws SimError
  /// on ceiling overrun or livelock. `now` is only used to timestamp the
  /// trip event in an attached trace.
  void step(u64 progress_signature, Picos now = 0) {
    ++iterations_;
    if (progress_signature != last_progress_) {
      last_progress_ = progress_signature;
      stalled_ = 0;
    } else if (cfg_.stall_cycles != 0 && ++stalled_ >= cfg_.stall_cycles) {
      trip(now,
           "no instruction retired and no DRAM response for " +
               std::to_string(stalled_) + " step-loop iterations (livelock)");
    }
    if (cfg_.max_cycles != 0 && iterations_ >= cfg_.max_cycles) {
      trip(now, "cycle ceiling of " + std::to_string(cfg_.max_cycles) +
                    " step-loop iterations exceeded");
    }
    // Amortized wall-clock check: steady_clock::now() per step would double
    // the loop cost, so sample every kWallCheckStride iterations. skip()
    // advances iterations_ too, so a fast-forwarded run still re-checks on
    // its next real step.
    if (cfg_.wall_ms != 0 && iterations_ >= next_wall_check_) {
      next_wall_check_ = iterations_ + kWallCheckStride;
      if (std::chrono::steady_clock::now() >= wall_deadline_) {
        trip(now,
             "wall-clock budget of " + std::to_string(cfg_.wall_ms) +
                 " ms exceeded after " + std::to_string(iterations_) +
                 " step-loop iterations",
             "job-timeout");
      }
    }
  }

  /// How many further step() calls with this (unchanging) progress signature
  /// until the watchdog would trip; ~u64{0} if both limits are disabled. The
  /// kernel's fast-forward refuses to skip across this boundary so a trip
  /// always fires from a real step() at its exact iteration count.
  u64 steps_until_trip(u64 progress_signature) const {
    u64 until = ~u64{0};
    if (cfg_.stall_cycles != 0) {
      until = progress_signature != last_progress_
                  ? cfg_.stall_cycles + 1
                  : cfg_.stall_cycles - stalled_;
    }
    if (cfg_.max_cycles != 0) {
      until = std::min(until, cfg_.max_cycles - iterations_);
    }
    return until;
  }

  /// Bulk-account `edges` skipped loop iterations over which the progress
  /// signature is known constant. Mirrors `edges` consecutive step() calls
  /// exactly — including step()'s quirk that `stalled_` only advances while
  /// the stall detector is enabled. The caller guarantees
  /// `edges < steps_until_trip(progress_signature)`, so no trip can occur.
  void skip(u64 edges, u64 progress_signature) {
    if (edges == 0) return;
    iterations_ += edges;
    if (progress_signature != last_progress_) {
      last_progress_ = progress_signature;
      stalled_ = cfg_.stall_cycles != 0 ? edges - 1 : 0;
    } else if (cfg_.stall_cycles != 0) {
      stalled_ += edges;
    }
  }

  u64 iterations() const { return iterations_; }

  /// Checkpoint state: the deterministic trip state, so cycle-ceiling and
  /// livelock trips fire at the exact iteration they would have in the
  /// uninterrupted run. The wall-clock budget deliberately restarts fresh —
  /// it measures THIS process's real time.
  void checkpoint(sim::StateIO& io) {
    io.field(iterations_);
    io.field(stalled_);
    io.field(last_progress_);
    if (io.loading()) next_wall_check_ = iterations_ + kWallCheckStride;
  }

 private:
  /// How many step() iterations between steady_clock samples for wall_ms.
  static constexpr u64 kWallCheckStride = 8192;

  [[noreturn]] void trip(Picos now, const std::string& why,
                         const char* kind = "watchdog") const {
    if (trace_ != nullptr) {
      trace_->emit(trace::Domain::kCompute, trace::EventKind::kWatchdogTrip,
                   now, trace::kWatchdogTrack, iterations_);
    }
    throw SimError(kind, arch_ + ": " + why,
                   dump_ ? dump_() : std::string());
  }

  WatchdogConfig cfg_;
  std::string arch_;
  std::function<std::string()> dump_;
  trace::TraceSession* trace_ = nullptr;
  u64 iterations_ = 0;
  u64 stalled_ = 0;
  u64 last_progress_ = ~u64{0};
  u64 next_wall_check_ = kWallCheckStride;
  std::chrono::steady_clock::time_point wall_deadline_{};
};

}  // namespace mlp
