#pragma once
// Machine configuration structs mirroring the paper's Table III plus the
// knobs the evaluation sweeps (system size, prefetch-buffer count, warp
// width). Every architecture model is constructed from a MachineConfig so
// that cross-architecture comparisons hold resources identical by
// construction, as the paper requires.

#include <string>

#include "common/types.hpp"
#include "common/units.hpp"
#include "common/watchdog.hpp"

namespace mlp {

/// Seeded fault-injection and ECC parameters for the DRAM channel (modelled
/// after the transfer/retention error handling that die-stacked and PIM
/// characterizations treat as first-class). All draws are deterministic:
/// derived from `seed` and the per-controller transfer sequence number, so a
/// faulty run is bit-reproducible for any thread count.
struct FaultConfig {
  /// Probability that any single transferred data bit arrives flipped.
  double bit_flip_rate = 0.0;
  /// Probability that a transfer's response is delayed by `delay_cycles`.
  double delay_rate = 0.0;
  /// Probability that a transfer's response is dropped; the controller
  /// re-issues it (link-level retry), bounded by `max_retries`.
  double drop_rate = 0.0;
  u32 delay_cycles = 64;    ///< channel cycles added to a delayed response
  u64 seed = 1;             ///< fault stream seed (independent of data seed)
  /// SECDED ECC over 64-bit words: single-bit flips are corrected, double-bit
  /// flips are detected and the transfer retried. Without ECC a flip silently
  /// corrupts the transferred data (caught later by golden verification).
  bool ecc = false;
  u32 max_retries = 3;      ///< bounded retry-on-detect / retry-on-drop

  bool enabled() const {
    return bit_flip_rate > 0.0 || delay_rate > 0.0 || drop_rate > 0.0;
  }
  bool operator==(const FaultConfig&) const = default;
};

/// Per-bank row-buffer management policy (the phobos-style `Policy` knob).
/// Both limits default to 0 = unlimited, which is the classic open-page
/// policy the controller has always modelled; `max_row_hits == 1` is
/// closed-page autoprecharge as the degenerate case. Parsed from
/// `DramConfig::page_policy` ("open" | "closed" | "open:idle=N:hits=M").
struct PagePolicy {
  /// Channel cycles an open row may sit idle before an explicit PRE closes
  /// it (0 = keep open until a conflicting activate).
  u32 max_row_idle = 0;
  /// Accesses served from one activation before an explicit PRE closes the
  /// row (0 = unlimited; 1 = closed-page autoprecharge).
  u32 max_row_hits = 0;

  bool open_page() const { return max_row_idle == 0 && max_row_hits == 0; }
};

/// Per-rank refresh scheduling (off by default so default runs stay
/// bit-identical to the pre-refresh model). Parsed from
/// `DramConfig::refresh` ("off" | "on" | "on:trefi=N:trfc=N:postpone=K").
/// When enabled the controller issues an all-bank refresh per rank every
/// tREFI channel cycles; the rank's banks are blocked for tRFC. A refresh
/// may be postponed while demand is queued for the rank, up to the JEDEC
/// debt window of `max_postponed` outstanding refreshes (8 x tREFI), after
/// which the rank stops issuing demand accesses until it catches up.
struct RefreshSpec {
  bool enabled = false;
  u32 t_refi = 4680;      ///< channel cycles between refreshes (3.9 us @ 1.2 GHz)
  u32 t_rfc = 192;        ///< refresh cycle time in channel cycles (160 ns)
  u32 max_postponed = 8;  ///< JEDEC 8 x tREFI postponement debt window
};

/// Parse a `DramConfig::page_policy` spec; throws SimError("config") on a
/// malformed string. Grammar: "open" | "closed" | "open:idle=N:hits=M"
/// (both terms optional, any order; values are channel cycles / accesses).
PagePolicy parse_page_policy(const std::string& spec);

/// Parse a `DramConfig::refresh` spec; throws SimError("config") on a
/// malformed string or inconsistent timing (tRFC >= tREFI, postpone == 0).
/// Grammar: "off" | "on" | "on:trefi=N:trfc=N:postpone=K" (terms optional).
RefreshSpec parse_refresh(const std::string& spec);

/// Die-stacked DRAM parameters (Table III) plus the channel/rank hierarchy
/// knobs. Timing values are in channel-clock cycles; the controller
/// converts to picoseconds. Defaults (1 channel, 1 rank, row-interleaved
/// mapping, open page, refresh off) reproduce the original flat
/// "4 banks behind one bus" model bit-identically.
struct DramConfig {
  u32 row_bytes = 2048;
  u32 banks = 4;      ///< banks per rank
  u32 ranks = 1;      ///< ranks per channel
  u32 channels = 1;   ///< independent channels, one controller each
  double channel_mhz = 1200.0;
  u32 channel_bits = 128;  ///< data bus width; 16 B transferred per cycle
  u32 t_cas = 9;
  u32 t_rp = 9;
  u32 t_rcd = 9;
  u32 t_ras = 27;
  u32 queue_depth = 16;  ///< FR-FCFS scheduler window, per channel
  /// Physical address interleave as a ':'-separated field order, most
  /// significant first, over {row, col, bank, rank, channel}. `row` must
  /// lead (capacity grows upward) and `col` must appear; fields whose
  /// dimension is 1 may be omitted. The default reproduces the legacy
  /// `bank = rowId % banks` row interleave exactly; "row:col:bank:channel"
  /// is fine-grain interleaving that stripes a single row fetch across
  /// every bank and channel. Validated by mem::AddressMap with typed
  /// SimError("config") throws.
  std::string mapping = "row:bank:col";
  /// Row-buffer management policy spec; see parse_page_policy().
  std::string page_policy = "open";
  /// Per-rank refresh spec; see parse_refresh(). NOTE: when refresh is
  /// enabled here it is simulated explicitly (tREFI/tRFC stalls), so the
  /// refresh allowance folded into `bus_efficiency` must not also be
  /// applied — raise bus_efficiency accordingly or the overhead is
  /// double-counted (see the note on bus_efficiency).
  std::string refresh = "off";
  /// Effective fraction of peak data-bus bandwidth actually delivered
  /// (command bandwidth, read/write turnaround, DBI, ... and — only while
  /// `refresh` is "off" — an allowance for refresh). Calibrated to 0.30,
  /// which reproduces the paper's observable that its GPGPU-Sim DRAM makes
  /// the light BMLAs memory-bandwidth-bound (Table IV rate-matched clocks);
  /// see EXPERIMENTS.md. NOTE: with `refresh` enabled the tREFI/tRFC
  /// interference is modelled explicitly and must NOT also be folded in
  /// here — keep the derate to the non-refresh overheads only, otherwise
  /// refresh is double-counted.
  double bus_efficiency = 0.30;
  /// Seeded fault injection + SECDED ECC on this channel (off by default).
  FaultConfig fault;

  Picos period_ps() const { return period_ps_from_hz(channel_mhz * 1e6); }
  u32 bytes_per_cycle() const { return channel_bits / 8; }
  double peak_gbps() const {
    return channel_mhz * 1e6 * bytes_per_cycle() / 1e9;
  }
  bool operator==(const DramConfig&) const = default;
};

/// Parameters shared by corelets, SSMC cores and GPGPU lanes: the paper holds
/// the number and pipeline of cores and the on-processor-die memory identical
/// across the PNM architectures it compares.
struct CoreConfig {
  double clock_mhz = 700.0;
  u32 cores = 32;     ///< corelets / lanes / simple cores per processor
  u32 contexts = 4;   ///< hardware thread contexts (warps for the SM)
  u32 regs = 32;      ///< architectural registers per context
  u32 icache_bytes = 4 * 1024;
  u32 local_mem_bytes = 4 * 1024;  ///< per corelet (live state)
  u32 local_latency = 2;           ///< compute cycles for a local access
  u32 branch_penalty = 1;          ///< extra busy cycles on taken branches

  Picos period_ps() const { return period_ps_from_hz(clock_mhz * 1e6); }
  u32 threads() const { return cores * contexts; }
  bool operator==(const CoreConfig&) const = default;
};

/// Millipede-specific structures (Section IV).
struct MillipedeConfig {
  u32 pf_entries = 16;      ///< prefetch buffer entries, one DRAM row each
  u32 prime_rows = 0;       ///< rows prefetched at kernel start; 0 = fill the
                            ///< queue. The trigger chain sustains exactly
                            ///< this run-ahead, so it must cover the rows a
                            ///< record's fields touch concurrently.
  bool flow_control = true; ///< DF-counter based cross-corelet flow control
  bool rate_match = true;   ///< coarse-grain compute-memory DFS
  double rate_step = 0.05;  ///< hill-climbing frequency step (5%)
  double min_clock_mhz = 100.0;
  u32 pb_hit_latency = 2;   ///< compute cycles for a prefetch-buffer hit
  u32 rate_window = 16;     ///< per-row votes accumulated per DFS step
  /// Test-only escape hatch: skip the fail-fast "prefetch window smaller
  /// than a record's row footprint" rejection so the resulting flow-control
  /// deadlock can exercise the forward-progress watchdog. Never set this in
  /// real experiments — the run cannot complete.
  bool unsafe_skip_window_check = false;
  /// Section IV-F extension: the paper conservatively assumes frequency-only
  /// scaling ("otherwise, our energy savings would be higher"). When set,
  /// rate matching also scales voltage with frequency (dynamic energy then
  /// falls quadratically with V, floored at min_voltage_ratio).
  bool voltage_scaling = false;
  double min_voltage_ratio = 0.7;
  bool operator==(const MillipedeConfig&) const = default;
};

/// GPGPU SM parameters (Table III) plus the VWS / VWS-row variants.
struct GpgpuConfig {
  u32 warp_width = 32;       ///< lanes ganged per warp (VWS may pick 4)
  bool vws = false;          ///< dynamic 4-vs-32 warp width selection
  bool row_oriented = false; ///< VWS-row: input via row prefetch buffer
  u32 l1d_bytes = 32 * 1024;
  u32 line_bytes = 128;
  u32 l1d_assoc = 8;
  u32 mshrs = 16;
  u32 shared_mem_bytes = 128 * 1024;
  u32 shared_banks = 32;
  u32 l1_hit_latency = 4;
  u32 shared_latency = 2;
  u32 divergence_penalty = 8;  ///< extra cycles per divergent branch
                               ///< (SIMT-stack push + fetch redirect)
  u32 prefetch_degree = 4;    ///< sequential cache-block prefetcher
  u32 prefetch_distance = 16;
  /// Ablation (Section III-B): force the corelet-style 64 B slab record
  /// mapping on the plain GPGPU, destroying coalescing — demonstrates why
  /// GPGPUs need word-size columns in the interleaved layout.
  bool slab_mapping_ablation = false;
  bool operator==(const GpgpuConfig&) const = default;
};

/// Plain SSMC: simple MIMD cores with small private L1 D-caches that hold
/// both live state and the prefetched input stream.
struct SsmcConfig {
  u32 l1d_bytes = 5 * 1024;  ///< 5 KB per core (Table III)
  u32 line_bytes = 128;
  u32 assoc = 5;             ///< 8 sets x 5 ways = 40 lines = 5 KB
  u32 mshrs = 8;
  u32 hit_latency = 2;
  // A 40-line cache cannot absorb deep prefetch run-ahead: pollution evicts
  // the hot state/field lines. Shallow, conservative prefetch.
  u32 prefetch_degree = 1;
  u32 prefetch_distance = 2;
  u32 prefetch_streams = 4;  ///< per-core stride streams tracked
  bool operator==(const SsmcConfig&) const = default;
};

/// Conventional multicore for the Fig. 5 comparison: Xeon-like out-of-order
/// cores approximated by a wide-issue SMT in-order model (see DESIGN.md).
struct MulticoreConfig {
  u32 cores = 8;
  u32 smt = 4;
  u32 issue_width = 4;
  double clock_mhz = 3600.0;
  u32 l1_bytes = 64 * 1024;
  u32 l1_assoc = 8;
  u32 l2_bytes = 1024 * 1024;  ///< per core
  u32 l2_assoc = 16;
  u32 line_bytes = 128;
  u32 l1_latency = 3;
  u32 l2_latency = 12;
  double offchip_bw_fraction = 0.25;  ///< of one die-stacked channel
  bool operator==(const MulticoreConfig&) const = default;
};

/// Top-level configuration handed to every System.
struct MachineConfig {
  DramConfig dram;
  CoreConfig core;
  MillipedeConfig millipede;
  GpgpuConfig gpgpu;
  SsmcConfig ssmc;
  MulticoreConfig multicore;
  /// Forward-progress watchdog enforced in every architecture's step loop.
  WatchdogConfig watchdog;

  /// Section IV-C's slab-interleaving ("wider columns"): store each record's
  /// fields contiguously within a row so a record touches exactly one DRAM
  /// row. Supported by the MIMD systems (Millipede/SSMC/multicore) for
  /// power-of-two field counts; the GPGPU keeps word-size columns, as the
  /// paper requires for coalescing.
  bool slab_layout = false;

  /// Let the simulation kernel fast-forward both clock domains across
  /// globally idle gaps (sim/kernel.hpp). Purely a simulator-speed knob:
  /// counters, trace events and timelines are bit-identical either way
  /// (enforced by kernel_test and the CI equivalence step), so it is not
  /// part of the stats-JSON config section or the prepare-cache key.
  /// `--no-fast-forward` on the tools clears it for A/B runs.
  bool fast_forward = true;

  /// Run each decoded instruction (core/decode_cache.hpp) on its
  /// per-opcode handler. Cleared, every instruction runs on the reference
  /// core::step handler instead — the differential oracle for the
  /// handlers. Purely a simulator-speed knob like fast_forward: decode
  /// accounting runs either way, so every counter, trace event and timeline
  /// is bit-identical (enforced by differential_test, the golden matrix and
  /// the CI equivalence step) and the flag stays out of the stats-JSON
  /// config section and the prepare-cache key. `--no-block-cache` on the
  /// tools clears it for A/B runs.
  bool block_cache = true;

  /// Throws SimError("config", ...) on inconsistent parameter combinations;
  /// caught at the sim::run_job boundary so a bad sweep point fails alone.
  void validate() const;

  /// Paper Table III defaults.
  static MachineConfig paper_defaults() { return MachineConfig{}; }

  /// Field-wise; a field added to any config struct joins it unlisted.
  bool operator==(const MachineConfig&) const = default;
};

}  // namespace mlp
