#pragma once
// Mid-run checkpoint format and component contract (ROADMAP item 5). A
// snapshot is a versioned binary blob — "MLPSNAP" header, then per-component
// sections of (u32 id, u64 length, payload) — capturing the complete
// architectural and micro-architectural state of a simulation at a QUIESCENT
// compute-clock edge, so a fresh process can reconstruct the machine and
// finish the run with every counter, trace event and result byte identical
// to the uninterrupted run.
//
// Quiescence is the load-bearing invariant: component wake-ups are arbitrary
// std::function closures and cannot be serialized, so the kernel only
// captures at a step-loop top where no callback is outstanding anywhere —
// every context runnable or halted (none kWaitMem), no warp waiting on a
// fill, MSHRs and issue queues empty, the memory controller idle. Each
// Snapshottable reports its own quiescence; the kernel scans from the
// requested cycle to the first edge where all agree (sim/kernel.hpp).
//
// Unknown or malformed sections are a typed SimError("snapshot"), never a
// crash: snapshots cross protocol boundaries (mlpserved snapshot/restore
// verbs) and version skew must fail cleanly.
//
// Everything here is header-only so the component libraries (mem, core,
// millipede, gpgpu) can implement the contract without linking mlp_sim.

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "mem/dram_image.hpp"

namespace mlp::sim {

inline constexpr char kSnapshotMagic[8] = {'M', 'L', 'P', 'S',
                                           'N', 'A', 'P', '\0'};
/// Version history:
///  1  initial format;
///  2  kSecController gained per-bank access streaks and per-rank refresh
///     cursors (next_due, postponement debt), framed per channel, and the
///     fork key gained the dch/drk/dmap/dpp/dref DRAM-hierarchy entries;
///  3  kSecKernel dropped the fast-forward scan state (the flat-edge count
///     and scan switch): the activity-driven kernel rebuilds its posted
///     wakes from next_event() when a restored run starts.
inline constexpr u32 kSnapshotVersion = 3;

/// Section ids. Low ids are singleton kernel-level sections; component
/// ranges are BASE + instance so per-core components stay distinct.
enum SnapshotSectionId : u32 {
  kSecMeta = 1,          ///< always first: identity + geometry
  kSecKernel = 2,        ///< clocks, watchdog
  kSecDramDelta = 3,     ///< DRAM image as RLE delta against the pristine image
  kSecController = 4,    ///< memory controller banks + fault-injector stream
  kSecStats = 5,         ///< always last: every StatSet counter by name
  kSecTraceSampler = 6,  ///< interval-sampler cursor (present iff traced)
  kSecSm = 16,           ///< GPGPU streaming multiprocessor
  kSecPrefetchBuffer = 17,
  kSecRateMatcher = 18,
  kSecBarrier = 19,         ///< record-barrier ablation state
  kSecSeqPrefetcher = 20,   ///< GPGPU sequential cache-block prefetcher
  kSecDecodeCache = 21,     ///< decoded-basic-block cache (decoded set)
  kSecCoreletBase = 64,     ///< + core index
  kSecL1Base = 256,         ///< + core index
  kSecL2Base = 512,         ///< + core index
  kSecStreamTableBase = 768 ///< + core index
};

/// Append-only little-endian section writer.
class SnapshotWriter {
 public:
  SnapshotWriter() {
    buf_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    put_u32(kSnapshotVersion);
  }

  void begin_section(u32 id) {
    MLP_CHECK(length_at_ == kNone, "nested snapshot section");
    put_u32(id);
    length_at_ = buf_.size();
    put_u64(0);  // patched by end_section
  }

  void end_section() {
    MLP_CHECK(length_at_ != kNone, "end_section without begin_section");
    const u64 length = buf_.size() - length_at_ - 8;
    for (u32 i = 0; i < 8; ++i) {
      buf_[length_at_ + i] = static_cast<char>((length >> (8 * i)) & 0xff);
    }
    length_at_ = kNone;
  }

  void put_u8(u8 v) { buf_.push_back(static_cast<char>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(u32 v) {
    for (u32 i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void put_u64(u64 v) {
    for (u32 i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void put_bytes(const void* data, u64 size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  void put_string(const std::string& s) {
    put_u64(s.size());
    buf_.append(s);
  }

  const std::string& blob() const {
    MLP_CHECK(length_at_ == kNone, "unterminated snapshot section");
    return buf_;
  }

 private:
  static constexpr u64 kNone = ~u64{0};
  std::string buf_;
  u64 length_at_ = kNone;
};

/// Bounded read cursor over one section's payload. Every overrun — and any
/// other format violation in this header — is SimError("snapshot").
class SnapshotCursor {
 public:
  SnapshotCursor() = default;
  SnapshotCursor(const u8* data, u64 size) : p_(data), end_(data + size) {}

  u8 get_u8() {
    need(1);
    return *p_++;
  }
  bool get_bool() { return get_u8() != 0; }
  u32 get_u32() {
    need(4);
    u32 v = 0;
    for (u32 i = 0; i < 4; ++i) v |= static_cast<u32>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  u64 get_u64() {
    need(8);
    u64 v = 0;
    for (u32 i = 0; i < 8; ++i) v |= static_cast<u64>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  void get_bytes(void* out, u64 size) {
    need(size);
    std::memcpy(out, p_, size);
    p_ += size;
  }
  std::string get_string() {
    const u64 size = get_u64();
    need(size);
    std::string s(reinterpret_cast<const char*>(p_), size);
    p_ += size;
    return s;
  }

  u64 remaining() const { return static_cast<u64>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  void need(u64 bytes) const {
    MLP_SIM_CHECK(static_cast<u64>(end_ - p_) >= bytes, "snapshot",
                  "truncated snapshot section");
  }

  const u8* p_ = nullptr;
  const u8* end_ = nullptr;
};

struct SnapshotSection {
  u32 id = 0;
  SnapshotCursor cursor;
};

/// Header validation + section iteration over a complete blob.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& blob) : blob_(&blob) {
    MLP_SIM_CHECK(blob.size() >= sizeof(kSnapshotMagic) + 4, "snapshot",
                  "snapshot blob shorter than its header");
    MLP_SIM_CHECK(
        std::memcmp(blob.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0,
        "snapshot", "bad snapshot magic (not an MLPSNAP blob)");
    pos_ = sizeof(kSnapshotMagic);
    SnapshotCursor header(data() + pos_, 4);
    const u32 version = header.get_u32();
    MLP_SIM_CHECK(version == kSnapshotVersion, "snapshot",
                  "unsupported snapshot version " + std::to_string(version));
    pos_ += 4;
  }

  /// Advance to the next section; false at a clean end of blob.
  bool next(SnapshotSection* out) {
    if (pos_ == blob_->size()) return false;
    MLP_SIM_CHECK(blob_->size() - pos_ >= 12, "snapshot",
                  "truncated snapshot section header");
    SnapshotCursor head(data() + pos_, 12);
    out->id = head.get_u32();
    const u64 length = head.get_u64();
    pos_ += 12;
    MLP_SIM_CHECK(blob_->size() - pos_ >= length, "snapshot",
                  "snapshot section length exceeds the blob");
    out->cursor = SnapshotCursor(data() + pos_, length);
    pos_ += length;
    return true;
  }

 private:
  const u8* data() const {
    return reinterpret_cast<const u8*>(blob_->data());
  }

  const std::string* blob_;
  u64 pos_ = 0;
};

/// Contract implemented by every stateful component. save_state is only
/// invoked when quiescent() is true for EVERY registered component, so
/// implementations may assume (and should MLP_CHECK) that no wake-up
/// closures are outstanding.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void restore_state(SnapshotCursor& r) = 0;
  /// True when this component holds no unserializable in-flight state
  /// (outstanding callbacks, queued requests). Stateless-between-edges
  /// components keep the default.
  virtual bool quiescent() const { return true; }
};

/// Identity and geometry, always the blob's first section. Restore validates
/// it against the reconstructed machine before touching any component.
struct SnapshotMeta {
  u32 version = kSnapshotVersion;
  u64 cycle = 0;    ///< compute-domain ticks at capture
  u64 now_ps = 0;   ///< simulated time at capture
  std::string arch_label;
  u32 warp_width = 0;      ///< GPGPU/VWS chosen width; 0 elsewhere
  u64 image_bytes = 0;     ///< DRAM image size the delta applies to
  u64 fault_sequence = 0;  ///< fault-injector transfers drawn (fork safety)

  void save(SnapshotWriter& w) const {
    w.put_u32(version);
    w.put_u64(cycle);
    w.put_u64(now_ps);
    w.put_string(arch_label);
    w.put_u32(warp_width);
    w.put_u64(image_bytes);
    w.put_u64(fault_sequence);
  }
  void restore(SnapshotCursor& r) {
    version = r.get_u32();
    cycle = r.get_u64();
    now_ps = r.get_u64();
    arch_label = r.get_string();
    warp_width = r.get_u32();
    image_bytes = r.get_u64();
    fault_sequence = r.get_u64();
  }
};

/// Peek a blob's meta section without reconstructing a machine (systems read
/// the captured warp width before construction; the sweep forker reads the
/// fault sequence for its safety check).
inline SnapshotMeta snapshot_meta(const std::string& blob) {
  SnapshotReader reader(blob);
  SnapshotSection section;
  MLP_SIM_CHECK(reader.next(&section) && section.id == kSecMeta, "snapshot",
                "snapshot does not start with a meta section");
  SnapshotMeta meta;
  meta.restore(section.cursor);
  return meta;
}

/// Checkpoint intent threaded through run_arch into the kernel. Exactly one
/// of capture/restore may be set per run; capture is non-invasive (the run
/// continues and finishes identically).
struct SnapshotPlan {
  /// Capture at the first quiescent step-loop top at or >= checkpoint_at
  /// compute cycles. If the run finishes first, no snapshot is taken
  /// (captured_ok stays false) — a graceful miss, not an error.
  bool capture = false;
  u64 checkpoint_at = 0;
  /// Restore this blob into the freshly-constructed machine, then run to
  /// completion. The caller keeps ownership of the string.
  const std::string* restore_from = nullptr;

  // Capture outputs.
  bool captured_ok = false;
  u64 captured_cycle = 0;
  std::string captured;
};

/// The DRAM image serialized as a delta against the PreparedJob's pristine
/// image (functional stores and no-ECC fault flips are sparse, so warm
/// snapshots stay small). Registered with the kernel as section kSecDramDelta
/// and captured AT quiesce time like any other component.
class DramImageDelta : public Snapshottable {
 public:
  DramImageDelta(mem::DramImage* live, const mem::DramImage* pristine)
      : live_(live), pristine_(pristine) {
    MLP_CHECK(live_->size() == pristine_->size(),
              "delta images must have one size");
  }

  void save_state(SnapshotWriter& w) const override {
    const u8* a = live_->raw().data();
    const u8* b = pristine_->raw().data();
    const u64 n = live_->size();
    w.put_u64(n);
    u64 runs = 0;
    // Two passes keep the writer simple (no nested patching): count, emit.
    for (u64 i = 0; i < n;) {
      if (a[i] == b[i]) {
        ++i;
        continue;
      }
      u64 j = i;
      while (j < n && a[j] != b[j]) ++j;
      ++runs;
      i = j;
    }
    w.put_u64(runs);
    for (u64 i = 0; i < n;) {
      if (a[i] == b[i]) {
        ++i;
        continue;
      }
      u64 j = i;
      while (j < n && a[j] != b[j]) ++j;
      w.put_u64(i);
      w.put_u64(j - i);
      w.put_bytes(a + i, j - i);
      i = j;
    }
  }

  void restore_state(SnapshotCursor& r) override {
    const u64 n = r.get_u64();
    MLP_SIM_CHECK(n == live_->size(), "snapshot",
                  "snapshot image size does not match the prepared image");
    // The live image starts pristine (freshly copied from the PreparedJob);
    // re-copy defensively so restore is idempotent, then patch the runs.
    live_->raw() = pristine_->raw();
    const u64 runs = r.get_u64();
    for (u64 k = 0; k < runs; ++k) {
      const u64 offset = r.get_u64();
      const u64 length = r.get_u64();
      MLP_SIM_CHECK(length > 0 && offset <= n && n - offset >= length,
                    "snapshot", "snapshot image delta run out of bounds");
      r.get_bytes(live_->raw().data() + offset, length);
    }
  }

 private:
  mem::DramImage* live_;
  const mem::DramImage* pristine_;
};

}  // namespace mlp::sim
