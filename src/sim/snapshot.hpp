#pragma once
// Mid-run checkpoint format and component contract. A snapshot is a
// versioned binary blob — "MLPSNAP" header, then per-component sections of
// (u32 id, u64 length, payload) — capturing the complete architectural and
// micro-architectural state of a simulation at a QUIESCENT compute-clock
// edge, so a fresh process can reconstruct the machine and finish the run
// with every counter, trace event and result byte identical to the
// uninterrupted run.
//
// Quiescence is the load-bearing invariant: waiter lists (sim::Wake handles
// into live components) and MemRequest::on_complete closures cannot be
// serialized, so the kernel only captures at a step-loop top where none is
// outstanding anywhere — every context runnable or halted (none kWaitMem),
// no warp waiting on a fill, MSHRs and issue queues empty, the memory
// controller idle. Each Snapshottable reports its own quiescence; the kernel
// scans from the requested cycle to the first edge where all agree
// (sim/kernel.hpp).
//
// Each component names its checkpoint fields once, in checkpoint(StateIO&):
// capture writes them, restore reads them back in place and checks the
// bound declared with each (a count, an index, a nonzero period) as it
// reads it. Unknown, missing, reordered or malformed sections and
// out-of-range fields are a typed SimError("snapshot"), never a crash:
// snapshots cross protocol boundaries (mlpserved snapshot/restore verbs)
// and version skew must fail cleanly.
//
// Everything here is header-only and needs only common/, so the component
// libraries (common, trace, mem, core, millipede, gpgpu) can implement the
// contract without linking mlp_sim.

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"

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

/// One section's fields, named once for both directions. On capture each
/// call appends its field to the section; on restore it reads the field
/// back in place and checks the bound declared with it, so an out-of-range
/// value is SimError("snapshot") before any component can index with it.
/// State that is more than a field list (a set rebuilt from keys, a
/// structure grown entry by entry) does its restore-only work behind
/// loading().
class StateIO {
 public:
  explicit StateIO(SnapshotWriter& w) : w_(&w) {}
  explicit StateIO(SnapshotCursor& r) : r_(&r) {}

  bool loading() const { return r_ != nullptr; }

  void field(bool& v) {
    if (loading()) {
      v = r_->get_bool();
    } else {
      w_->put_bool(v);
    }
  }
  void field(u8& v) {
    if (loading()) {
      v = r_->get_u8();
    } else {
      w_->put_u8(v);
    }
  }
  void field(u32& v) {
    if (loading()) {
      v = r_->get_u32();
    } else {
      w_->put_u32(v);
    }
  }
  void field(u64& v) {
    if (loading()) {
      v = r_->get_u64();
    } else {
      w_->put_u64(v);
    }
  }
  void field(std::string& s) {
    if (loading()) {
      s = r_->get_string();
    } else {
      w_->put_string(s);
    }
  }
  void bytes(u8* data, u64 size) {
    if (loading()) {
      r_->get_bytes(data, size);
    } else {
      w_->put_bytes(data, size);
    }
  }

  /// A count or geometry this machine already fixes: written on capture,
  /// compared on restore.
  void expect(u32 n, const char* what) {
    u32 v = n;
    field(v);
    require(v == n, what);
  }
  void expect(u64 n, const char* what) {
    u64 v = n;
    field(v);
    require(v == n, what);
  }
  /// An index or cursor into something `bound` long.
  void index(u32& v, u64 bound, const char* what) {
    field(v);
    require(v < bound, what);
  }
  /// A period or participant count: zero would divide by or wait on nothing.
  void positive(u32& v, const char* what) {
    field(v);
    require(v > 0, what);
  }
  void positive(u64& v, const char* what) {
    field(v);
    require(v > 0, what);
  }
  /// A relation among fields already read (or a quiescence invariant).
  void require(bool ok, const char* what) {
    MLP_SIM_CHECK(ok, "snapshot",
                  std::string("snapshot ") + what +
                      " does not fit this machine");
  }

 private:
  SnapshotWriter* w_ = nullptr;
  SnapshotCursor* r_ = nullptr;
};

/// Contract implemented by every stateful component. checkpoint() captures
/// only when quiescent() is true for EVERY registered component, so it may
/// assume that no waiter or request callback is outstanding.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void checkpoint(StateIO& io) = 0;
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

  void checkpoint(StateIO& io) {
    io.field(version);
    io.field(cycle);
    io.field(now_ps);
    io.field(arch_label);
    io.field(warp_width);
    io.field(image_bytes);
    io.field(fault_sequence);
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
  StateIO io(section.cursor);
  meta.checkpoint(io);
  return meta;
}

/// Checkpoint intent threaded through run_arch into the kernel. A run may
/// restore, capture, or both (a restored run captures again at its first
/// quiescent edge at or after checkpoint_at); capture is non-invasive (the
/// run continues and finishes identically).
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

}  // namespace mlp::sim
