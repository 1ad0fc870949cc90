#pragma once
// Sequential / stride stream prefetcher at cache-block granularity: the
// "cache-block prefetch" the paper grants to the GPGPU, VWS and SSMC
// baselines. Detects a constant line stride (1 for the GPGPU's coalesced
// stream, row-sized strides for an SSMC core hopping between field rows) and
// runs `degree` lines ahead up to `distance` once confident.

#include <vector>

#include "common/types.hpp"
#include "sim/snapshot.hpp"

namespace mlp::mem {

class StreamPrefetcher : public sim::Snapshottable {
 public:
  StreamPrefetcher(u32 line_bytes, u32 degree, u32 distance)
      : line_bytes_(line_bytes), degree_(degree), distance_(distance) {}

  /// Observe a demand access; appends the line addresses to prefetch now.
  void observe(Addr addr, std::vector<Addr>* lines);

  void reset();

  // sim::Snapshottable: the stride-detection state (pure data).
  void checkpoint(sim::StateIO& io) override {
    io.field(has_last_);
    io.field(last_line_);
    u64 stride = static_cast<u64>(stride_);
    io.field(stride);
    stride_ = static_cast<i64>(stride);
    io.field(confidence_);
    io.field(issued_up_to_);
  }

 private:
  u32 line_bytes_;
  u32 degree_;
  u32 distance_;

  bool has_last_ = false;
  u64 last_line_ = 0;
  i64 stride_ = 0;      ///< in lines
  u32 confidence_ = 0;  ///< consecutive accesses matching the stride
  u64 issued_up_to_ = 0;  ///< furthest line already prefetched on this stream
};

/// Jitter-tolerant sequential window prefetcher for a GLOBALLY sequential
/// stream produced by many slightly out-of-phase requesters (an SM's warps
/// marching through the interleaved layout). It tracks a high-water mark and
/// runs `distance` lines ahead of the newest access, so reordered accesses
/// behind the head neither confuse it nor re-issue covered lines.
class SequentialPrefetcher : public sim::Snapshottable {
 public:
  SequentialPrefetcher(u32 line_bytes, u32 degree, u32 distance)
      : line_bytes_(line_bytes), degree_(degree), distance_(distance) {}

  /// Observe a demand access; replaces `*lines` with the line addresses to
  /// prefetch now (the caller reuses one buffer across calls).
  void observe(Addr addr, std::vector<Addr>* lines);

  // sim::Snapshottable: the high-water-mark window cursor.
  void checkpoint(sim::StateIO& io) override {
    io.field(started_);
    io.field(next_line_);
  }

 private:
  u32 line_bytes_;
  u32 degree_;
  u32 distance_;
  bool started_ = false;
  u64 next_line_ = 0;  ///< first line not yet prefetched
};

/// A table of independent stride streams, as real prefetchers keep: each
/// access is routed to the stream whose last line is nearest (within a
/// window), so interleaved access streams — e.g. 32 narrow VWS warps or a
/// core hopping between field rows — are each tracked separately instead of
/// destroying one another's stride detection. LRU replacement.
class StreamTable : public sim::Snapshottable {
 public:
  StreamTable(u32 line_bytes, u32 degree, u32 distance, u32 streams);

  /// Observe a demand access; replaces `*lines` with the line addresses to
  /// prefetch now (the caller reuses one buffer across calls).
  void observe(Addr addr, std::vector<Addr>* lines);

  // sim::Snapshottable: every stream slot (including its nested stride
  // prefetcher) plus the LRU clock.
  void checkpoint(sim::StateIO& io) override {
    io.expect(static_cast<u32>(entries_.size()), "prefetcher stream count");
    for (Entry& entry : entries_) {
      entry.prefetcher.checkpoint(io);
      io.field(entry.last_line);
      io.field(entry.valid);
      io.field(entry.lru);
    }
    io.field(clock_);
  }

 private:
  struct Entry {
    StreamPrefetcher prefetcher;
    u64 last_line = 0;
    bool valid = false;
    u64 lru = 0;
  };

  u32 line_bytes_;
  u32 degree_;
  u32 distance_;
  std::vector<Entry> entries_;
  u64 clock_ = 0;
};

}  // namespace mlp::mem
