#include "mem/prefetcher.hpp"

namespace mlp::mem {

void StreamPrefetcher::reset() {
  has_last_ = false;
  stride_ = 0;
  confidence_ = 0;
  issued_up_to_ = 0;
}

void SequentialPrefetcher::observe(Addr addr, std::vector<Addr>* lines) {
  const u64 line = addr / line_bytes_;
  lines->clear();
  if (!started_) {
    started_ = true;
    next_line_ = line + 1;
    return;
  }
  const u64 horizon = line + distance_;
  if (horizon < next_line_) return;  // behind the head: covered
  u64 next = std::max(next_line_, line + 1);
  for (u32 issued = 0; issued < degree_ && next <= horizon; ++issued, ++next) {
    lines->push_back(next * line_bytes_);
  }
  next_line_ = next;
}

StreamTable::StreamTable(u32 line_bytes, u32 degree, u32 distance,
                         u32 streams)
    : line_bytes_(line_bytes), degree_(degree), distance_(distance) {
  MLP_CHECK(streams > 0, "stream table needs at least one stream");
  for (u32 i = 0; i < streams; ++i) {
    entries_.push_back(
        Entry{StreamPrefetcher(line_bytes, degree, distance), 0, false, 0});
  }
}

void StreamTable::observe(Addr addr, std::vector<Addr>* lines) {
  lines->clear();
  const u64 line = addr / line_bytes_;
  // Route to the nearest tracked stream (within a generous window scaled by
  // the prefetch distance); otherwise claim the LRU slot for a new stream.
  Entry* best = nullptr;
  u64 best_gap = static_cast<u64>(distance_ + 1) * 64;  // match window
  for (Entry& entry : entries_) {
    if (!entry.valid) continue;
    const u64 gap = entry.last_line > line ? entry.last_line - line
                                           : line - entry.last_line;
    if (gap < best_gap) {
      best_gap = gap;
      best = &entry;
    }
  }
  if (best == nullptr) {
    for (Entry& entry : entries_) {
      if (best == nullptr || entry.lru < best->lru) best = &entry;
    }
    best->prefetcher.reset();
    best->valid = true;
  }
  best->last_line = line;
  best->lru = ++clock_;
  best->prefetcher.observe(addr, lines);
}

void StreamPrefetcher::observe(Addr addr, std::vector<Addr>* lines) {
  const u64 line = addr / line_bytes_;
  if (has_last_) {
    if (line == last_line_) return;  // same line: no new information
    const i64 stride = static_cast<i64>(line) - static_cast<i64>(last_line_);
    if (stride == stride_) {
      if (confidence_ < 4) ++confidence_;
    } else {
      stride_ = stride;
      confidence_ = 1;
      issued_up_to_ = line;
    }
    if (confidence_ >= 2 && stride_ != 0) {
      // Run ahead of the stream: issue up to `degree` new lines but never
      // more than `distance` strides beyond the current access.
      const i64 horizon = static_cast<i64>(line) + stride_ * distance_;
      u32 issued = 0;
      i64 next = static_cast<i64>(issued_up_to_) + stride_;
      if ((stride_ > 0 && next <= static_cast<i64>(line)) ||
          (stride_ < 0 && next >= static_cast<i64>(line))) {
        next = static_cast<i64>(line) + stride_;
      }
      while (issued < degree_ &&
             ((stride_ > 0 && next <= horizon) ||
              (stride_ < 0 && next >= horizon))) {
        if (next >= 0) {
          lines->push_back(static_cast<Addr>(next) * line_bytes_);
          issued_up_to_ = static_cast<u64>(next);
        }
        next += stride_;
        ++issued;
      }
    }
  }
  has_last_ = true;
  last_line_ = line;
}

}  // namespace mlp::mem
