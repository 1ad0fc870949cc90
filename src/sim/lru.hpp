#pragma once
// The one LRU behind the harness's caches: the prepare cache (sim/prepare.hpp)
// and the mlpserved snapshot cache (sim/fork.hpp). A thread-safe map from
// string keys to shared, immutable entries, bounded by entry count, with
// hit/miss/eviction counters and a tally of the entries' bytes.

#include <algorithm>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/types.hpp"

namespace mlp::sim {

/// `Stats` has the members hits, misses, evictions and entries, plus the
/// byte total `kBytes` names; an `Entry` reports its size through bytes().
/// Entries are shared_ptr so a reader keeps one alive across its eviction.
template <typename E, typename S, u64 S::*kBytes>
class LruCache {
 public:
  using Entry = E;
  using EntryPtr = std::shared_ptr<const Entry>;
  using Stats = S;

  explicit LruCache(std::size_t max_entries)
      : max_entries_(std::max<std::size_t>(1, max_entries)) {}

  /// The entry under `key`, now the most recently used; nullptr on a miss.
  /// Counts a hit or a miss.
  EntryPtr get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->second;
  }

  /// Make `entry` the most recently used, replacing the entry under `key`
  /// in place or evicting the least recently used past capacity.
  void put(const std::string& key, EntryPtr entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.*kBytes += entry->bytes();
    const auto it = index_.find(key);
    if (it != index_.end()) {
      stats_.*kBytes -= it->second->second->bytes();
      it->second->second = std::move(entry);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(entry));
    index_.emplace(key, lru_.begin());
    while (lru_.size() > max_entries_) {
      stats_.*kBytes -= lru_.back().second->bytes();
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  /// put() of an Entry built from `fields`.
  template <typename... Fields>
  void put(const std::string& key, Fields&&... fields) {
    put(key, std::make_shared<const Entry>(std::forward<Fields>(fields)...));
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.entries = lru_.size();
    return out;
  }

 private:
  using Node = std::pair<std::string, EntryPtr>;

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::list<Node> lru_;  ///< front = most recently used
  std::unordered_map<std::string, typename std::list<Node>::iterator> index_;
  Stats stats_;
};

}  // namespace mlp::sim
