#pragma once
// Per-corelet (per-lane) local memory holding the kernel's live state. The
// corelet's hardware contexts share this store; accumulation uses
// single-instruction atomic adds (amoadd.l) which are race-free because the
// core issues one instruction per cycle. Returns of the OLD value make
// "claim a slot" idioms (sample selection) race-free too.

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mlp::mem {

class LocalStore {
 public:
  explicit LocalStore(u32 bytes) : words_(bytes / 4, 0) {
    MLP_CHECK(bytes % 4 == 0, "local store must hold whole words");
  }

  u32 size_bytes() const { return static_cast<u32>(words_.size()) * 4; }

  u32 load(u32 addr) const { return words_[index(addr)]; }
  void store(u32 addr, u32 value) { words_[index(addr)] = value; }

  /// Integer fetch-and-add; returns the previous value.
  u32 amoadd(u32 addr, u32 value) {
    u32& slot = words_[index(addr)];
    const u32 old = slot;
    slot = old + value;
    return old;
  }

  /// Float fetch-and-add over bit-cast values; returns previous bits.
  u32 famoadd(u32 addr, u32 value_bits) {
    u32& slot = words_[index(addr)];
    const u32 old = slot;
    float a, b;
    std::memcpy(&a, &old, 4);
    std::memcpy(&b, &value_bits, 4);
    a += b;
    std::memcpy(&slot, &a, 4);
    return old;
  }

  float load_f32(u32 addr) const {
    const u32 bits = load(addr);
    float value;
    std::memcpy(&value, &bits, 4);
    return value;
  }

  void store_f32(u32 addr, float value) {
    u32 bits;
    std::memcpy(&bits, &value, 4);
    store(addr, bits);
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Raw view used by the host-side final Reduce.
  const std::vector<u32>& words() const { return words_; }
  /// Mutable view for snapshot restore (sim/snapshot.hpp) — restore may
  /// only change word values, never the size.
  std::vector<u32>& words() { return words_; }

 private:
  /// The word at `addr`. A kernel indexing its live state with a corrupted
  /// input word (no-ECC fault injection) can reach any address, so a bad
  /// one is a typed per-run error, checked with one predictable branch.
  u32 index(u32 addr) const {
    const u32 i = addr / 4;
    if ((addr % 4 != 0) | (i >= words_.size())) [[unlikely]] {
      bad_access(addr);
    }
    return i;
  }

  [[noreturn, gnu::cold, gnu::noinline]] void bad_access(u32 addr) const {
    std::string what = "local address " + std::to_string(addr);
    if (addr % 4 != 0) {
      what += " is unaligned";
    } else {
      what += " is outside the " + std::to_string(size_bytes()) +
              " B local store";
    }
    throw SimError("local-access", what);
  }

  std::vector<u32> words_;
};

}  // namespace mlp::mem
