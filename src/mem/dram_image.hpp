#pragma once
// Functional contents of the die-stacked DRAM. Timing (controller/banks) and
// contents are deliberately decoupled, as in most architecture simulators:
// loads read their value here at issue time while the timing model decides
// when the value becomes architecturally visible.
//
// Copies share their bytes until one of them writes (copy-on-write): every
// run takes a private copy of its prepared input, but only runs that corrupt
// it (no-ECC fault injection), store to it or patch it from a snapshot pay
// for the bytes. A run's source stays alive for the whole run, so its copy
// never writes to bytes another run could be reading.

#include <cstring>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace mlp::mem {

class DramImage {
 public:
  DramImage() = default;
  explicit DramImage(u64 bytes) { resize(bytes); }
  // Copying shares the bytes; declaring the copies makes a move a copy too,
  // so no image is ever left without bytes.
  DramImage(const DramImage&) = default;
  DramImage& operator=(const DramImage&) = default;

  void resize(u64 bytes) {
    bytes_ = std::make_shared<std::vector<u8>>(bytes, 0);
  }
  u64 size() const { return bytes_->size(); }

  u32 read_u32(Addr addr) const {
    MLP_CHECK(addr + 4 <= size() && addr % 4 == 0, "bad DRAM read");
    u32 value;
    std::memcpy(&value, bytes_->data() + addr, 4);
    return value;
  }

  void write_u32(Addr addr, u32 value) {
    MLP_CHECK(addr + 4 <= size() && addr % 4 == 0, "bad DRAM write");
    std::memcpy(writable().data() + addr, &value, 4);
  }

  float read_f32(Addr addr) const {
    const u32 bits = read_u32(addr);
    float value;
    std::memcpy(&value, &bits, 4);
    return value;
  }

  void write_f32(Addr addr, float value) {
    u32 bits;
    std::memcpy(&bits, &value, 4);
    write_u32(addr, bits);
  }

  /// Fault-injection hook: flip one bit of the stored byte at `addr`.
  /// Out-of-image addresses are ignored — transfers to regions modelled only
  /// in timing (e.g. cached live-state spill space beyond the input image)
  /// have no functional bytes to corrupt.
  void flip_bit(Addr addr, u32 bit) {
    if (addr < size()) writable()[addr] ^= static_cast<u8>(1u << (bit & 7));
  }

  /// Raw byte view for the snapshot subsystem's delta capture/patch
  /// (sim/snapshot.hpp) — restore may only change bytes, never the size.
  const std::vector<u8>& raw() const { return *bytes_; }
  std::vector<u8>& raw() { return writable(); }

 private:
  /// The bytes, first made private to this image if a copy shares them.
  std::vector<u8>& writable() {
    if (bytes_.use_count() > 1) {
      bytes_ = std::make_shared<std::vector<u8>>(*bytes_);
    }
    return *bytes_;
  }

  std::shared_ptr<std::vector<u8>> bytes_ =
      std::make_shared<std::vector<u8>>();
};

}  // namespace mlp::mem
