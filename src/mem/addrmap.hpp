#pragma once
// DRAM address decomposition over a configurable channel x rank x bank
// hierarchy. The physical interleave is a composition of BitFields (after
// the phobos DRAM model): each coordinate is a contiguous bit slice of the
// flat address, and DramConfig::mapping orders the slices, most significant
// first ("row:bank:col", "row:rank:bank:channel:col", "row:col:bank:channel",
// ...). `row` must lead so capacity grows upward and `col` must appear;
// fields whose dimension is 1 may be omitted (they contribute zero bits).
//
// The default "row:bank:col" reproduces the legacy fixed interleave exactly:
// bank = rowId % banks, row = rowId / banks, column = addr % row_bytes —
// a sequential row stream (exactly what Millipede's row prefetcher produces)
// overlaps each row's activation with the previous row's transfer on a
// different bank.
//
// Mappings that place channel/rank/bank fields BELOW the column field
// interleave at sub-row granularity: one contiguous row-sized block then
// stripes across those dimensions. stripes()/stripe_coord() expose that
// split so the channel demux can fan a single request out into per-channel
// sub-transfers.
//
// Functionally the image stays flat: row_id()/row_base() keep addressing
// contiguous row_bytes-sized blocks (the unit of Millipede's row prefetch
// and of the data layout), independent of the physical interleave.

#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace mlp::mem {

/// One contiguous bit slice of a flat address (phobos-style).
struct BitField {
  u32 width = 0;
  u32 offset = 0;

  u64 mask() const {
    return width >= 64 ? ~u64{0} : ((u64{1} << width) - 1);
  }
  u64 value(Addr addr) const {
    return (static_cast<u64>(addr) >> offset) & mask();
  }
  Addr place(u64 v) const { return (v & mask()) << offset; }
};

struct DramCoord {
  u32 channel = 0;
  u32 rank = 0;
  u32 bank = 0;    ///< bank index within the rank
  u64 row = 0;     ///< row index within the bank
  u32 column = 0;  ///< byte offset within the physical row
};

class AddressMap {
 public:
  /// Builds the field composition from cfg.mapping. Throws
  /// SimError("config") on non-power-of-two geometry, a malformed mapping
  /// string (unknown/duplicate/empty fields, row not leading, col missing)
  /// or a zero-width field (a dimension larger than 1 omitted from the
  /// mapping).
  explicit AddressMap(const DramConfig& cfg);

  /// Geometry-independent grammar check for a mapping string (known fields,
  /// no duplicates, row leading, col present). Throws SimError("config") on
  /// violation. The command-line tools use it to reject a malformed
  /// --mapping eagerly (exit 2) before the grid expands; zero-width-field
  /// violations depend on the per-point geometry and stay per-point errors.
  static void check_grammar(const std::string& mapping);

  DramCoord decode(Addr addr) const {
    DramCoord coord;
    coord.channel = static_cast<u32>(channel_.value(addr));
    coord.rank = static_cast<u32>(rank_.value(addr));
    coord.bank = static_cast<u32>(bank_.value(addr));
    coord.row = row_.value(addr);
    coord.column = static_cast<u32>(column_.value(addr));
    return coord;
  }

  /// Inverse of decode (bijective over the address space; property-tested).
  Addr encode(const DramCoord& coord) const {
    return channel_.place(coord.channel) | rank_.place(coord.rank) |
           bank_.place(coord.bank) | row_.place(coord.row) |
           column_.place(coord.column);
  }

  /// Global row id (hierarchy-agnostic), the unit of Millipede's row
  /// prefetch and of the functional data layout.
  u64 row_id(Addr addr) const { return addr >> row_shift_; }

  Addr row_base(u64 row_id) const { return row_id << row_shift_; }

  u32 row_bytes() const { return row_bytes_; }
  u32 channels() const { return channels_; }
  u32 ranks() const { return ranks_; }
  u32 banks() const { return banks_; }

  /// Sub-transfers a contiguous row-sized block spreads across: the product
  /// of the channel/rank/bank dimensions whose field sits below the column
  /// field. 1 for coarse (whole-request) interleaves like the default.
  u32 stripes() const { return stripes_; }

  /// Coordinate of stripe `s` (in [0, stripes())) of a request whose base
  /// decodes to `base`: the sub-column fields are replaced by the s'th
  /// combination (lowest-offset field advancing fastest, matching the
  /// order contiguous addresses walk the combinations).
  DramCoord stripe_coord(DramCoord base, u32 s) const {
    for (u32 i = 0; i < num_striped_; ++i) {
      const u32 digit = s % striped_[i].count;
      s /= striped_[i].count;
      switch (striped_[i].which) {
        case kChannel: base.channel = digit; break;
        case kRank: base.rank = digit; break;
        default: base.bank = digit; break;
      }
    }
    return base;
  }

  /// Inverse of stripe_coord's combination index for a decoded coordinate.
  u32 stripe_index(const DramCoord& coord) const {
    u32 index = 0;
    for (u32 i = num_striped_; i > 0; --i) {
      const StripedField& field = striped_[i - 1];
      const u32 digit = field.which == kChannel ? coord.channel
                        : field.which == kRank  ? coord.rank
                                                : coord.bank;
      index = index * field.count + digit;
    }
    return index;
  }

 private:
  enum Which : u32 { kChannel = 0, kRank = 1, kBank = 2 };
  struct StripedField {
    Which which = kChannel;
    u32 count = 1;
  };

  u32 row_bytes_ = 0;
  u32 row_shift_ = 0;
  u32 channels_ = 1;
  u32 ranks_ = 1;
  u32 banks_ = 1;
  u32 stripes_ = 1;
  u32 num_striped_ = 0;
  StripedField striped_[3];  ///< below-column fields, ascending offset
  BitField channel_, rank_, bank_, row_, column_;
};

}  // namespace mlp::mem
