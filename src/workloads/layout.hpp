#pragma once
// The interleaved "array of structs of arrays" data layout (Section III-B).
//
// Records are organized in *groups* of `row_words` records; a group with F
// fields occupies F consecutive DRAM rows, one row per field:
//
//   row(g, f) = first_row + g*F + f
//   addr(f, r) = base + (g*F + f)*row_bytes + idx*4, g = r/G, idx = r%G
//
// Consequences the whole system relies on:
//  * the aggregate access stream over rows is strictly sequential, making
//    "prefetch the next row" 100% accurate;
//  * the same field of consecutive records is contiguous, so GPGPU warps
//    coalesce and Millipede corelets carve the row into contiguous slabs.
//
// Two thread-to-record mappings (Section IV-C):
//  * kSlab — corelet c owns records [c*S, (c+1)*S) of each group (S = slab
//    words); its context x owns `rpt` consecutive records of that slab.
//    Used by Millipede, SSMC, VWS-row and the multicore.
//  * kWordInterleaved — warp lanes own consecutive records so that a warp's
//    load coalesces into 1-2 cache lines ("GPGPUs must use word-size
//    columns"). Used by the plain GPGPU and VWS.

#include "common/config.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace mlp::workloads {

enum class ThreadMapping : u8 { kSlab, kWordInterleaved };

/// How a record's fields are placed (Section IV-C):
///  * kFieldMajor — the default "array of structs of arrays": field f of a
///    group's records forms one row; a record's fields span F rows.
///  * kRecordContiguous — the paper's slab-interleaving: a record's fields
///    are contiguous within one row ("wider columns"), so a record touches
///    exactly ONE row — tiny prefetch windows suffice. Requires the field
///    count to divide the 16-word corelet slab (F in {1,2,4,8,16}).
/// Kernels are oblivious: the CSR view (csr_* accessors) re-expresses the
/// geometry so the same Map-loop skeleton addresses both layouts.
enum class LayoutMode : u8 { kFieldMajor, kRecordContiguous };

/// A thread's share of each record group: it owns records
/// idx_base + j*idx_stride for j in [0, rpt).
struct ThreadSlice {
  u32 idx_base = 0;
  u32 idx_stride = 1;
  u32 rpt = 0;  ///< records per thread per group
};

class InterleavedLayout {
 public:
  InterleavedLayout(u32 row_bytes, u32 fields, u64 num_records,
                    Addr base = 0, LayoutMode mode = LayoutMode::kFieldMajor);

  LayoutMode mode() const { return mode_; }

  // Kernel-facing CSR view. For kFieldMajor these match the physical
  // geometry; for kRecordContiguous they re-express it so the skeleton's
  //   field0_addr = INPUT_BASE + g*CSR_FIELDS*(1<<CSR_ROW_SHIFT) + idx*4
  //   field stride = 1 << CSR_ROW_SHIFT
  // arithmetic lands on the right bytes (idx is then in words, not records,
  // and the tail guard compares against NRECORDS*fields consistently).
  u32 csr_fields() const;
  u32 csr_row_shift() const;
  u32 csr_group_shift() const;
  u32 csr_ngroups() const;
  u32 csr_nrecords() const;

  u32 fields() const { return fields_; }
  u64 num_records() const { return num_records_; }
  u32 group_records() const { return group_records_; }
  u32 group_shift() const { return group_shift_; }
  u64 num_groups() const { return num_groups_; }
  Addr base() const { return base_; }

  /// Byte address of field `f` of record `r`.
  Addr address(u32 field, u64 record) const;

  /// Rows occupied by one record group.
  u64 rows_per_group() const {
    return mode_ == LayoutMode::kRecordContiguous ? rows_per_group_ : fields_;
  }

  /// Concurrent rows a single record's field loads touch (the prefetch
  /// window must cover this).
  u32 record_row_footprint() const {
    return mode_ == LayoutMode::kRecordContiguous ? 1 : fields_;
  }

  /// Total bytes of the image (whole groups, including tail padding).
  u64 total_bytes() const { return num_groups_ * rows_per_group() * row_bytes_; }

  u64 first_row() const { return base_ >> row_shift_; }
  u64 num_rows() const { return num_groups_ * rows_per_group(); }

  /// The slice of each group owned by hardware thread (core, ctx) — or, for
  /// kWordInterleaved, by (warp_index, lane) packed as core=warp, ctx=lane.
  ThreadSlice slice(ThreadMapping mapping, u32 cores, u32 contexts, u32 core,
                    u32 ctx, u32 warp_width = 0) const;

  /// For the prefetch buffer's RowPlan: bitmask of slab words corelet `c`
  /// (of `cores`) will demand from `row` under the kSlab mapping, given the
  /// actual record count (tail groups are partial).
  u64 expected_slab_mask(u64 row, u32 corelet, u32 cores) const;

 private:
  u32 row_bytes_;
  u32 fields_;
  u64 num_records_;
  u32 group_records_;
  u32 group_shift_;
  u32 row_shift_;
  u64 num_groups_;
  Addr base_;
  LayoutMode mode_;

  // kRecordContiguous geometry.
  u32 records_per_row_ = 0;  ///< row_words / fields
  u32 rows_per_group_ = 0;   ///< enough rows for >=1 record per context
};

}  // namespace mlp::workloads
