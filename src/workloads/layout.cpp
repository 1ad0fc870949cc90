#include "workloads/layout.hpp"

#include <string>

#include "common/error.hpp"

namespace mlp::workloads {
namespace {

/// Rows per group in kRecordContiguous mode: enough rows that a corelet's
/// slabs hold at least one record per hardware context (sized for the
/// paper's 4-context corelets; slice() validates other configurations).
u32 contiguous_rows_per_group(u32 fields) {
  return fields <= 4 ? 1 : fields / 4;
}

u64 ceil_div(u64 a, u64 b) { return a / b + (a % b != 0 ? 1 : 0); }

/// The machine addresses its input through 32-bit registers and CSRs
/// (csr_nrecords() narrows), so a larger image is a config error.
constexpr u64 kMaxImageBytes = u64{1} << 32;

}  // namespace

InterleavedLayout::InterleavedLayout(u32 row_bytes, u32 fields,
                                     u64 num_records, Addr base,
                                     LayoutMode mode)
    : row_bytes_(row_bytes),
      fields_(fields),
      num_records_(num_records),
      group_records_(row_bytes / 4),
      group_shift_(log2_exact(group_records_)),
      row_shift_(log2_exact(row_bytes)),
      num_groups_(ceil_div(num_records, group_records_)),
      base_(base),
      mode_(mode) {
  MLP_CHECK(is_pow2(row_bytes_), "row size must be a power of two");
  MLP_CHECK(fields_ > 0 && num_records_ > 0, "empty layout");
  MLP_CHECK(base_ % row_bytes_ == 0, "base must be row-aligned");
  if (mode_ == LayoutMode::kRecordContiguous) {
    const u32 row_words = row_bytes_ / 4;
    MLP_SIM_CHECK(is_pow2(fields_) && fields_ <= row_words, "config",
                  "record-contiguous layout needs a power-of-two field count");
    records_per_row_ = row_words / fields_;
    rows_per_group_ = contiguous_rows_per_group(fields_);
    group_records_ = records_per_row_ * rows_per_group_;
    group_shift_ = log2_exact(group_records_);
    num_groups_ = ceil_div(num_records_, group_records_);
  }
  MLP_SIM_CHECK(num_groups_ <= kMaxImageBytes / (rows_per_group() * row_bytes_),
                "config",
                "an input of " + std::to_string(num_records_) +
                    " records x " + std::to_string(fields_) +
                    " words exceeds the 4 GiB the machine can address");
}

Addr InterleavedLayout::address(u32 field, u64 record) const {
  MLP_CHECK(field < fields_ && record < num_records_, "record out of range");
  if (mode_ == LayoutMode::kRecordContiguous) {
    // Whole records contiguous: plain array-of-structs bytes (records per
    // row divides the row exactly, so rows never split a record).
    return base_ + (record * fields_ + field) * 4;
  }
  const u64 group = record >> group_shift_;
  const u64 idx = record & (group_records_ - 1);
  return base_ + ((group * fields_ + field) << row_shift_) + idx * 4;
}

u32 InterleavedLayout::csr_fields() const {
  if (mode_ == LayoutMode::kRecordContiguous) {
    return rows_per_group_ * (row_bytes_ / 4);
  }
  return fields_;
}

u32 InterleavedLayout::csr_row_shift() const {
  return mode_ == LayoutMode::kRecordContiguous ? 2 : row_shift_;
}

u32 InterleavedLayout::csr_group_shift() const {
  if (mode_ == LayoutMode::kRecordContiguous) {
    return log2_exact(static_cast<u64>(rows_per_group_) * (row_bytes_ / 4));
  }
  return group_shift_;
}

u32 InterleavedLayout::csr_ngroups() const {
  return static_cast<u32>(num_groups_);
}

u32 InterleavedLayout::csr_nrecords() const {
  if (mode_ == LayoutMode::kRecordContiguous) {
    // The skeleton's indices are in words here; a record with premultiplied
    // index i = r*fields is valid iff i < N*fields.
    return static_cast<u32>(num_records_ * fields_);
  }
  return static_cast<u32>(num_records_);
}

ThreadSlice InterleavedLayout::slice(ThreadMapping mapping, u32 cores,
                                     u32 contexts, u32 core, u32 ctx,
                                     u32 warp_width) const {
  const u32 threads = cores * contexts;
  ThreadSlice s;
  if (mode_ == LayoutMode::kRecordContiguous) {
    MLP_CHECK(mapping == ThreadMapping::kSlab,
              "record-contiguous layout uses slab mapping");
    const u32 row_words = row_bytes_ / 4;
    const u32 slab_words = row_words / cores;
    MLP_SIM_CHECK(fields_ <= slab_words, "config",
                  "record must fit the corelet slab in contiguous mode");
    const u32 records_per_slab = slab_words / fields_;
    const u32 per_corelet = rows_per_group_ * records_per_slab;
    MLP_SIM_CHECK(per_corelet % contexts == 0, "config",
                  "group must split evenly across contexts in contiguous mode");
    s.rpt = per_corelet / contexts;
    const u32 m0 = ctx * s.rpt;            // first record (corelet-local)
    const u32 row = m0 / records_per_slab;  // row within the group
    const u32 slot = m0 % records_per_slab;
    s.idx_base = row * row_words + core * slab_words + slot * fields_;
    s.idx_stride = fields_;  // consecutive records stay within the slab
    return s;
  }
  switch (mapping) {
    case ThreadMapping::kSlab: {
      // Corelet c owns slab words [c*S, (c+1)*S); context x owns rpt
      // consecutive records within that slab.
      const u32 slab_words = group_records_ / cores;
      MLP_SIM_CHECK(slab_words % contexts == 0, "config",
                    "slab must split evenly across contexts");
      s.rpt = slab_words / contexts;
      s.idx_base = core * slab_words + ctx * s.rpt;
      s.idx_stride = 1;
      break;
    }
    case ThreadMapping::kWordInterleaved: {
      // `core` is the warp index, `ctx` the lane: warp lanes own consecutive
      // records so global loads coalesce.
      MLP_CHECK(warp_width > 0, "word mapping needs the warp width");
      MLP_CHECK(group_records_ % threads == 0,
                "groups must split evenly across threads");
      s.rpt = group_records_ / threads;
      s.idx_base = core * warp_width + ctx;
      s.idx_stride = threads;
      break;
    }
  }
  return s;
}

u64 InterleavedLayout::expected_slab_mask(u64 row, u32 corelet,
                                          u32 cores) const {
  MLP_CHECK(row >= first_row() && row < first_row() + num_rows(),
            "row outside layout");
  const u32 slab_words = (row_bytes_ / 4) / cores;
  u64 mask = 0;
  if (mode_ == LayoutMode::kRecordContiguous) {
    const u64 row_index = row - first_row();
    for (u32 w = 0; w < slab_words; ++w) {
      const u64 record = row_index * records_per_row_ +
                         (corelet * slab_words + w) / fields_;
      if (record < num_records_) mask |= u64{1} << w;
    }
    return mask;
  }
  const u64 group = (row - first_row()) / fields_;
  for (u32 w = 0; w < slab_words; ++w) {
    const u64 record = (group << group_shift_) + corelet * slab_words + w;
    if (record < num_records_) mask |= u64{1} << w;
  }
  return mask;
}

}  // namespace mlp::workloads
