// Tests for the record-contiguous (slab-interleaving) layout of
// Section IV-C: geometry, CSR re-expression, slice partitioning, expected
// masks, and end-to-end golden verification on Millipede and SSMC —
// including tiny prefetch windows that the field-major layout cannot use.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arch/system.hpp"
#include "common/error.hpp"
#include "workloads/binding.hpp"

namespace mlp::workloads {
namespace {

TEST(SlabLayout, AddressesAreRecordContiguous) {
  InterleavedLayout layout(2048, 16, 3000, 0,
                           LayoutMode::kRecordContiguous);
  for (u64 r = 0; r < 64; ++r) {
    for (u32 f = 0; f + 1 < 16; ++f) {
      EXPECT_EQ(layout.address(f + 1, r), layout.address(f, r) + 4);
    }
  }
  // 32 records per row: record 32 starts the second row.
  EXPECT_EQ(layout.address(0, 32), 2048u);
  EXPECT_EQ(layout.record_row_footprint(), 1u);
}

TEST(SlabLayout, AddressesBijective) {
  InterleavedLayout layout(2048, 8, 1000, 0,
                           LayoutMode::kRecordContiguous);
  std::set<Addr> seen;
  for (u64 r = 0; r < 1000; ++r) {
    for (u32 f = 0; f < 8; ++f) {
      ASSERT_TRUE(seen.insert(layout.address(f, r)).second);
      ASSERT_LT(layout.address(f, r), layout.total_bytes());
    }
  }
}

TEST(SlabLayout, CsrViewAddressesMatchPhysical) {
  // The kernel computes field f of (group g, idx) as
  //   base + g*CSR_FIELDS*(1<<CSR_ROW_SHIFT) + idx*4 + f*(1<<CSR_ROW_SHIFT)
  // which must agree with address(f, record) under the slice mapping.
  InterleavedLayout layout(2048, 16, 4096, 0,
                           LayoutMode::kRecordContiguous);
  const u32 cores = 32, contexts = 4;
  for (u32 c = 0; c < cores; c += 7) {
    for (u32 x = 0; x < contexts; ++x) {
      const ThreadSlice s =
          layout.slice(ThreadMapping::kSlab, cores, contexts, c, x);
      for (u32 g = 0; g < 3; ++g) {
        for (u32 j = 0; j < s.rpt; ++j) {
          const u64 idx = s.idx_base + j * s.idx_stride;
          const u64 premult = (static_cast<u64>(g) << layout.csr_group_shift()) + idx;
          const u64 record = premult / 16;  // fields = 16
          for (u32 f = 0; f < 16; ++f) {
            const Addr kernel_addr =
                static_cast<Addr>(g) * layout.csr_fields() *
                    (1u << layout.csr_row_shift()) +
                idx * 4 + f * (1u << layout.csr_row_shift());
            EXPECT_EQ(kernel_addr, layout.address(f, record))
                << "c=" << c << " x=" << x << " g=" << g << " j=" << j
                << " f=" << f;
          }
        }
      }
    }
  }
}

TEST(SlabLayout, SlicesPartitionEveryGroupOnce) {
  InterleavedLayout layout(2048, 8, 8192, 0,
                           LayoutMode::kRecordContiguous);
  const u32 cores = 32, contexts = 4;
  // Group = 2 rows x 64 records = 128 records; indices are premultiplied.
  std::set<u64> owned;
  for (u32 c = 0; c < cores; ++c) {
    for (u32 x = 0; x < contexts; ++x) {
      const ThreadSlice s =
          layout.slice(ThreadMapping::kSlab, cores, contexts, c, x);
      for (u32 j = 0; j < s.rpt; ++j) {
        ASSERT_TRUE(owned.insert(s.idx_base + j * s.idx_stride).second);
      }
    }
  }
  EXPECT_EQ(owned.size(), 128u);  // every record exactly once
  for (u64 idx : owned) EXPECT_EQ(idx % 8, 0u) << "record-aligned indices";
}

TEST(SlabLayout, ExpectedMasksCoverValidRecordsOnly) {
  // 40 records of 16 fields: 32 in row 0, 8 in row 1, rows 2-3 padding.
  InterleavedLayout layout(2048, 16, 40, 0, LayoutMode::kRecordContiguous);
  const u32 cores = 32;
  // Row 0: every corelet's slab holds one full 16-word record.
  for (u32 c = 0; c < cores; ++c) {
    EXPECT_EQ(layout.expected_slab_mask(0, c, cores), 0xffffu);
  }
  // Row 1: only corelets 0..7 hold valid records (records 32..39).
  EXPECT_EQ(layout.expected_slab_mask(1, 7, cores), 0xffffu);
  EXPECT_EQ(layout.expected_slab_mask(1, 8, cores), 0u);
}

TEST(SlabLayout, RejectsNonPowerOfTwoFields) {
  try {
    InterleavedLayout(2048, 9, 100, 0, LayoutMode::kRecordContiguous);
    FAIL() << "a 9-field record laid out record-contiguously";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), "config");
    EXPECT_NE(std::string(e.what()).find("power-of-two field count"),
              std::string::npos);
  }
}

class SlabGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SlabGolden, VerifiesOnMillipedeAndSsmc) {
  WorkloadParams params;
  params.num_records = 4096;
  const Workload wl = make_bmla(GetParam(), params);
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.slab_layout = true;
  for (const arch::ArchKind kind :
       {arch::ArchKind::kMillipede, arch::ArchKind::kSsmc}) {
    const arch::RunResult r = arch::run_arch(kind, cfg, wl);
    EXPECT_EQ(r.verification, "") << arch_name(kind) << "/" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Fields, SlabGolden,
                         ::testing::Values("count", "sample", "variance",
                                           "classify", "kmeans", "pca",
                                           "gda"),
                         [](const auto& info) { return info.param; });

TEST(SlabLayout, TinyPrefetchWindowWorksContiguousOnly) {
  WorkloadParams params;
  params.num_records = 8192;
  const Workload wl = make_bmla("pca", params);
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.millipede.pf_entries = 4;
  // Field-major: a pca record needs 16 concurrent rows -> rejected.
  EXPECT_THROW(arch::run_arch(arch::ArchKind::kMillipede, cfg, wl), SimError);
  // Record-contiguous: one row per record -> 4 entries suffice.
  cfg.slab_layout = true;
  const arch::RunResult r =
      arch::run_arch(arch::ArchKind::kMillipedeNoRateMatch, cfg, wl);
  EXPECT_EQ(r.verification, "");
}

TEST(SlabLayout, GpgpuRejectsContiguousLayout) {
  WorkloadParams params;
  params.num_records = 2048;
  MachineConfig cfg = MachineConfig::paper_defaults();
  cfg.slab_layout = true;
  // nbayes has no record-contiguous layout at all: the rejection must come
  // before the run prepares its input.
  for (const char* bench : {"count", "nbayes"}) {
    const Workload wl = make_bmla(bench, params);
    EXPECT_THROW(arch::run_arch(arch::ArchKind::kGpgpu, cfg, wl), SimError)
        << bench;
  }
}

}  // namespace
}  // namespace mlp::workloads
