// Dedicated tests for the two prefetcher flavours: the jitter-tolerant
// sequential-window prefetcher (GPGPU/VWS) and the multi-stream stride
// table (SSMC/multicore). Includes the regression scenarios that motivated
// each design: out-of-phase narrow warps and interleaved field-row streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "mem/prefetcher.hpp"

namespace mlp::mem {
namespace {

/// The lines a prefetcher asks for on a demand access to `addr`.
template <typename Prefetcher>
std::vector<Addr> observe(Prefetcher& pf, Addr addr) {
  std::vector<Addr> lines;
  pf.observe(addr, &lines);
  return lines;
}

// --- SequentialPrefetcher ---

TEST(SequentialPrefetcher, RunsAheadOfSequentialStream) {
  SequentialPrefetcher pf(128, /*degree=*/2, /*distance=*/4);
  EXPECT_TRUE(observe(pf, 0).empty());  // warm up
  auto lines = observe(pf, 128);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 256u);
  EXPECT_EQ(lines[1], 384u);
}

TEST(SequentialPrefetcher, NeverReissuesCoveredLines) {
  SequentialPrefetcher pf(128, 4, 8);
  std::set<Addr> issued;
  for (u32 i = 0; i < 64; ++i) {
    for (Addr a : observe(pf, i * 128)) {
      EXPECT_TRUE(issued.insert(a).second) << "line issued twice";
    }
  }
}

TEST(SequentialPrefetcher, ToleratesJitterFromManyRequesters) {
  // 32 warps marching through the same region slightly out of phase: the
  // observed line sequence is sequential with +-2 jitter. The window
  // prefetcher must keep issuing ahead, never resetting.
  SequentialPrefetcher pf(128, 4, 8);
  Rng rng(3);
  u64 prefetched = 0;
  for (u32 step = 4; step < 512; ++step) {
    const u64 jitter = rng.below(4);
    const u64 line = step >= jitter ? step - jitter : 0;
    prefetched += observe(pf, line * 128).size();
  }
  // It must cover most of the stream despite the jitter.
  EXPECT_GT(prefetched, 400u);
}

TEST(SequentialPrefetcher, AccessBehindHeadIsIgnored) {
  SequentialPrefetcher pf(128, 2, 4);
  for (u32 i = 0; i < 16; ++i) observe(pf, i * 128);
  EXPECT_TRUE(observe(pf, 0).empty()) << "stale access far behind the head";
}

TEST(SequentialPrefetcher, ForwardJumpFollowsTheStream) {
  SequentialPrefetcher pf(128, 2, 4);
  observe(pf, 0);
  observe(pf, 128);
  const auto lines = observe(pf, 100 * 128);  // new row region
  ASSERT_FALSE(lines.empty());
  EXPECT_GE(lines[0] / 128, 101u);
}

// --- StreamTable ---

TEST(StreamTable, SeparatesSpatiallyDistantStreams) {
  // Two interleaved streams far apart, each with unit stride.
  StreamTable table(128, 2, 4, 4);
  u64 hits_a = 0, hits_b = 0;
  for (u32 i = 0; i < 16; ++i) {
    for (Addr a : observe(table, i * 128)) {
      if (a < 1u << 20) ++hits_a;
    }
    for (Addr a : observe(table, (1u << 24) + i * 128)) {
      if (a >= 1u << 24) ++hits_b;
    }
  }
  EXPECT_GT(hits_a, 8u);
  EXPECT_GT(hits_b, 8u);
}

TEST(StreamTable, TracksRowStridedFieldStreams) {
  // An SSMC core revisits one line per field row: stride 16 lines, with a
  // periodic back-jump at record boundaries. The table must keep
  // prefetching the forward strides.
  StreamTable table(128, 1, 2, 4);
  u64 prefetched = 0;
  for (u32 rec = 0; rec < 8; ++rec) {
    for (u32 f = 0; f < 4; ++f) {
      prefetched += observe(table, (rec * 64 + f * 16) * 128).size();
    }
  }
  EXPECT_GT(prefetched, 10u);
}

TEST(StreamTable, LruReplacementUnderManyStreams) {
  // More streams than entries: must not crash, and recent streams win.
  StreamTable table(128, 1, 2, 2);
  for (u32 s = 0; s < 8; ++s) {
    for (u32 i = 0; i < 4; ++i) {
      observe(table, static_cast<Addr>(s) * (1u << 22) + i * 128);
    }
  }
  // The most recent stream still detects its stride.
  EXPECT_FALSE(observe(table, 7ull * (1u << 22) + 4 * 128).empty());
}

// --- Parameterized stride sweep for the basic detector ---

class StrideSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrideSweep, DetectsConstantStride) {
  const int stride = GetParam();
  StreamPrefetcher pf(128, 2, 8);
  const i64 base = 1 << 20;  // room for negative strides
  observe(pf, base * 128);
  observe(pf, (base + stride) * 128);
  const auto lines = observe(pf, (base + 2 * stride) * 128);
  ASSERT_FALSE(lines.empty()) << "stride " << stride;
  EXPECT_EQ(lines[0], static_cast<Addr>((base + 3 * stride)) * 128);
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideSweep,
                         ::testing::Values(1, 2, 4, 16, 64, -1, -16));

}  // namespace
}  // namespace mlp::mem
