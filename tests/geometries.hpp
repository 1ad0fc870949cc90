#pragma once
// Machine geometries one flag can set but the machine cannot build: an SM
// wider than a lane mask, slabs wider than the prefetch buffer's word mask
// and slabs the input layout cannot split. Each must fail its job as a
// typed `config` error, never abort the process.

#include "arch/system.hpp"
#include "sim/knobs.hpp"

namespace mlp::test {

struct Geometry {
  arch::ArchKind kind;
  const char* bench;
  u32 cores;
  bool slab_layout;

  /// `base` with this geometry's --cores and --slab-layout set.
  sim::SuiteOptions apply(sim::SuiteOptions base) const {
    sim::knob_set(*sim::knob_named("cores"), base, u64{cores});
    base.cfg.slab_layout = slab_layout;
    return base;
  }
};

inline constexpr Geometry kImpossibleGeometries[] = {
    {arch::ArchKind::kGpgpu, "count", 128, false},
    {arch::ArchKind::kVws, "count", 128, false},
    {arch::ArchKind::kVwsRow, "count", 128, false},
    {arch::ArchKind::kGpgpu, "count", 256, false},
    {arch::ArchKind::kVwsRow, "count", 2, false},
    {arch::ArchKind::kMillipede, "nbayes", 32, true},
    {arch::ArchKind::kSsmc, "nbayes", 32, true},
    {arch::ArchKind::kMillipede, "pca", 64, true},
    {arch::ArchKind::kMillipede, "gda", 64, true},
    {arch::ArchKind::kMillipede, "kmeans", 64, true},
    {arch::ArchKind::kMillipede, "classify", 64, true},
    {arch::ArchKind::kMillipede, "count", 256, false},
    {arch::ArchKind::kSsmc, "count", 256, false},
    {arch::ArchKind::kMillipede, "count", 512, false},
};

}  // namespace mlp::test
