// `sample` — sample selection: per bin, count occurrences and keep the first
// M sample record-ids. The atomic fetch-and-add returns the claimed slot,
// making the bounded insert race-free across contexts; whether the slot
// branch is taken is data-dependent (bins fill at different times under the
// skewed bin distribution).

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "workloads/bmla.hpp"
#include "workloads/skeleton.hpp"

namespace mlp::workloads {
namespace {

const char* kPreamble = R"(
    li   r21, 1
    csrr r22, ARG0          ; slots per bin (M)
)";

// Live state: bin b at byte b*16 — word 0 count, words 1..3 sample ids.
const char* kBody = R"(
    lw   r16, 0(r15)        ; bin
    slli r16, r16, 4
    amoadd.l r17, r21, 0(r16)   ; slot = count++
    bge  r17, r22, samp_skip    ; bin already has M samples?
    sll  r14, r10, r8
    add  r14, r14, r12      ; global record id
    slli r17, r17, 2
    add  r17, r17, r16
    sw.l r14, 4(r17)        ; store the record id
samp_skip:
)";

/// Skewed bin distribution (quadratic toward bin 0), cheap and deterministic.
u32 skewed_bin(Rng& rng) {
  const double u = rng.uniform();
  return static_cast<u32>(u * u * kSampleBins);
}

}  // namespace

Workload make_sample(const WorkloadParams& params) {
  Workload wl;
  wl.name = "sample";
  wl.description = "per-bin sample selection: counts plus first-M elements";
  wl.program = isa::must_assemble(
      "sample", kernel_skeleton(kPreamble, kBody, params.record_barrier));
  wl.fields = 1;
  wl.num_records = params.num_records;
  wl.args[0] = kSampleSlots;
  // Only the counts are deterministically comparable: which record ids land
  // in the slots depends on timing. Slot contents are property-checked in
  // tests (each stored id must belong to the bin).
  wl.state_schema = {{"counts", 0, kSampleBins, 4, false}};

  wl.generate = [](const InterleavedLayout& layout, mem::DramImage& image,
                   Rng& rng) {
    for (u64 r = 0; r < layout.num_records(); ++r) {
      image.write_u32(layout.address(0, r), skewed_bin(rng));
    }
  };

  wl.reference = [](const mem::DramImage& image,
                    const InterleavedLayout& layout) {
    std::vector<double> counts(kSampleBins, 0.0);
    for (u64 r = 0; r < layout.num_records(); ++r) {
      // A no-ECC fault run recomputes this from a possibly corrupted image.
      const u32 bin = image.read_u32(layout.address(0, r));
      MLP_SIM_CHECK(bin < kSampleBins, "verification",
                    "sample input " + std::to_string(bin) + " is not a bin");
      counts[bin] += 1.0;
    }
    return counts;
  };
  return wl;
}

}  // namespace mlp::workloads
