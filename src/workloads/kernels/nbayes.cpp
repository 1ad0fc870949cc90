// `nbayes` — Naive Bayes training exactly as in the paper's Table I
// walk-through: classify each record by a data-dependent year threshold
// (~70/30 branch), then bump the conditional-probability counter
// Cprob[dim][x][class] for every dimension — a data-dependent indirect
// update into the live state.

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "workloads/bmla.hpp"
#include "workloads/skeleton.hpp"

namespace mlp::workloads {
namespace {

constexpr u32 kYearRange = 100;
constexpr u32 kThreshold = 69;  // P(year <= 69) = 0.7

const char* kPreamble = R"(
    csrr r20, ARG0          ; year threshold
    li   r21, 1
    li   r22, 8             ; dimensions
    li   r23, 512           ; classCount byte base (after 128 Cprob words)
    li   r24, 64            ; per-dim Cprob stride = K*2*4 bytes
)";

// Record: year, x[8] (x in 0..7). Live state: Cprob[8][8][2] then
// classCount[2]. Cprob[d][x][c] at byte d*64 + x*8 + c*4.
const char* kBody = R"(
    lw   r16, 0(r15)        ; year
    li   r17, 0
    ble  r16, r20, nb_cls   ; 70/30 data-dependent class branch
    li   r17, 1
nb_cls:
    slli r18, r17, 2
    add  r18, r18, r23
    amoadd.l r19, r21, 0(r18)   ; classCount[class]++
    slli r17, r17, 2        ; class * 4
    mv   r25, r15
    li   r26, 0             ; d
    li   r27, 0             ; d * 64
nb_dim:
    bge  r26, r22, nb_done
    add  r25, r25, r9
    lw   r28, 0(r25)        ; x[d]
    slli r29, r28, 3
    add  r29, r29, r27
    add  r29, r29, r17
    amoadd.l r30, r21, 0(r29)   ; Cprob[d][x][class]++  (indirect)
    add  r27, r27, r24
    addi r26, r26, 1
    j    nb_dim
nb_done:
)";

}  // namespace

Workload make_nbayes(const WorkloadParams& params) {
  Workload wl;
  wl.name = "nbayes";
  wl.description = "Naive Bayes conditional-probability training (Table I)";
  wl.program = isa::must_assemble(
      "nbayes", kernel_skeleton(kPreamble, kBody, params.record_barrier));
  wl.fields = 1 + kNbDims;
  wl.num_records = params.num_records;
  wl.args[0] = kThreshold;
  wl.state_schema = {
      {"cprob", 0, kNbDims * kNbBins * 2, 1, false},
      {"class_count", kNbDims * kNbBins * 2, 2, 1, false},
  };

  wl.generate = [](const InterleavedLayout& layout, mem::DramImage& image,
                   Rng& rng) {
    for (u64 r = 0; r < layout.num_records(); ++r) {
      image.write_u32(layout.address(0, r),
                      static_cast<u32>(rng.below(kYearRange)));
      for (u32 d = 0; d < kNbDims; ++d) {
        image.write_u32(layout.address(1 + d, r),
                        static_cast<u32>(rng.below(kNbBins)));
      }
    }
  };

  wl.reference = [](const mem::DramImage& image,
                    const InterleavedLayout& layout) {
    std::vector<double> cprob(kNbDims * kNbBins * 2, 0.0);
    std::vector<double> class_count(2, 0.0);
    for (u64 r = 0; r < layout.num_records(); ++r) {
      const u32 year = image.read_u32(layout.address(0, r));
      const u32 cls = year > kThreshold ? 1 : 0;
      class_count[cls] += 1.0;
      for (u32 d = 0; d < kNbDims; ++d) {
        // A no-ECC fault run recomputes this from a possibly corrupted image.
        const u32 x = image.read_u32(layout.address(1 + d, r));
        MLP_SIM_CHECK(x < kNbBins, "verification",
                      "nbayes input " + std::to_string(x) + " is not a bin");
        cprob[(d * kNbBins + x) * 2 + cls] += 1.0;
      }
    }
    std::vector<double> out = cprob;
    out.insert(out.end(), class_count.begin(), class_count.end());
    return out;
  };
  return wl;
}

}  // namespace mlp::workloads
