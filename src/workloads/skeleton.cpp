#include "workloads/skeleton.hpp"

namespace mlp::workloads {
namespace {

/// Both loop shapes start by reading the thread's CSRs into the skeleton's
/// registers (skeleton.hpp) and deriving the row size and the idx end.
constexpr char kCsrPreamble[] = R"(
    csrr r1, IDX_BASE
    csrr r2, IDX_STRIDE
    csrr r3, RPT
    csrr r4, NGROUPS
    csrr r5, NRECORDS
    csrr r6, FIELDS
    csrr r7, INPUT_BASE
    csrr r8, GROUP_SHIFT
    csrr r14, ROW_SHIFT
    li   r9, 1
    sll  r9, r9, r14        ; r9 = row bytes
    mul  r3, r3, r2
    add  r3, r3, r1         ; r3 = idx end = idx_base + rpt*stride
)";

}  // namespace

std::string kernel_skeleton(const std::string& preamble,
                            const std::string& body, bool record_barrier) {
  if (record_barrier) {
    // Fixed-trip-count loop (guarded per record) so every thread reaches
    // every barrier; tail imbalance must not skip synchronization points.
    std::string out = kCsrPreamble;
    out += preamble;
    out += R"(
    li   r10, 0
group_loop:
    bge  r10, r4, done
    mul  r11, r10, r6
    mul  r11, r11, r9
    add  r11, r11, r7
    mv   r12, r1
rec_loop:
    sll  r14, r10, r8
    add  r14, r14, r12
    bge  r14, r5, skip_rec  ; per-record tail guard
    slli r15, r12, 2
    add  r15, r15, r11
)";
    out += body;
    out += R"(
skip_rec:
    bar                     ; record-granularity software barrier
    add  r12, r12, r2
    blt  r12, r3, rec_loop
next_group:
    addi r10, r10, 1
    j    group_loop
done:
    halt
)";
    return out;
  }
  // Per-record overhead is kept minimal (4 instructions: address compute,
  // index bump, loop branch) by hoisting the tail-group guard into a
  // per-group limit: the record loop runs idx from idx_base up to
  // min(idx_base + rpt*stride, records remaining in this group).
  std::string out = kCsrPreamble;
  out += preamble;
  out += R"(
    li   r10, 0             ; g = 0
group_loop:
    bge  r10, r4, done
    mul  r11, r10, r6       ; first row of group = g * fields
    mul  r11, r11, r9
    add  r11, r11, r7       ; field-0 row base address
    sll  r14, r10, r8
    sub  r14, r5, r14       ; records remaining from this group's start
    mv   r13, r3            ; limit = idx end
    bge  r14, r3, limit_ok
    mv   r13, r14           ; tail group: limit = remaining
limit_ok:
    mv   r12, r1            ; idx = idx_base
    bge  r12, r13, next_group
rec_loop:
    slli r15, r12, 2
    add  r15, r15, r11      ; address of field 0
)";
  out += body;
  out += R"(
    add  r12, r12, r2
    blt  r12, r13, rec_loop
next_group:
    addi r10, r10, 1
    j    group_loop
done:
    halt
)";
  return out;
}

}  // namespace mlp::workloads
