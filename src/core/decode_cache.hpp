#pragma once
// Decoded-basic-block cache: the interpreter's only dispatch. Built lazily
// over the program's CFG (one whole block decoded on first entry), shared
// read-only by every corelet/lane of one job; the corelets and the SM
// execute every issued instruction through its DecodedInstr's handler.
// `--no-block-cache` installs the reference step() as every instruction's
// handler instead of the per-opcode ones, which keeps the switch
// interpreter as a differential oracle. Accounting (decode.block_hits /
// block_misses / batched_lanes) is a pure function of the deterministic
// issue stream, so every counter is bit-identical in both modes.

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/functional.hpp"
#include "isa/cfg.hpp"
#include "sim/snapshot.hpp"

namespace mlp::core {

class DecodedBlockCache : public sim::Snapshottable {
 public:
  /// Builds the CFG eagerly; instruction decoding happens lazily per block.
  /// `per_opcode_handlers` false decodes every instruction to the reference
  /// step() handler (core::step_reference).
  explicit DecodedBlockCache(const isa::Program& program,
                             bool per_opcode_handlers = true);

  /// Accounting + lookup for the instruction at `pc`. First touch of a
  /// block decodes it whole (block_misses); later issues into a decoded
  /// block are block_hits, and consecutive issues into the SAME block
  /// within one compute edge additionally count as batched_lanes (the
  /// convergence-batching measure: those issues share one decoded stream).
  const DecodedInstr& entry(u32 pc) {
    MLP_CHECK(pc < entries_.size(), "pc outside the program");
    const DecodedInstr& de = entries_[pc];
    if (de.fn == nullptr) {  // fn is set for every slot of a decoded block
      decode_block(cfg_.block_of(pc));
    } else {
      block_hits_.inc();
      batched_lanes_.inc(de.block == edge_block_);  // no branch to mispredict
    }
    edge_block_ = de.block;
    return de;
  }

  /// Resets the convergence memo; the processor's compute unit (the corelet
  /// array or the SM) calls this at the start of each of its ticks. An edge
  /// at which it is not ticked issues nothing, so that changes no counter.
  void begin_compute_edge() { edge_block_ = kNoBlock; }

  /// Extra converged lanes executing one decoded instruction (SIMT warps:
  /// active_lanes - 1 per issued warp instruction).
  void note_batched(u64 lanes) { batched_lanes_.inc(lanes); }

  const isa::Program& program() const { return *program_; }
  const isa::Cfg& cfg() const { return cfg_; }

  void register_with(StatSet* stats, const std::string& prefix);

  // sim::Snapshottable: the set of already-decoded blocks. Without this a
  // restored run would count fresh block_misses where the original counted
  // block_hits; restore re-decodes each saved block (the miss counts that
  // incurs are overwritten by the snapshot's counter section, applied last).
  // The convergence memo needs no saving: the compute unit's first tick
  // after a restore resets it before any issue.
  void checkpoint(sim::StateIO& io) override;

 private:
  static constexpr u32 kNoBlock = 0xffffffffu;

  void decode_block(u32 block);

  const isa::Program* program_;
  isa::Cfg cfg_;
  bool per_opcode_;
  std::vector<DecodedInstr> entries_;  ///< indexed by pc
  u32 edge_block_ = kNoBlock;
  Counter block_hits_, block_misses_, batched_lanes_;
};

}  // namespace mlp::core
