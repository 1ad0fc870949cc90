#include "core/decode_cache.hpp"

namespace mlp::core {

DecodedBlockCache::DecodedBlockCache(const isa::Program& program,
                                     bool per_opcode_handlers)
    : program_(&program),
      cfg_(isa::Cfg::build(program)),
      per_opcode_(per_opcode_handlers),
      entries_(program.size()) {}

void DecodedBlockCache::decode_block(u32 block) {
  const isa::BasicBlock& bb = cfg_.blocks()[block];
  for (u32 pc = bb.first; pc <= bb.last; ++pc) {
    const isa::Instr& in = program_->at(pc);
    DecodedInstr& de = entries_[pc];
    de.instr = in;
    de.kind = classify(in);
    de.is_store = isa::op_info(in.op).is_store;
    de.fn = per_opcode_ ? step_fn_for(in.op) : step_reference;
    de.block = block;
    de.taken_pc = static_cast<u32>(static_cast<i32>(pc) + in.imm);
  }
  block_misses_.inc();
}

void DecodedBlockCache::save_state(sim::SnapshotWriter& w) const {
  const auto& blocks = cfg_.blocks();
  u32 decoded = 0;
  for (u32 b = 0; b < blocks.size(); ++b) {
    if (entries_[blocks[b].first].fn != nullptr) ++decoded;
  }
  w.put_u32(decoded);
  for (u32 b = 0; b < blocks.size(); ++b) {
    if (entries_[blocks[b].first].fn != nullptr) w.put_u32(b);
  }
}

void DecodedBlockCache::restore_state(sim::SnapshotCursor& r) {
  const u32 decoded = r.get_u32();
  const u32 blocks = static_cast<u32>(cfg_.blocks().size());
  for (u32 i = 0; i < decoded; ++i) {
    const u32 block = r.get_u32();
    MLP_SIM_CHECK(block < blocks, "snapshot",
                  "snapshot decoded-block id outside this program");
    decode_block(block);
  }
}

void DecodedBlockCache::register_with(StatSet* stats,
                                      const std::string& prefix) {
  if (stats == nullptr) return;
  stats->add(prefix + ".block_hits", &block_hits_);
  stats->add(prefix + ".block_misses", &block_misses_);
  stats->add(prefix + ".batched_lanes", &batched_lanes_);
}

}  // namespace mlp::core
