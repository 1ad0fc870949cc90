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

void DecodedBlockCache::checkpoint(sim::StateIO& io) {
  // Capture lists the decoded blocks by id; restore decodes each of them.
  const auto& blocks = cfg_.blocks();
  std::vector<u32> decoded;
  for (u32 b = 0; !io.loading() && b < blocks.size(); ++b) {
    if (entries_[blocks[b].first].fn != nullptr) decoded.push_back(b);
  }
  u32 count = static_cast<u32>(decoded.size());
  io.field(count);
  for (u32 i = 0; i < count; ++i) {
    u32 block = io.loading() ? 0 : decoded[i];
    io.index(block, blocks.size(), "decoded-block id");
    if (io.loading()) decode_block(block);
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
