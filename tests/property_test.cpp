// Randomized property tests over module invariants:
//  * every encodable instruction round-trips through encode/decode and
//    through the disassembler+assembler;
//  * the interleaved layout is a bijection and thread slices partition it;
//  * the DRAM controller completes every accepted request exactly once and
//    conserves bytes;
//  * the SIMT stack executes exactly the instruction sequence each lane
//    would execute alone (lockstep-with-masking correctness) on randomly
//    generated branchy programs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/functional.hpp"
#include "gpgpu/simt_stack.hpp"
#include "isa/assembler.hpp"
#include "isa/cfg.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"
#include "mem/addrmap.hpp"
#include "mem/channels.hpp"
#include "wake_probe.hpp"
#include "workloads/layout.hpp"

namespace mlp {
namespace {

// --- Random instruction round trips ---

isa::Instr random_instr(Rng& rng) {
  while (true) {
    const auto op = static_cast<isa::Opcode>(rng.below(isa::kNumOpcodes));
    isa::Instr in;
    in.op = op;
    in.rd = static_cast<u8>(rng.below(32));
    in.rs1 = static_cast<u8>(rng.below(32));
    in.rs2 = static_cast<u8>(rng.below(32));
    switch (isa::op_info(op).format) {
      case isa::Format::kR:
        break;
      case isa::Format::kRu:
        in.rs2 = 0;
        break;
      case isa::Format::kI:
      case isa::Format::kL:
        in.rs2 = 0;
        in.imm = static_cast<i32>(rng.below(1 << 14)) - (1 << 13);
        break;
      case isa::Format::kS:
      case isa::Format::kB:
        in.rd = 0;
        in.imm = static_cast<i32>(rng.below(1 << 14)) - (1 << 13);
        break;
      case isa::Format::kA:
        in.imm = static_cast<i32>(rng.below(1 << 9)) - (1 << 8);
        break;
      case isa::Format::kJ:
        in.rs1 = in.rs2 = 0;
        in.imm = static_cast<i32>(rng.below(1 << 19)) - (1 << 18);
        break;
      case isa::Format::kU:
        in.rs1 = in.rs2 = 0;
        in.imm = static_cast<i32>(rng.below(1 << 19));
        break;
      case isa::Format::kC:
        in.rs1 = in.rs2 = 0;
        in.imm = static_cast<i32>(rng.below(15));  // valid CSR ids
        break;
      case isa::Format::kN:
        in.rd = in.rs1 = in.rs2 = 0;
        break;
    }
    return in;
  }
}

TEST(Property, EncodingRoundTripsRandomInstructions) {
  Rng rng(101);
  for (int i = 0; i < 5000; ++i) {
    const isa::Instr in = random_instr(rng);
    EXPECT_EQ(isa::decode(isa::encode(in)), in) << isa::disassemble(in);
  }
}

TEST(Property, DisassemblerAssemblerRoundTrip) {
  Rng rng(202);
  for (int round = 0; round < 50; ++round) {
    std::string source;
    std::vector<isa::Instr> instrs;
    for (int i = 0; i < 30; ++i) {
      isa::Instr in = random_instr(rng);
      // Branch/jump offsets must stay inside the program for the assembler.
      if (isa::op_info(in.op).is_branch || in.op == isa::Opcode::kJal) {
        in.imm = static_cast<i32>(rng.below(5)) - 2;
      }
      if (in.op == isa::Opcode::kHalt) continue;  // keep the program linear
      instrs.push_back(in);
      source += isa::disassemble(in) + "\n";
    }
    source += "halt\n";
    const isa::AsmResult result = isa::assemble("prop", source);
    ASSERT_TRUE(result.ok) << result.error << "\n" << source;
    for (size_t i = 0; i < instrs.size(); ++i) {
      EXPECT_EQ(isa::encode(result.program.at(static_cast<u32>(i))),
                isa::encode(instrs[i]));
    }
  }
}

// --- Layout bijectivity / partition, randomized geometry ---

TEST(Property, LayoutBijectionAndSlicePartition) {
  Rng rng(303);
  for (int round = 0; round < 20; ++round) {
    const u32 row_bytes = 256u << rng.below(4);  // 256..2048
    const u32 fields = 1 + static_cast<u32>(rng.below(9));
    const u64 records = 100 + rng.below(3000);
    workloads::InterleavedLayout layout(row_bytes, fields, records);

    std::set<Addr> seen;
    for (u64 r = 0; r < records; ++r) {
      for (u32 f = 0; f < fields; ++f) {
        ASSERT_TRUE(seen.insert(layout.address(f, r)).second);
      }
    }

    // Thread slices partition every group exactly once.
    const u32 cores = 4u << rng.below(2);  // 4 or 8
    const u32 contexts = layout.group_records() / cores >= 4 ? 4 : 1;
    if ((layout.group_records() / cores) % contexts != 0) continue;
    std::vector<int> owners(layout.group_records(), 0);
    for (u32 c = 0; c < cores; ++c) {
      for (u32 x = 0; x < contexts; ++x) {
        const workloads::ThreadSlice s = layout.slice(
            workloads::ThreadMapping::kSlab, cores, contexts, c, x);
        for (u32 j = 0; j < s.rpt; ++j) {
          ++owners[s.idx_base + j * s.idx_stride];
        }
      }
    }
    for (int owner : owners) EXPECT_EQ(owner, 1);
  }
}

// --- Controller conservation under random traffic ---

TEST(Property, ControllerCompletesEveryAcceptedRequestOnce) {
  Rng rng(404);
  DramConfig cfg = MachineConfig::paper_defaults().dram;
  StatSet stats;
  mem::ChannelDemux ctrl(cfg, "dram", &stats);
  Picos now = 0;
  u64 accepted_bytes = 0, completed = 0, completed_bytes = 0, accepted = 0;
  std::map<int, int> completions;  // request id -> count
  std::vector<u32> bytes_of;       // request id -> size
  test::WakeProbe probe;           // wakes waiter `id` per completion
  int next_id = 0;

  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.3)) {
      mem::MemRequest req;
      const u32 sizes[] = {64, 128, 2048};
      req.bytes = sizes[rng.below(3)];
      const u64 row = rng.below(512);
      const u32 max_col = cfg.row_bytes - req.bytes;
      req.addr = row * cfg.row_bytes +
                 (max_col ? (rng.below(max_col / 64) * 64) : 0);
      req.is_write = rng.chance(0.2);
      const int id = next_id++;
      const u32 bytes = req.bytes;
      bytes_of.push_back(bytes);
      req.done = probe.handle(static_cast<u32>(id));
      if (ctrl.try_push(std::move(req), now)) {
        ++accepted;
        accepted_bytes += bytes;
      }
    }
    ctrl.tick(now);
    now += cfg.period_ps();
  }
  while (!ctrl.idle()) {
    ctrl.tick(now);
    now += cfg.period_ps();
  }
  for (const auto& [id, at] : probe.woken) {
    ++completions[static_cast<int>(id)];
    ++completed;
    completed_bytes += bytes_of[id];
  }
  EXPECT_EQ(completed, accepted);
  EXPECT_EQ(completed_bytes, accepted_bytes);
  EXPECT_EQ(stats.get("dram.bytes"), accepted_bytes);
  for (const auto& [id, count] : completions) {
    EXPECT_EQ(count, 1) << "request " << id << " completed " << count
                        << " times";
  }
}

// --- SIMT stack vs independent per-lane execution ---

/// Random branchy program: nested filtered regions over CSR TID bits, all
/// lanes eventually halting.
isa::Program random_branchy_program(Rng& rng) {
  std::string source = "csrr r1, TID\n";
  const int regions = 2 + static_cast<int>(rng.below(3));
  for (int k = 0; k < regions; ++k) {
    const u32 bit = 1u << rng.below(3);
    source += "andi r2, r1, " + std::to_string(bit) + "\n";
    source += "beq  r2, r0, else" + std::to_string(k) + "\n";
    const int then_len = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < then_len; ++i) source += "addi r3, r3, 1\n";
    source += "j join" + std::to_string(k) + "\n";
    source += "else" + std::to_string(k) + ":\n";
    const int else_len = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < else_len; ++i) source += "addi r4, r4, 1\n";
    source += "join" + std::to_string(k) + ":\n";
  }
  source += "halt\n";
  return isa::must_assemble("branchy", source);
}

TEST(Property, SimtStackMatchesPerLaneExecution) {
  Rng rng(505);
  for (int round = 0; round < 30; ++round) {
    const isa::Program program = random_branchy_program(rng);
    const isa::ReconvergenceTable reconv =
        isa::ReconvergenceTable::build(program);
    constexpr u32 kWidth = 8;
    mem::DramImage dram(64);
    mem::LocalStore local(64);

    // Reference: run each lane independently, recording its pc trace.
    std::vector<std::vector<u32>> want(kWidth);
    std::vector<core::Context> ref_lanes(kWidth);
    for (u32 l = 0; l < kWidth; ++l) {
      ref_lanes[l].csr.set(isa::Csr::kTid, l * 3 + round);
      while (ref_lanes[l].state != core::Context::State::kHalted) {
        want[l].push_back(ref_lanes[l].pc);
        core::step(ref_lanes[l], program, local, dram);
      }
    }

    // SIMT execution with the stack.
    gpgpu::SimtStack stack(kWidth);
    std::vector<core::Context> lanes(kWidth);
    std::vector<std::vector<u32>> got(kWidth);
    for (u32 l = 0; l < kWidth; ++l) {
      lanes[l].csr.set(isa::Csr::kTid, l * 3 + round);
    }
    u32 guard = 0;
    while (!stack.all_halted()) {
      ASSERT_LT(++guard, 10000u);
      const u32 pc = stack.pc();
      const gpgpu::LaneMask mask = stack.active_mask();
      const isa::Instr& in = program.at(pc);
      gpgpu::LaneMask taken = 0;
      for (u32 l = 0; l < kWidth; ++l) {
        if (!(mask & (gpgpu::LaneMask{1} << l))) continue;
        lanes[l].pc = pc;
        got[l].push_back(pc);
        if (core::step(lanes[l], program, local, dram).branch_taken) {
          taken |= gpgpu::LaneMask{1} << l;
        }
      }
      const core::StepKind kind = core::classify(in);
      if (kind == core::StepKind::kBranch) {
        stack.branch(taken, static_cast<u32>(static_cast<i32>(pc) + in.imm),
                     pc + 1, reconv.at(pc));
      } else if (kind == core::StepKind::kHalt) {
        stack.halt_lanes(mask);
      } else if (kind == core::StepKind::kJump) {
        stack.advance(lanes[static_cast<u32>(
                                std::countr_zero(mask))].pc);
      } else {
        stack.advance(pc + 1);
      }
    }
    for (u32 l = 0; l < kWidth; ++l) {
      EXPECT_EQ(got[l], want[l]) << "lane " << l << " diverged from its "
                                 << "independent execution (round " << round
                                 << ")";
    }
  }
}

// --- Address-mapping bijection across every field permutation ---

TEST(Property, EveryMappingPermutationIsABijection) {
  // row leads by grammar; the remaining four fields may appear in any
  // order. All 24 permutations must decode injectively and round-trip
  // encode(decode(a)) == a over a sampled address space.
  DramConfig cfg = MachineConfig::paper_defaults().dram;
  cfg.channels = 2;
  cfg.ranks = 2;
  std::vector<std::string> tail = {"col", "bank", "rank", "channel"};
  std::sort(tail.begin(), tail.end());
  Rng rng(7);
  do {
    std::string mapping = "row";
    for (const std::string& field : tail) mapping += ":" + field;
    cfg.mapping = mapping;
    mem::AddressMap map(cfg);
    std::set<std::tuple<u32, u32, u32, u64, u32>> seen;
    for (int i = 0; i < 2000; ++i) {
      // Dense low addresses + sparse high ones exercise every field.
      const Addr addr = i < 1000 ? static_cast<Addr>(i) * 131
                                 : rng.next_u64() % (u64{1} << 40);
      const mem::DramCoord c = map.decode(addr);
      EXPECT_EQ(map.encode(c), addr) << mapping;
      EXPECT_LT(c.channel, cfg.channels) << mapping;
      EXPECT_LT(c.rank, cfg.ranks) << mapping;
      EXPECT_LT(c.bank, cfg.banks) << mapping;
      EXPECT_LT(c.column, cfg.row_bytes) << mapping;
      seen.insert({c.channel, c.rank, c.bank, c.row, c.column});
    }
    // Injectivity: distinct addresses decode to distinct coordinates
    // (duplicates in the sample itself are possible only for equal addrs).
    std::set<Addr> addrs;
    for (int i = 0; i < 1000; ++i) addrs.insert(static_cast<Addr>(i) * 131);
    EXPECT_GE(seen.size(), addrs.size()) << mapping;
  } while (std::next_permutation(tail.begin(), tail.end()));
}

TEST(Property, StripeCoordInverseMatchesStripeIndex) {
  DramConfig cfg = MachineConfig::paper_defaults().dram;
  cfg.channels = 2;
  cfg.ranks = 2;
  cfg.mapping = "row:col:rank:bank:channel";  // everything sub-row
  mem::AddressMap map(cfg);
  EXPECT_EQ(map.stripes(), cfg.channels * cfg.ranks * cfg.banks);
  const mem::DramCoord base = map.decode(0);
  std::set<u32> indices;
  for (u32 s = 0; s < map.stripes(); ++s) {
    const mem::DramCoord c = map.stripe_coord(base, s);
    EXPECT_EQ(map.stripe_index(c), s);
    indices.insert(s);
  }
  EXPECT_EQ(indices.size(), map.stripes());
}

}  // namespace
}  // namespace mlp
