// Tests for ISA metadata, binary encoding round-trips and program static
// analysis.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/decode_cache.hpp"
#include "core/functional.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"
#include "isa/program.hpp"

namespace mlp::isa {
namespace {

TEST(OpInfo, EveryOpcodeHasConsistentName) {
  for (u32 i = 0; i < kNumOpcodes; ++i) {
    const Opcode op = static_cast<Opcode>(i);
    const OpInfo& info = op_info(op);
    ASSERT_NE(info.name, nullptr);
    Opcode back;
    ASSERT_TRUE(opcode_from_name(info.name, &back)) << info.name;
    EXPECT_EQ(back, op) << "name table out of order at " << info.name;
  }
}

TEST(OpInfo, ClassificationSpotChecks) {
  EXPECT_TRUE(op_info(Opcode::kBeq).is_branch);
  EXPECT_FALSE(op_info(Opcode::kJal).is_branch);
  EXPECT_TRUE(op_info(Opcode::kJal).is_jump);
  EXPECT_TRUE(op_info(Opcode::kLw).is_global_mem);
  EXPECT_TRUE(op_info(Opcode::kLw).is_load);
  EXPECT_TRUE(op_info(Opcode::kAmoaddl).is_local_mem);
  EXPECT_TRUE(op_info(Opcode::kAmoaddl).is_load);
  EXPECT_TRUE(op_info(Opcode::kAmoaddl).is_store);
  EXPECT_TRUE(op_info(Opcode::kFamoaddl).is_float);
  EXPECT_TRUE(op_info(Opcode::kFadd).is_float);
  EXPECT_FALSE(op_info(Opcode::kAdd).is_float);
}

TEST(Csr, NamesRoundTrip) {
  for (u32 i = 0; i < kNumCsrs; ++i) {
    if (i == 15) continue;  // hole in the numbering
    const Csr csr = static_cast<Csr>(i);
    Csr back;
    ASSERT_TRUE(csr_from_name(csr_name(csr), &back));
    EXPECT_EQ(back, csr);
  }
}

// --- Encoding round trips, one test per format family. ---

class EncodingRoundTrip : public ::testing::TestWithParam<Instr> {};

TEST_P(EncodingRoundTrip, DecodeInvertsEncode) {
  const Instr in = GetParam();
  EXPECT_EQ(decode(encode(in)), in) << disassemble(in);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, EncodingRoundTrip,
    ::testing::Values(
        Instr{Opcode::kAdd, 1, 2, 3, 0},
        Instr{Opcode::kSub, 31, 30, 29, 0},
        Instr{Opcode::kFsqrt, 5, 6, 0, 0},
        Instr{Opcode::kAddi, 7, 8, 0, -8192},
        Instr{Opcode::kAddi, 7, 8, 0, 8191},
        Instr{Opcode::kLui, 9, 0, 0, (1 << 19) - 1},
        Instr{Opcode::kLw, 10, 11, 0, -4},
        Instr{Opcode::kSw, 0, 12, 13, 2044},
        Instr{Opcode::kLwl, 14, 15, 0, 1020},
        Instr{Opcode::kSwl, 0, 16, 17, -256},
        Instr{Opcode::kAmoaddl, 18, 19, 20, 255},
        Instr{Opcode::kFamoaddl, 21, 22, 23, -256},
        Instr{Opcode::kBeq, 0, 24, 25, -100},
        Instr{Opcode::kBge, 0, 1, 2, 8191},
        Instr{Opcode::kJal, 26, 0, 0, -262144},
        Instr{Opcode::kJalr, 27, 28, 0, 16},
        Instr{Opcode::kCsrr, 1, 0, 0, static_cast<i32>(Csr::kArg7)},
        Instr{Opcode::kHalt, 0, 0, 0, 0}));

TEST(Encoding, ExhaustiveImmediateSweepBranch) {
  for (i32 imm = -(1 << 13); imm < (1 << 13); imm += 97) {
    const Instr in{Opcode::kBne, 0, 3, 4, imm};
    EXPECT_EQ(decode(encode(in)), in);
  }
}

TEST(Encoding, ExhaustiveRegisterSweep) {
  for (u8 r = 0; r < 32; ++r) {
    const Instr in{Opcode::kXor, r, static_cast<u8>(31 - r), r, 0};
    EXPECT_EQ(decode(encode(in)), in);
  }
}

TEST(Encoding, ImmFitsBoundaries) {
  EXPECT_TRUE(imm_fits(Opcode::kAddi, 8191));
  EXPECT_FALSE(imm_fits(Opcode::kAddi, 8192));
  EXPECT_TRUE(imm_fits(Opcode::kAddi, -8192));
  EXPECT_FALSE(imm_fits(Opcode::kAddi, -8193));
  EXPECT_TRUE(imm_fits(Opcode::kAmoaddl, 255));
  EXPECT_FALSE(imm_fits(Opcode::kAmoaddl, 256));
  EXPECT_TRUE(imm_fits(Opcode::kJal, -262144));
  EXPECT_FALSE(imm_fits(Opcode::kJal, 262144));
}

TEST(Encoding, ProgramVectorRoundTrip) {
  std::vector<Instr> prog = {
      {Opcode::kCsrr, 1, 0, 0, 0},
      {Opcode::kAddi, 2, 1, 0, 4},
      {Opcode::kBne, 0, 1, 2, -2},
      {Opcode::kHalt, 0, 0, 0, 0},
  };
  EXPECT_EQ(decode_program(encode_program(prog)), prog);
}

TEST(Program, StaticCounts) {
  std::vector<Instr> instrs = {
      {Opcode::kCsrr, 1, 0, 0, 0},
      {Opcode::kLw, 2, 1, 0, 0},
      {Opcode::kAmoaddl, 3, 4, 2, 0},
      {Opcode::kFadd, 5, 5, 2, 0},
      {Opcode::kBne, 0, 1, 2, -2},
      {Opcode::kJal, 0, 0, 0, -5},
      {Opcode::kHalt, 0, 0, 0, 0},
  };
  Program p("t", instrs, {{"top", 0}});
  const StaticCounts counts = p.static_counts();
  EXPECT_EQ(counts.total, 7u);
  EXPECT_EQ(counts.branches, 1u);
  EXPECT_EQ(counts.jumps, 1u);
  EXPECT_EQ(counts.global_loads, 1u);
  EXPECT_EQ(counts.global_stores, 0u);
  EXPECT_EQ(counts.local_accesses, 1u);
  EXPECT_EQ(counts.float_ops, 1u);
  EXPECT_EQ(p.label("top"), 0u);
  EXPECT_EQ(p.size_bytes(), 28u);
}

// --- Seeded decoder fuzz: random valid programs through the assembler,
// --- the binary encoding, and the decoded-block cache; the predecoded
// --- stream must match the per-edge decode instruction for instruction.

/// Random valid assembly source of `n` instructions plus a final halt.
/// Every pc gets its own label so branch/jal targets are always in range.
std::string random_program_source(std::mt19937& rng, u32 n) {
  auto pick = [&](u32 lo, u32 hi) {  // inclusive
    return std::uniform_int_distribution<u32>(lo, hi)(rng);
  };
  auto reg = [&] { return "r" + std::to_string(pick(0, 31)); };
  auto simm = [&](i32 lo, i32 hi) {
    return std::to_string(static_cast<i32>(pick(0, static_cast<u32>(hi - lo)))
                          + lo);
  };
  auto target = [&] { return "L" + std::to_string(pick(0, n)); };
  static const Opcode kRegOps[] = {
      Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kMulh, Opcode::kDiv,
      Opcode::kRem, Opcode::kAnd, Opcode::kOr, Opcode::kXor, Opcode::kSll,
      Opcode::kSrl, Opcode::kSra, Opcode::kSlt, Opcode::kSltu, Opcode::kFadd,
      Opcode::kFsub, Opcode::kFmul, Opcode::kFdiv, Opcode::kFmin,
      Opcode::kFmax, Opcode::kFlt, Opcode::kFle, Opcode::kFeq};
  static const Opcode kUnaryOps[] = {Opcode::kFsqrt, Opcode::kFabs,
                                     Opcode::kFneg, Opcode::kFcvtWs,
                                     Opcode::kFcvtSw};
  static const Opcode kImmOps[] = {Opcode::kAddi, Opcode::kAndi, Opcode::kOri,
                                   Opcode::kXori, Opcode::kSlli, Opcode::kSrli,
                                   Opcode::kSrai, Opcode::kSlti};
  static const Opcode kBranchOps[] = {Opcode::kBeq, Opcode::kBne, Opcode::kBlt,
                                      Opcode::kBge, Opcode::kBltu,
                                      Opcode::kBgeu};
  std::ostringstream os;
  for (u32 pc = 0; pc < n; ++pc) {
    os << "L" << pc << ":\n  ";
    switch (pick(0, 11)) {
      case 0:
      case 1:
      case 2:
        os << op_info(kRegOps[pick(0, std::size(kRegOps) - 1)]).name << " "
           << reg() << ", " << reg() << ", " << reg();
        break;
      case 3:
        os << op_info(kUnaryOps[pick(0, std::size(kUnaryOps) - 1)]).name
           << " " << reg() << ", " << reg();
        break;
      case 4:
        os << op_info(kImmOps[pick(0, std::size(kImmOps) - 1)]).name << " "
           << reg() << ", " << reg() << ", " << simm(-8192, 8191);
        break;
      case 5:
        os << "lui " << reg() << ", " << pick(0, (1u << 19) - 1);
        break;
      case 6:
        os << (pick(0, 1) ? "lw " : "lw.l ") << reg() << ", "
           << simm(-8192, 8191) << "(" << reg() << ")";
        break;
      case 7:
        os << (pick(0, 1) ? "sw " : "sw.l ") << reg() << ", "
           << simm(-8192, 8191) << "(" << reg() << ")";
        break;
      case 8:
        os << (pick(0, 1) ? "amoadd.l " : "famoadd.l ") << reg() << ", "
           << reg() << ", " << simm(-256, 255) << "(" << reg() << ")";
        break;
      case 9:
        os << op_info(kBranchOps[pick(0, std::size(kBranchOps) - 1)]).name
           << " " << reg() << ", " << reg() << ", " << target();
        break;
      case 10:
        if (pick(0, 1)) {
          os << "jal " << reg() << ", " << target();
        } else {
          os << "jalr " << reg() << ", " << reg() << ", "
             << simm(-8192, 8191);
        }
        break;
      case 11: {
        u32 csr = pick(0, kNumCsrs - 1);
        if (csr == 15) csr = 0;  // hole in the numbering
        os << (pick(0, 1) ? std::string("bar")
                          : "csrr " + reg() + ", " +
                                csr_name(static_cast<Csr>(csr)));
        break;
      }
    }
    os << "\n";
  }
  os << "L" << n << ":\n  halt\n";
  return os.str();
}

TEST(DecoderFuzz, RandomProgramsPredecodeIdentically) {
  std::mt19937 rng(20260809);  // fixed seed: failures must reproduce
  for (u32 iter = 0; iter < 25; ++iter) {
    const std::string src = random_program_source(rng, 40);
    const Program p = must_assemble("fuzz", src);

    // Binary encoding round trip of the whole program.
    ASSERT_EQ(decode_program(encode_program(p.instrs())), p.instrs()) << src;

    // The decoded-block cache must agree with the per-edge decode at every
    // pc: same instruction, classification, handler, and branch target.
    // Without per-opcode handlers every slot runs the reference step().
    core::DecodedBlockCache dcache(p);
    core::DecodedBlockCache reference(p, /*per_opcode_handlers=*/false);
    for (u32 pc = 0; pc < p.size(); ++pc) {
      const core::DecodedInstr& de = dcache.entry(pc);
      const Instr& in = p.at(pc);
      ASSERT_EQ(de.instr, in) << "pc " << pc << ": " << disassemble(in);
      EXPECT_EQ(de.kind, core::classify(in)) << disassemble(in);
      EXPECT_EQ(de.fn, core::step_fn_for(in.op)) << disassemble(in);
      EXPECT_EQ(reference.entry(pc).fn, &core::step_reference);
      EXPECT_EQ(de.is_store, op_info(in.op).is_store) << disassemble(in);
      EXPECT_EQ(de.block, dcache.cfg().block_of(pc));
      EXPECT_EQ(de.taken_pc,
                static_cast<u32>(static_cast<i32>(pc) + in.imm));
    }
  }
}

TEST(DecoderFuzz, InvalidOpcodeByteThrowsTypedError) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<u32> low24(0, (1u << 24) - 1);
  for (u32 opbyte = kNumOpcodes; opbyte < 256; ++opbyte) {
    const u32 word = (opbyte << 24) | low24(rng);
    try {
      decode(word);
      FAIL() << "opcode byte " << opbyte << " decoded without error";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "decode") << e.what();
    }
  }
}

TEST(DecoderFuzz, CsrIndexOutOfRangeThrowsTypedError) {
  const u32 opbyte = static_cast<u32>(Opcode::kCsrr) << 24;
  for (u32 csr : {kNumCsrs, kNumCsrs + 1, (1u << 14) - 1}) {
    const u32 word = opbyte | (3u << 19) | csr;
    try {
      decode(word);
      FAIL() << "csr index " << csr << " decoded without error";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "decode") << e.what();
    }
  }
  // The last in-range index still decodes.
  EXPECT_EQ(decode(opbyte | (3u << 19) | (kNumCsrs - 1)).op, Opcode::kCsrr);
}

TEST(DecoderFuzz, ArbitraryWordsNeverCrash) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<u32> any(0, 0xffffffffu);
  u32 decoded = 0, rejected = 0;
  for (u32 i = 0; i < 100000; ++i) {
    const u32 word = any(rng);
    try {
      const Instr in = decode(word);
      EXPECT_LT(static_cast<u32>(in.op), kNumOpcodes);
      ++decoded;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), "decode") << e.what();
      ++rejected;
    }
    // Anything else (MLP_CHECK abort, other exception types) fails loudly.
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Disassembler, FormatsEveryFormat) {
  EXPECT_EQ(disassemble(Instr{Opcode::kAdd, 1, 2, 3, 0}), "add r1, r2, r3");
  EXPECT_EQ(disassemble(Instr{Opcode::kLw, 4, 5, 0, 8}), "lw r4, 8(r5)");
  EXPECT_EQ(disassemble(Instr{Opcode::kSwl, 0, 6, 7, -4}), "sw.l r7, -4(r6)");
  EXPECT_EQ(disassemble(Instr{Opcode::kAmoaddl, 1, 2, 3, 0}),
            "amoadd.l r1, r3, 0(r2)");
  EXPECT_EQ(disassemble(Instr{Opcode::kCsrr, 1, 0, 0,
                              static_cast<i32>(Csr::kTid)}),
            "csrr r1, TID");
  EXPECT_EQ(disassemble(Instr{Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

}  // namespace
}  // namespace mlp::isa
