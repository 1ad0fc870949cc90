#pragma once
// A loaded kernel binary plus its symbol table and static properties.

#include <map>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace mlp::isa {

/// Static instruction-mix of a program, used for Table II-style reporting
/// and for sanity checks against the paper's per-benchmark characteristics.
struct StaticCounts {
  u32 total = 0;
  u32 branches = 0;
  u32 jumps = 0;
  u32 global_loads = 0;
  u32 global_stores = 0;
  u32 local_accesses = 0;
  u32 float_ops = 0;
};

class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instr> instrs,
          std::map<std::string, u32> labels);

  const std::string& name() const { return name_; }
  const std::vector<Instr>& instrs() const { return instrs_; }
  const Instr& at(u32 pc) const {
    MLP_CHECK(pc < instrs_.size(), "pc out of program");
    return instrs_[pc];
  }
  u32 size() const { return static_cast<u32>(instrs_.size()); }
  u32 size_bytes() const { return size() * 4; }

  /// Address of a label; aborts if undefined (tests use known labels).
  u32 label(const std::string& name) const;
  const std::map<std::string, u32>& labels() const { return labels_; }

  StaticCounts static_counts() const;

  bool empty() const { return instrs_.empty(); }
  bool contains(Opcode op) const {
    for (const Instr& in : instrs_) {
      if (in.op == op) return true;
    }
    return false;
  }

 private:
  std::string name_;
  std::vector<Instr> instrs_;
  std::map<std::string, u32> labels_;
};

}  // namespace mlp::isa
