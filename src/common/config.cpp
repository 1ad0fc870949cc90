#include "common/config.hpp"

#include <vector>

#include "common/error.hpp"

namespace mlp {

// Configuration consistency is data-dependent (sweeps construct arbitrary
// grid points), so violations throw a recoverable SimError("config") rather
// than aborting the process: one bad point must not kill a 1000-job matrix.
#define MLP_CFG_CHECK(cond, msg) MLP_SIM_CHECK(cond, "config", msg)

namespace {

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> terms;
  std::string term;
  for (const char c : spec) {
    if (c == ':') {
      terms.push_back(term);
      term.clear();
    } else {
      term += c;
    }
  }
  terms.push_back(term);
  return terms;
}

/// Parse the "key=N" tail of a spec term; throws SimError("config") unless
/// the term is exactly `key=` followed by a decimal u32.
u32 spec_value(const std::string& what, const std::string& term,
               const std::string& key) {
  const std::string prefix = key + "=";
  MLP_SIM_CHECK(term.size() > prefix.size() &&
                    term.compare(0, prefix.size(), prefix) == 0,
                "config", (what + " spec has a malformed term: " + term));
  u64 value = 0;
  for (size_t i = prefix.size(); i < term.size(); ++i) {
    const char c = term[i];
    MLP_SIM_CHECK(c >= '0' && c <= '9', "config",
                  (what + " spec value is not a number: " + term));
    value = value * 10 + static_cast<u64>(c - '0');
    MLP_SIM_CHECK(value <= 0xffffffffull, "config",
                  (what + " spec value does not fit 32 bits: " + term));
  }
  return static_cast<u32>(value);
}

}  // namespace

PagePolicy parse_page_policy(const std::string& spec) {
  const std::vector<std::string> terms = split_spec(spec);
  PagePolicy policy;
  if (terms[0] == "closed") {
    MLP_SIM_CHECK(terms.size() == 1, "config",
                  "page-policy 'closed' takes no parameters: " + spec);
    policy.max_row_hits = 1;
    return policy;
  }
  MLP_SIM_CHECK(terms[0] == "open", "config",
                "page-policy must start with open|closed: " + spec);
  bool saw_idle = false, saw_hits = false;
  for (size_t i = 1; i < terms.size(); ++i) {
    if (terms[i].compare(0, 5, "idle=") == 0) {
      MLP_SIM_CHECK(!saw_idle, "config",
                    "page-policy repeats idle=: " + spec);
      saw_idle = true;
      policy.max_row_idle = spec_value("page-policy", terms[i], "idle");
    } else if (terms[i].compare(0, 5, "hits=") == 0) {
      MLP_SIM_CHECK(!saw_hits, "config",
                    "page-policy repeats hits=: " + spec);
      saw_hits = true;
      policy.max_row_hits = spec_value("page-policy", terms[i], "hits");
    } else {
      throw SimError("config",
                     "page-policy term must be idle=N or hits=M: " + spec);
    }
  }
  return policy;
}

RefreshSpec parse_refresh(const std::string& spec) {
  const std::vector<std::string> terms = split_spec(spec);
  RefreshSpec refresh;
  if (terms[0] == "off") {
    MLP_SIM_CHECK(terms.size() == 1, "config",
                  "refresh 'off' takes no parameters: " + spec);
    return refresh;
  }
  MLP_SIM_CHECK(terms[0] == "on", "config",
                "refresh must start with on|off: " + spec);
  refresh.enabled = true;
  bool saw_trefi = false, saw_trfc = false, saw_postpone = false;
  for (size_t i = 1; i < terms.size(); ++i) {
    if (terms[i].compare(0, 6, "trefi=") == 0) {
      MLP_SIM_CHECK(!saw_trefi, "config", "refresh repeats trefi=: " + spec);
      saw_trefi = true;
      refresh.t_refi = spec_value("refresh", terms[i], "trefi");
    } else if (terms[i].compare(0, 5, "trfc=") == 0) {
      MLP_SIM_CHECK(!saw_trfc, "config", "refresh repeats trfc=: " + spec);
      saw_trfc = true;
      refresh.t_rfc = spec_value("refresh", terms[i], "trfc");
    } else if (terms[i].compare(0, 9, "postpone=") == 0) {
      MLP_SIM_CHECK(!saw_postpone, "config",
                    "refresh repeats postpone=: " + spec);
      saw_postpone = true;
      refresh.max_postponed = spec_value("refresh", terms[i], "postpone");
    } else {
      throw SimError(
          "config",
          "refresh term must be trefi=N, trfc=N or postpone=K: " + spec);
    }
  }
  MLP_SIM_CHECK(refresh.t_rfc > 0, "config",
                "refresh tRFC must be nonzero: " + spec);
  MLP_SIM_CHECK(refresh.t_refi > refresh.t_rfc, "config",
                "refresh tREFI must exceed tRFC: " + spec);
  MLP_SIM_CHECK(refresh.max_postponed >= 1, "config",
                "refresh postpone window must be >= 1: " + spec);
  return refresh;
}

void MachineConfig::validate() const {
  MLP_CFG_CHECK(is_pow2(dram.row_bytes), "row size must be a power of two");
  MLP_CFG_CHECK(dram.banks > 0 && is_pow2(dram.banks), "bank count must be a power of two");
  MLP_CFG_CHECK(dram.ranks > 0 && is_pow2(dram.ranks), "rank count must be a power of two");
  MLP_CFG_CHECK(dram.channels > 0 && is_pow2(dram.channels),
                "channel count must be a power of two");
  // The mapping string itself is validated by mem::AddressMap (same typed
  // SimError("config") policy, thrown when the controller is built); the
  // page-policy and refresh specs are self-contained and parse here.
  (void)parse_page_policy(dram.page_policy);
  (void)parse_refresh(dram.refresh);
  MLP_CFG_CHECK(dram.channel_bits % 8 == 0 && dram.channel_bits > 0, "channel width in whole bytes");
  MLP_CFG_CHECK(dram.queue_depth > 0, "controller queue must be nonempty");
  MLP_CFG_CHECK(dram.bus_efficiency > 0.0 && dram.bus_efficiency <= 1.0,
                "bus efficiency must be in (0, 1]");
  MLP_CFG_CHECK(dram.fault.bit_flip_rate >= 0.0 && dram.fault.bit_flip_rate < 1.0,
                "bit-flip rate must be in [0, 1)");
  MLP_CFG_CHECK(dram.fault.delay_rate >= 0.0 && dram.fault.delay_rate <= 1.0,
                "delay rate must be in [0, 1]");
  MLP_CFG_CHECK(dram.fault.drop_rate >= 0.0 && dram.fault.drop_rate < 1.0,
                "drop rate must be in [0, 1)");
  MLP_CFG_CHECK(!dram.fault.enabled() || dram.fault.max_retries > 0,
                "fault injection needs a nonzero retry budget");
  MLP_CFG_CHECK(core.cores > 0 && core.contexts > 0, "need at least one thread");
  MLP_CFG_CHECK(is_pow2(core.cores), "core count must be a power of two for slab mapping");
  MLP_CFG_CHECK(is_pow2(core.contexts), "context count must be a power of two");
  MLP_CFG_CHECK(millipede.pf_entries >= 2, "prefetch buffer needs >= 2 entries");
  MLP_CFG_CHECK(millipede.prime_rows <= millipede.pf_entries,
                "prime depth must fit in the prefetch buffer");
  MLP_CFG_CHECK(millipede.rate_step > 0 && millipede.rate_step < 0.5, "rate step out of range");
  MLP_CFG_CHECK(gpgpu.shared_banks > 0, "shared memory needs banks");
  MLP_CFG_CHECK(ssmc.assoc > 0 && ssmc.l1d_bytes % (ssmc.line_bytes * ssmc.assoc) == 0,
                "SSMC L1 size must be sets*ways*line");
  // A row must split evenly into per-corelet slabs of whole words.
  MLP_CFG_CHECK(dram.row_bytes % core.cores == 0, "row must split into corelet slabs");
  MLP_CFG_CHECK((dram.row_bytes / core.cores) % 4 == 0, "slab must hold whole words");
}

}  // namespace mlp
