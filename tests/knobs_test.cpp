// Seeded fuzz of every knob parser: the job-object decoder, the flag text
// form, and the mapping, page-policy and refresh grammars behind them.
// Valid jobs drawn from the knob table's ranges must round-trip through
// job_json -> job_from_json and through the flags; mutated documents must
// either parse or throw SimError — never abort, never another exception.
// The seed and iteration counts are fixed, so a failure reproduces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/protocol.hpp"
#include "sim/knobs.hpp"
#include "tools/sweep_grid.hpp"

namespace mlp::serve {
namespace {

constexpr u64 kSeed = 20240601;
constexpr int kValidJobs = 400;
constexpr int kMutations = 3000;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& items) {
  return items[rng.below(items.size())];
}

/// A spec string from the knob's grammar vocabulary: some valid, most not.
std::string random_spec(Rng& rng, const std::string& knob) {
  static const std::vector<std::string> kMapping = {
      "row", "col", "bank", "rank", "channel", "tower", ""};
  static const std::vector<std::string> kPolicy = {
      "open", "closed", "idle=64", "hits=4", "idle=", "hits=x", "ajar"};
  static const std::vector<std::string> kRefresh = {
      "on", "off", "trefi=1000", "trfc=100", "postpone=2", "trefi=0", "x"};
  const std::vector<std::string>& words =
      knob == "mapping"       ? kMapping
      : knob == "page_policy" ? kPolicy
                              : kRefresh;
  std::string spec = pick(rng, words);
  for (u64 n = rng.below(5); n > 0; --n) spec += ":" + pick(rng, words);
  if (rng.chance(0.1)) {
    spec.insert(rng.below(spec.size() + 1), 1,
                static_cast<char>(rng.below(256)));
  }
  return spec;
}

/// A value inside the knob's accepted range.
sim::KnobValue random_valid(Rng& rng, const sim::Knob& knob) {
  const sim::KnobValue def = sim::knob_default(knob);
  if (std::holds_alternative<bool>(def)) return rng.chance(0.5);
  if (std::holds_alternative<u64>(def)) {
    for (;;) {
      const sim::KnobValue value{rng.next_u64() >> rng.below(64)};
      if (sim::knob_parse(knob, sim::knob_text(value))) return value;
    }
  }
  if (std::holds_alternative<double>(def)) {
    for (;;) {
      const double x = rng.chance(0.1) ? static_cast<double>(rng.below(2))
                                       : rng.uniform() * 2.0;
      if (sim::knob_parse(knob, sim::knob_text(x))) return x;
    }
  }
  if (knob.grammar == nullptr) return "dir-" + std::to_string(rng.below(1000));
  for (;;) {
    const std::string spec = random_spec(rng, knob.name);
    if (sim::knob_parse(knob, spec)) return spec;
  }
}

/// True when the document parsed, false on a typed rejection; any other
/// exception fails the test.
bool parses(const std::string& text) {
  try {
    (void)job_from_json(trace::json_parse(text));
    return true;
  } catch (const SimError&) {
    return false;
  }
}

/// The knob flags that reproduce `options` from the defaults.
std::vector<std::string> knob_flags(const sim::SuiteOptions& options) {
  std::vector<std::string> words = {"knobs_test"};
  for (const sim::Knob& knob : sim::knobs()) {
    const sim::KnobValue value = sim::knob_get(knob, options);
    if (value == sim::knob_default(knob)) continue;
    words.push_back(knob.flag);
    if (!sim::knob_is_switch(knob)) words.push_back(sim::knob_text(value));
  }
  return words;
}

sim::SuiteOptions parse_flags(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  tools::ArgCursor args(static_cast<int>(argv.size()), argv.data());
  sim::SuiteOptions options;
  while (args.next()) {
    if (!tools::consume_knob(args, options)) {
      ADD_FAILURE() << "flag not consumed: " << args.flag();
      break;
    }
  }
  return options;
}

// The real-valued ranges the tools' flag parsers enforced before the table.
TEST(KnobParse, PositiveAndProbabilityRanges) {
  const sim::Knob& bus = *sim::knob_for_flag("--bus-efficiency");
  EXPECT_EQ(sim::knob_parse(bus, "0.25"), sim::KnobValue{0.25});
  EXPECT_EQ(sim::knob_parse(bus, "1e-3"), sim::KnobValue{1e-3});
  for (const char* bad : {"0", "-1.5", "fast", "", "inf", "nan"}) {
    EXPECT_FALSE(sim::knob_parse(bus, bad)) << bad;
  }
  EXPECT_EQ(sim::knob_expects(bus), "a positive number");
  const sim::Knob& rate = *sim::knob_for_flag("--fault-rate");
  EXPECT_EQ(sim::knob_parse(rate, "0"), sim::KnobValue{0.0});
  EXPECT_EQ(sim::knob_parse(rate, "1"), sim::KnobValue{1.0});
  EXPECT_EQ(sim::knob_parse(rate, "1e-6"), sim::KnobValue{1e-6});
  for (const char* bad : {"1.5", "-0.1", "0x", "1 "}) {
    EXPECT_FALSE(sim::knob_parse(rate, bad)) << bad;
  }
  EXPECT_EQ(sim::knob_expects(rate), "a probability in [0, 1]");
}

TEST(KnobFuzz, EveryKnobParserRoundTripsOrRejectsTyped) {
  Rng rng(kSeed);
  const std::vector<std::string>& benches = workloads::bmla_names();

  // Valid jobs round-trip through the job object and the flag text form.
  for (int i = 0; i < kValidJobs; ++i) {
    JobSpec spec;
    spec.job.kind = pick(rng, arch::all_arch_kinds());
    spec.job.bench = pick(rng, benches);
    spec.job.tag = "t" + std::to_string(i);
    spec.hold_ms = rng.below(1000);
    for (const sim::Knob& knob : sim::knobs()) {
      if (rng.chance(0.5)) {
        sim::knob_set(knob, spec.job.options, random_valid(rng, knob));
      }
    }
    const std::string text = job_json(spec);
    const JobSpec back = job_from_json(trace::json_parse(text));
    EXPECT_EQ(job_json(back), text);
    const sim::SuiteOptions flagged = parse_flags(knob_flags(spec.job.options));
    for (const sim::Knob& knob : sim::knobs()) {
      EXPECT_EQ(sim::knob_get(knob, flagged),
                sim::knob_get(knob, spec.job.options))
          << knob.name << " via " << knob.flag;
    }
  }

  // Each member with a wrong type or a bad number is a typed rejection.
  for (const sim::Knob& knob : sim::knobs()) {
    const sim::KnobValue def = sim::knob_default(knob);
    const std::string wrong_type =
        std::holds_alternative<std::string>(def) ? "7"
        : std::holds_alternative<bool>(def)      ? "1"
                                                 : "\"7\"";
    for (const std::string& value :
         {wrong_type, std::string("-1"), std::string("null"),
          std::string("[]")}) {
      EXPECT_FALSE(parses(R"({"bench":"count",")" + std::string(knob.name) +
                          "\":" + value + "}"))
          << knob.name << ": " << value;
    }
    for (const char* value :
         {"1.5", "0.5", "0", "-0", "18446744073709551616", "4294967296",
          "18446744073709551615", "1e400", "2", "\"\"", "true", "{}"}) {
      (void)parses(R"({"bench":"count",")" + std::string(knob.name) +
                   "\":" + value + "}");
    }
  }

  const std::string valid = job_json(JobSpec{{arch::ArchKind::kSsmc, "count",
                                              sim::SuiteOptions{}, "tag"},
                                             0});
  for (int i = 0; i < kMutations; ++i) {
    // Unknown members.
    const std::string name(1 + rng.below(12),
                           static_cast<char>('a' + rng.below(26)));
    EXPECT_EQ(parses(R"({"bench":"count",")" + name + "\":1}"),
              sim::knob_named(name) != nullptr || name == "tag" ||
                  name == "arch" || name == "hold_ms")
        << name;
    // Truncated and garbled documents.
    (void)parses(valid.substr(0, rng.below(valid.size())));
    std::string garbled = valid;
    for (u64 n = 1 + rng.below(4); n > 0; --n) {
      garbled[rng.below(garbled.size())] = static_cast<char>(rng.below(256));
    }
    (void)parses(garbled);
    // Random spec strings, as job members and as flag text.
    for (const char* knob : {"mapping", "page_policy", "refresh"}) {
      const std::string spec = random_spec(rng, knob);
      std::string member;
      for (const char c : spec) {
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
          continue;
        }
        member += c;
      }
      const bool parsed = parses(R"({"bench":"count",")" + std::string(knob) +
                                 "\":\"" + member + "\"}");
      EXPECT_EQ(parsed,
                sim::knob_parse(*sim::knob_named(knob), member).has_value())
          << knob << ": " << member;
    }
    // Random text through every knob's flag parser.
    std::string text(rng.below(24), ' ');
    for (char& c : text) c = static_cast<char>(rng.below(128));
    for (const sim::Knob& knob : sim::knobs()) {
      (void)sim::knob_parse(knob, text);
    }
  }
}

}  // namespace
}  // namespace mlp::serve
