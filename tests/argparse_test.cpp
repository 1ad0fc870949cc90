// Flag-handling contract tests for the shared tool argument layer: strict
// numeric validation (a junk value exits 2, never a silent 0), the
// "--flag value" / "--flag=value" equivalence, inline values rejected on
// boolean switches, and repeated-flag last-wins semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tools/argparse.hpp"

namespace mlp::tools {
namespace {

// ---- numeric validation ----------------------------------------------------

TEST(ParseU64, AcceptsPlainIntegers) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "42"), 42u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"),
            18446744073709551615ull);
}

TEST(ParseU64, RejectsJunkWithExit2) {
  EXPECT_EXIT(parse_u64("--n", "abc"), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(parse_u64("--n", ""), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(parse_u64("--n", "12x"), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(parse_u64("--n", "12 34"), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(parse_u64("--n", "-3"), testing::ExitedWithCode(2), "--n");
  EXPECT_EXIT(parse_u64("--n", "1e4"), testing::ExitedWithCode(2), "--n");
}

TEST(ParseU64, EnforcesMinimum) {
  EXPECT_EQ(parse_u64("--n", "1", /*min=*/1), 1u);
  EXPECT_EXIT(parse_u64("--n", "0", /*min=*/1), testing::ExitedWithCode(2),
              "positive");
}

TEST(ParseU32, RejectsValuesAbove32Bits) {
  EXPECT_EQ(parse_u32("--n", "4294967295"), 0xffffffffu);
  EXPECT_EXIT(parse_u32("--n", "4294967296"), testing::ExitedWithCode(2),
              "32-bit");
}

TEST(ParseMs, RejectsDurationsPastAWeekWithExit2) {
  EXPECT_EQ(parse_ms("--hold-ms", "0"), 0u);
  EXPECT_EQ(parse_ms("--hold-ms", "604800000"), kMaxDurationMs);
  EXPECT_EXIT(parse_ms("--hold-ms", "604800001"), testing::ExitedWithCode(2),
              "--hold-ms expects a duration of at most 604800000 ms");
  EXPECT_EXIT(parse_ms("--job-timeout-ms", "10000000000000"),
              testing::ExitedWithCode(2), "--job-timeout-ms");
  EXPECT_EXIT(parse_ms("--request-timeout-ms", "9223372036854775808"),
              testing::ExitedWithCode(2), "--request-timeout-ms");
  EXPECT_EXIT(parse_ms("--hold-ms", "abc"), testing::ExitedWithCode(2),
              "non-negative integer");
}

TEST(SplitList, SplitsAndRejectsEmptyElements) {
  EXPECT_EQ(split_list("--l", "a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list("--l", "solo"), (std::vector<std::string>{"solo"}));
  EXPECT_EXIT(split_list("--l", "a,,c"), testing::ExitedWithCode(2),
              "comma-separated");
  EXPECT_EXIT(split_list("--l", "a,"), testing::ExitedWithCode(2),
              "comma-separated");
  EXPECT_EXIT(split_list("--l", ""), testing::ExitedWithCode(2),
              "comma-separated");
}

// ---- name lists ------------------------------------------------------------

// The --list-arches / --list-benches output contract (mlpsim and mlpsweep
// both print through this helper): one name per line, no header, trailing
// newline, empty list -> empty output.
TEST(NameListLines, OneNamePerLineWithTrailingNewline) {
  EXPECT_EQ(name_list_lines({"millipede", "ssmc"}), "millipede\nssmc\n");
  EXPECT_EQ(name_list_lines({"solo"}), "solo\n");
  EXPECT_EQ(name_list_lines({}), "");
}

// ---- ArgCursor -------------------------------------------------------------

/// argv scaffold: keeps the strings alive and hands out char** like main().
struct Argv {
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    ptrs.push_back(const_cast<char*>("test"));
    for (std::string& s : store) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(ArgCursor, SeparateAndInlineValuesAreEquivalent) {
  for (const std::vector<std::string>& form :
       {std::vector<std::string>{"--rows", "96"},
        std::vector<std::string>{"--rows=96"}}) {
    Argv a(form);
    ArgCursor args(a.argc(), a.argv());
    ASSERT_TRUE(args.next());
    EXPECT_TRUE(args.is("--rows"));
    EXPECT_EQ(args.value(), "96");
    EXPECT_FALSE(args.next());
  }
}

TEST(ArgCursor, RepeatedFlagsLastWins) {
  Argv a({"--seed", "1", "--seed=7", "--seed", "9"});
  ArgCursor args(a.argc(), a.argv());
  u64 seed = 0;
  while (args.next()) {
    ASSERT_TRUE(args.is("--seed"));
    seed = parse_u64(args.flag(), args.value());
  }
  EXPECT_EQ(seed, 9u);
}

TEST(ArgCursor, InlineValueOnBooleanSwitchExits2) {
  auto run = [] {
    Argv a({"--ecc=1", "--rows", "96"});
    ArgCursor args(a.argc(), a.argv());
    bool ecc = false;
    while (args.next()) {
      if (args.is("--ecc")) ecc = true;  // boolean: never calls value()
    }
    std::exit(ecc ? 0 : 3);
  };
  EXPECT_EXIT(run(), testing::ExitedWithCode(2), "does not take a value");
}

TEST(ArgCursor, MissingTrailingValueExits2) {
  auto run = [] {
    Argv a({"--rows"});
    ArgCursor args(a.argc(), a.argv());
    while (args.next()) {
      if (args.is("--rows")) args.value();
    }
    std::exit(0);
  };
  EXPECT_EXIT(run(), testing::ExitedWithCode(2), "missing value for --rows");
}

TEST(ArgCursor, EqualsInsideValueIsPreserved) {
  Argv a({"--tag=a=b=c"});
  ArgCursor args(a.argc(), a.argv());
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(args.is("--tag"));
  EXPECT_EQ(args.value(), "a=b=c");  // only the FIRST '=' splits
}

TEST(ArgCursor, MixedFlagsWalkInOrder) {
  Argv a({"--arch=ssmc", "--rows", "48", "--ecc", "--seed=5"});
  ArgCursor args(a.argc(), a.argv());
  std::vector<std::string> seen;
  while (args.next()) {
    seen.push_back(args.flag());
    if (args.is("--arch") || args.is("--rows") || args.is("--seed")) {
      args.value();
    }
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"--arch", "--rows", "--ecc",
                                            "--seed"}));
}

}  // namespace
}  // namespace mlp::tools
