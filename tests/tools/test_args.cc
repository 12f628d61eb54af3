#include "tools/args.h"

#include <gtest/gtest.h>

#include <vector>

namespace ceal::tools {
namespace {

/// Builds argv from string literals (argv[0] = program name).
struct Argv {
  explicit Argv(std::vector<std::string> tokens)
      : storage(std::move(tokens)) {
    storage.insert(storage.begin(), "prog");
    for (auto& t : storage) ptrs.push_back(t.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(Args, FlagPresenceAndAbsence) {
  Argv a({"--verbose"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.flag("quiet"));
  args.finish();
}

TEST(Args, OptionReturnsValueOrFallback) {
  Argv a({"--workflow", "LV"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EQ(args.option("workflow", "HS"), "LV");
  EXPECT_EQ(args.option("objective", "exec"), "exec");
  args.finish();
}

TEST(Args, IntegerParsesAndDefaults) {
  Argv a({"--budget", "25"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EQ(args.integer("budget", 0), 25u);
  EXPECT_EQ(args.integer("seed", 42), 42u);
  args.finish();
}

TEST(Args, RequiredReturnsPresentValue) {
  Argv a({"--out", "file.csv"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EQ(args.required("out"), "file.csv");
  args.finish();
}

TEST(ArgsDeathTest, RequiredMissingExits) {
  Argv a({});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EXIT(args.required("out"), ::testing::ExitedWithCode(2),
              "missing required --out");
}

TEST(ArgsDeathTest, UnknownArgumentExits) {
  Argv a({"--bogus", "1"});
  Args args(a.argc(), a.argv(), "usage");
  args.flag("verbose");  // declare something else
  EXPECT_EXIT(args.finish(), ::testing::ExitedWithCode(2),
              "unknown argument");
}

TEST(ArgsDeathTest, HelpPrintsUsageAndExitsZero) {
  Argv a({"--help"});
  Args args(a.argc(), a.argv(), "the usage text");
  EXPECT_EXIT(args.finish(), ::testing::ExitedWithCode(0),
              "");
}

TEST(ArgsDeathTest, MalformedIntegerExits) {
  Argv a({"--budget", "abc"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EXIT(args.integer("budget", 0), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(Args, IntegerTakesTheWholeUnsignedRange) {
  // Seeds on the wire are unsigned 64-bit; the command line agrees.
  Argv a({"--seed", "18446744073709551615", "--threads", "0"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EQ(args.integer("seed", 5), 18446744073709551615u);
  EXPECT_EQ(args.integer("threads", 4), 0u);
  args.finish();
}

TEST(ArgsDeathTest, NegativeIntegerExits) {
  // A cast of -1 to size_t would ask for 2^64 - 1 rows.
  for (const char* bad : {"-1", "1.5", "", "12x", "18446744073709551616"}) {
    Argv a({"--pool-size", bad});
    Args args(a.argc(), a.argv(), "usage");
    EXPECT_EXIT(args.integer("pool-size", 1), ::testing::ExitedWithCode(2),
                "--pool-size expects an integer >= 0")
        << bad;
  }
}

TEST(Args, QuietVerboseAndTraceCombine) {
  // The ceal_tune observability flags: --quiet/--verbose are independent
  // booleans and --trace carries a path; all must survive finish().
  Argv a({"--quiet", "--verbose", "--trace", "out.jsonl",
          "--metrics-summary"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_TRUE(args.flag("quiet"));
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_TRUE(args.flag("metrics-summary"));
  EXPECT_EQ(args.option("trace", ""), "out.jsonl");
  args.finish();
}

TEST(Args, MultipleFlagsAndOptionsTogether) {
  Argv a({"--workflow", "GP", "--history", "--budget", "50", "--explain"});
  Args args(a.argc(), a.argv(), "usage");
  EXPECT_EQ(args.required("workflow"), "GP");
  EXPECT_TRUE(args.flag("history"));
  EXPECT_TRUE(args.flag("explain"));
  EXPECT_EQ(args.integer("budget", 0), 50u);
  args.finish();
}

}  // namespace
}  // namespace ceal::tools
