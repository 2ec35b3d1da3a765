#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "../bench/bench_common.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace mmr {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = parse({"prog", "--runs=5", "--name=test"});
  EXPECT_EQ(f.get_int("runs", 0), 5);
  EXPECT_EQ(f.get_string("name", ""), "test");
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"prog", "--runs", "7"});
  EXPECT_EQ(f.get_int("runs", 0), 7);
}

TEST(Flags, BareBooleanFlag) {
  const Flags f = parse({"prog", "--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(Flags, Defaults) {
  const Flags f = parse({"prog"});
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get_string("missing", "x"), "x");
  EXPECT_FALSE(f.get_bool("missing", false));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, DoubleParsing) {
  const Flags f = parse({"prog", "--frac=0.65"});
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0), 0.65);
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(parse({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"p", "--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"p", "--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"p", "--x=off"}).get_bool("x", true));
}

TEST(Flags, TypeErrorsThrow) {
  const Flags f = parse({"prog", "--n=abc"});
  EXPECT_THROW(f.get_int("n", 0), CheckError);
  EXPECT_THROW(f.get_double("n", 0), CheckError);
  EXPECT_THROW(f.get_bool("n", false), CheckError);
}

TEST(Flags, Positional) {
  const Flags f = parse({"prog", "input.txt", "--n=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, HelpListing) {
  Flags f = parse({"prog", "--help"});
  f.describe("runs", "number of runs");
  EXPECT_TRUE(f.help_requested());
  const std::string h = f.help();
  EXPECT_NE(h.find("--runs"), std::string::npos);
  EXPECT_NE(h.find("number of runs"), std::string::npos);
}

TEST(Flags, LastValueWins) {
  const Flags f = parse({"prog", "--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, GetStringListReturnsEveryOccurrenceInOrder) {
  // Repeatable flags (benchdiff --filter) see all values; the typed
  // getters keep their last-wins behavior on the same flag.
  const Flags f =
      parse({"prog", "--filter=wall_s", "--other=x", "--filter", "rss"});
  const std::vector<std::string> filters = f.get_string_list("filter");
  ASSERT_EQ(filters.size(), 2u);
  EXPECT_EQ(filters[0], "wall_s");
  EXPECT_EQ(filters[1], "rss");
  EXPECT_EQ(f.get_string("filter", ""), "rss");
  EXPECT_TRUE(f.get_string_list("absent").empty());
}

TEST(Flags, GetIntRejectsEmptyAndOutOfRangeValues) {
  EXPECT_THROW(parse({"p", "--n="}).get_int("n", 7), CheckError);
  EXPECT_THROW(parse({"p", "--n=99999999999999999999"}).get_int("n", 0),
               CheckError);
  EXPECT_THROW(parse({"p", "--n=-99999999999999999999"}).get_int("n", 0),
               CheckError);
  EXPECT_THROW(parse({"p", "--n=12abc"}).get_int("n", 0), CheckError);
  EXPECT_EQ(parse({"p", "--n=-9223372036854775808"}).get_int("n", 0),
            INT64_MIN);
  EXPECT_EQ(parse({"p", "--n=-5"}).get_int("n", 0), -5);
  EXPECT_THROW(parse({"p", "--x="}).get_double("x", 1.0), CheckError);
  EXPECT_THROW(parse({"p", "--x=1e999"}).get_double("x", 1.0), CheckError);
}

TEST(Flags, GetCountAcceptsOnlyZeroToMax) {
  EXPECT_EQ(parse({"p"}).get_count("n", 12, 100), 12u);
  EXPECT_EQ(parse({"p", "--n=0"}).get_count("n", 12, 100), 0u);
  EXPECT_EQ(parse({"p", "--n=100"}).get_count("n", 12, 100), 100u);
  for (const char* bad : {"--n=-1", "--n=101", "--n=", "--n=abc",
                          "--n=1e3", "--n=18446744073709551616"}) {
    EXPECT_THROW(parse({"p", bad}).get_count("n", 12, 100), CheckError)
        << bad;
  }
  try {
    parse({"p", "--n=-1"}).get_count("n", 0, 100);
    FAIL() << "no throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--n must be in [0, 100]"),
              std::string::npos)
        << e.what();
  }
}

// The 32-bit count flags (--shards, --concurrency, --queue-cap, --servers,
// --runs, --epochs, ...) all read through get_count's default bound: a value
// a uint32 cast would wrap (2^32 + 1 -> 1, -1 -> 2^32 - 1) is an error, and
// --shards=0 still means "unsharded".
TEST(Flags, GetCountDefaultBoundRejectsWrappingValues) {
  EXPECT_EQ(parse({"p", "--shards=0"}).get_count("shards", 16), 0u);
  EXPECT_EQ(parse({"p", "--queue-cap=4294967295"}).get_count("queue-cap", 8),
            4294967295u);
  for (const char* bad : {"--shards=4294967297", "--shards=4294967296",
                          "--concurrency=-1", "--servers=-1"}) {
    const Flags f = parse({"p", bad});
    const std::string name = std::string(bad + 2, std::strchr(bad, '='));
    EXPECT_THROW(f.get_count(name, 1), CheckError) << bad;
  }
}

// The shared harness flags: every bad count throws from config_from_flags
// before init_artifacts marks the process initialized, registers its exit
// writer or the harness builds a thread pool with the value.
TEST(BenchFlags, ConfigRejectsBadCountsBeforeAnyState) {
  const std::string too_many_threads =
      "--threads=" + std::to_string(ThreadPool::kMaxThreads + 1);
  for (const char* bad :
       {"--threads=-1", too_many_threads.c_str(), "--runs=abc", "--runs=",
        "--runs=-3", "--requests=-5", "--requests=4294967296", "--reps=-1",
        "--warmup=x", "--flight-sample=-2"}) {
    const char* argv[] = {"prog", bad};
    const Flags flags = bench::standard_flags(2, argv);
    EXPECT_THROW(bench::config_from_flags(flags), CheckError) << bad;
    EXPECT_FALSE(bench::detail::artifact_state().initialized) << bad;
  }
}

TEST(BenchFlags, ExitCodeIsOneOrTheMemoryBudgetCode) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(bench::exit_code_for(CheckError("bad flag")), 1);
  EXPECT_EQ(bench::exit_code_for(memacct::MemBudgetError("over budget")),
            memacct::kMemBudgetExitCode);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("error: bad flag"), std::string::npos) << err;
}

}  // namespace
}  // namespace mmr
