// Unit tests for src/common: RNG, Result, strings, config, contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/config.hpp"
#include "common/contracts.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"

namespace mecoff {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.index(7), 7u);
}

TEST(Rng, PreconditionViolationsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), PreconditionError);
  EXPECT_THROW(rng.uniform(1.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.index(0), PreconditionError);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{Error("boom")};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r{Error("nope")};
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Result, ErrorOnValueThrows) {
  Result<int> r(1);
  EXPECT_THROW((void)r.error(), std::logic_error);
}

TEST(Strings, SplitWsDropsRuns) {
  const auto parts = split_ws("  alpha \t beta\n gamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, SplitWsEmpty) {
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_FALSE(parse_double("3.25x", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(parse_int("-17", v));
  EXPECT_EQ(v, -17);
  EXPECT_FALSE(parse_int("17.5", v));
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "users=100", "threshold=2.5", "name=test"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("users", 0), 100);
  EXPECT_EQ(cfg.get_string("threshold", ""), "2.5");
  EXPECT_EQ(cfg.get_string("name", ""), "test");
}

TEST(Config, FallbacksOnMissingOrMalformed) {
  Config cfg;
  cfg.set("bad", "xyz");
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  EXPECT_EQ(cfg.get_int("bad", 7), 7);
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.has("bad"));
}

TEST(Contracts, ExpectsThrowsPrecondition) {
  EXPECT_THROW(MECOFF_EXPECTS(1 == 2), PreconditionError);
  EXPECT_NO_THROW(MECOFF_EXPECTS(1 == 1));
}

TEST(Contracts, EnsuresThrowsInvariant) {
  EXPECT_THROW(MECOFF_ENSURES(false), InvariantError);
}

TEST(Contracts, MessageNamesLocation) {
  try {
    MECOFF_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace mecoff
