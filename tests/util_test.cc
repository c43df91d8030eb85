// Unit tests for src/util: rng, flags, format, histogram, bitset.
#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace phoenix::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.Next();
  a.Next();
  a.Reseed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(Rng, NextBoundedCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBoundedIsRoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // Child stream should not be a shifted copy of the parent.
  Rng a2(31);
  a2.Next();  // align with the state after Fork's draw
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child.Next() == a2.Next();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMix64KnownFirstValue) {
  std::uint64_t s = 0;
  // Reference value of splitmix64 seeded with 0.
  EXPECT_EQ(SplitMix64(s), 0xe220a8397b1dcdafULL);
}

// ---------------------------------------------------------------- Flags

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--nodes=500"};
  Flags f;
  f.Parse(2, argv);
  EXPECT_EQ(f.GetInt("nodes", 1), 500);
  EXPECT_TRUE(f.Validate());
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--name", "google"};
  Flags f;
  f.Parse(3, argv);
  EXPECT_EQ(f.GetString("name", ""), "google");
  EXPECT_TRUE(f.Validate());
}

TEST(Flags, ParsesBareBool) {
  const char* argv[] = {"prog", "--verbose"};
  Flags f;
  f.Parse(2, argv);
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(Flags, ParsesNegatedBool) {
  const char* argv[] = {"prog", "--no-verbose"};
  Flags f;
  f.Parse(2, argv);
  EXPECT_FALSE(f.GetBool("verbose", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f;
  f.Parse(1, argv);
  EXPECT_EQ(f.GetInt("nodes", 42), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("load", 0.85), 0.85);
  EXPECT_EQ(f.GetString("name", "x"), "x");
  EXPECT_FALSE(f.Provided("nodes"));
}

TEST(Flags, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo=3"};
  Flags f;
  f.Parse(2, argv);
  f.GetInt("nodes", 1);
  EXPECT_FALSE(f.Validate());
  EXPECT_NE(f.error().find("typo"), std::string::npos);
}

TEST(Flags, RejectsMalformedInt) {
  const char* argv[] = {"prog", "--nodes=abc"};
  Flags f;
  f.Parse(2, argv);
  f.GetInt("nodes", 1);
  EXPECT_FALSE(f.Validate());
}

TEST(Flags, RejectsMalformedDouble) {
  const char* argv[] = {"prog", "--load=fast"};
  Flags f;
  f.Parse(2, argv);
  f.GetDouble("load", 0.5);
  EXPECT_FALSE(f.Validate());
}

TEST(Flags, RejectsMalformedBool) {
  const char* argv[] = {"prog", "--paper=maybe"};
  Flags f;
  f.Parse(2, argv);
  f.GetBool("paper", false);
  EXPECT_FALSE(f.Validate());
}

TEST(Flags, CollectsPositionalArguments) {
  const char* argv[] = {"prog", "input.trace", "--nodes=2", "out.txt"};
  Flags f;
  f.Parse(4, argv);
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.trace");
  EXPECT_EQ(f.positional()[1], "out.txt");
}

TEST(Flags, IdenticalRedeclarationIsANoOp) {
  const char* argv[] = {"prog", "--nodes=12"};
  Flags f;
  f.Parse(2, argv);
  // Two subsystems asking for the same flag with the same type and default
  // (the normal shared-flag pattern) both see the parsed value.
  EXPECT_EQ(f.GetInt("nodes", 1), 12);
  EXPECT_EQ(f.GetInt("nodes", 1), 12);
  EXPECT_TRUE(f.Validate());
}

TEST(Flags, ConflictingRedeclarationAborts) {
  // Two Get* calls disagreeing on type or default would make the value the
  // program sees depend on call order — a silent registration conflict the
  // startup abort exists to surface.
  const char* argv[] = {"prog"};
  EXPECT_DEATH(
      {
        Flags f;
        f.Parse(1, argv);
        f.GetInt("nodes", 1);
        f.GetDouble("nodes", 1.0);  // same name, different type
      },
      "declared twice");
  EXPECT_DEATH(
      {
        Flags f;
        f.Parse(1, argv);
        f.GetInt("nodes", 1);
        f.GetInt("nodes", 2);  // same type, different default
      },
      "declared twice");
}

TEST(Flags, BoolAcceptsManySpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    const std::string arg = std::string("--x=") + spelling;
    const char* argv[] = {"prog", arg.c_str()};
    Flags f;
    f.Parse(2, argv);
    EXPECT_TRUE(f.GetBool("x", false)) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off"}) {
    const std::string arg = std::string("--x=") + spelling;
    const char* argv[] = {"prog", arg.c_str()};
    Flags f;
    f.Parse(2, argv);
    EXPECT_FALSE(f.GetBool("x", true)) << spelling;
  }
}

// ---------------------------------------------------------------- Flags --help

TEST(Flags, HelpRequestedDetectsBareAndValuedForms) {
  {
    const char* argv[] = {"prog"};
    Flags f;
    f.Parse(1, argv);
    EXPECT_FALSE(f.HelpRequested());
  }
  {
    const char* argv[] = {"prog", "--help"};
    Flags f;
    f.Parse(2, argv);
    EXPECT_TRUE(f.HelpRequested());
  }
  {
    const char* argv[] = {"prog", "--no-help"};
    Flags f;
    f.Parse(2, argv);
    EXPECT_FALSE(f.HelpRequested());
  }
}

TEST(Flags, HelpIsNeverAnUnknownFlag) {
  const char* argv[] = {"prog", "--help"};
  Flags f;
  f.Parse(2, argv);
  // No getter ever declares "help"; Validate must still accept it.
  f.GetInt("nodes", 1);
  EXPECT_TRUE(f.Validate()) << f.error();
}

TEST(Flags, UsageListsEveryDeclaredFlagWithDefault) {
  const char* argv[] = {"prog"};
  Flags f;
  f.Parse(1, argv);
  f.GetInt("nodes", 300);
  f.GetDouble("load", 0.85);
  f.GetString("profile", "google");
  f.GetBool("paper", false);
  const std::string usage = f.Usage();
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("(default: 300)"), std::string::npos);
  EXPECT_NE(usage.find("--load"), std::string::npos);
  EXPECT_NE(usage.find("(default: 0.85)"), std::string::npos);
  EXPECT_NE(usage.find("--profile"), std::string::npos);
  EXPECT_NE(usage.find("(default: google)"), std::string::npos);
  EXPECT_NE(usage.find("--paper"), std::string::npos);
  EXPECT_NE(usage.find("(default: false)"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
  // Declaration order is preserved in the listing.
  EXPECT_LT(usage.find("--nodes"), usage.find("--load"));
  EXPECT_LT(usage.find("--load"), usage.find("--profile"));
}

TEST(Flags, UsageNamesTheProgram) {
  const char* argv[] = {"/long/path/to/bench_thing"};
  Flags f;
  f.Parse(1, argv);
  EXPECT_NE(f.Usage().find("usage: bench_thing"), std::string::npos);
}

TEST(Flags, UsageShowsEmptyStringDefault) {
  const char* argv[] = {"prog"};
  Flags f;
  f.Parse(1, argv);
  f.GetString("tsv", "");
  EXPECT_NE(f.Usage().find("(default: \"\")"), std::string::npos);
}

TEST(Flags, ValidateOrExitRejectsUnknownFlagWithUsage) {
  const char* argv[] = {"prog", "--typo=3"};
  EXPECT_EXIT(
      {
        Flags f;
        f.Parse(2, argv);
        f.GetInt("nodes", 1);
        f.ValidateOrExit();
      },
      ::testing::ExitedWithCode(1), "prog: unknown flag --typo");
}

TEST(Flags, ValidateOrExitHonoursHelp) {
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(
      {
        Flags f;
        f.Parse(2, argv);
        f.GetInt("nodes", 1);
        f.ValidateOrExit();
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Flags, ValidateOrExitPassesCleanCommandLine) {
  const char* argv[] = {"prog", "--nodes=4"};
  Flags f;
  f.Parse(2, argv);
  f.GetInt("nodes", 1);
  f.ValidateOrExit();  // must return normally
  EXPECT_EQ(f.GetInt("nodes", 1), 4);
}

TEST(Flags, RedeclarationDoesNotDuplicateTheUsageRow) {
  const char* argv[] = {"prog"};
  Flags f;
  f.Parse(1, argv);
  f.GetInt("nodes", 300);
  f.GetInt("nodes", 300);  // identical re-declaration must not add a row
  const std::string usage = f.Usage();
  EXPECT_EQ(usage.find("--nodes"), usage.rfind("--nodes"));
  EXPECT_NE(usage.find("(default: 300)"), std::string::npos);
}

// ---------------------------------------------------------------- Format

TEST(Format, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Format, HumanDurationUnits) {
  EXPECT_EQ(HumanDuration(0.0005), "0.5ms");
  EXPECT_EQ(HumanDuration(1.5), "1.50s");
  EXPECT_EQ(HumanDuration(300), "5.0min");
  EXPECT_EQ(HumanDuration(7200), "2.0h");
}

TEST(Format, HumanDurationNegative) {
  EXPECT_EQ(HumanDuration(-1.5), "-1.50s");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(15000), "15,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-6500), "-6,500");
}

TEST(Format, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Format, TrimWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Format, TextTableAlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.AddRow({"xxxxx", "y"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a     | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| xxxxx | y    |"), std::string::npos);
}

TEST(Format, TextTableRowCountAndRule) {
  TextTable t({"h"});
  t.AddRow({"1"});
  t.AddRule();
  t.AddRow({"2"});
  EXPECT_EQ(t.row_count(), 3u);  // rule counts as a row slot
  EXPECT_FALSE(t.ToString().empty());
}

// ---------------------------------------------------------------- Histogram

TEST(Histogram, CountsByBucket) {
  LinearHistogram h(0, 10, 10);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(1.7);
  h.Add(9.99);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflow) {
  LinearHistogram h(0, 10, 5);
  h.Add(-1);
  h.Add(10);
  h.Add(100);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, QuantileInterpolates) {
  LinearHistogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
  EXPECT_NEAR(h.Quantile(0.5), 50, 2.0);
  EXPECT_NEAR(h.Quantile(0.99), 99, 2.0);
  EXPECT_NEAR(h.Quantile(0.0), 0, 1.0);
}

TEST(Histogram, WeightedAdd) {
  LinearHistogram h(0, 10, 10);
  h.Add(5.0, 7);
  EXPECT_EQ(h.bucket(5), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, AsciiRenderingNonEmpty) {
  LinearHistogram h(0, 10, 4);
  h.Add(1);
  h.Add(2);
  h.Add(-5);
  h.Add(50);
  const std::string art = h.ToAscii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("underflow"), std::string::npos);
  EXPECT_NE(art.find("overflow"), std::string::npos);
}

// ---------------------------------------------------------------- Bitset

TEST(Bitset, SetTestReset) {
  Bitset b(100);
  EXPECT_FALSE(b.Test(42));
  b.Set(42);
  EXPECT_TRUE(b.Test(42));
  b.Reset(42);
  EXPECT_FALSE(b.Test(42));
}

TEST(Bitset, CountAndAny) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Any());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(b.Count(), 3u);
  EXPECT_TRUE(b.Any());
}

TEST(Bitset, SetAllRespectsSize) {
  Bitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
}

TEST(Bitset, AndWith) {
  Bitset a(64), b(64);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  a.AndWith(b);
  EXPECT_FALSE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_FALSE(a.Test(3));
}

TEST(Bitset, OrWith) {
  Bitset a(64), b(64);
  a.Set(1);
  b.Set(3);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(3));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(Bitset, CollectSetBits) {
  Bitset b(200);
  b.Set(5);
  b.Set(63);
  b.Set(64);
  b.Set(199);
  std::vector<std::uint32_t> out;
  b.CollectSetBits(out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{5, 63, 64, 199}));
}

TEST(Bitset, RangeVisitResetAndAny) {
  Bitset b(200);
  for (const std::size_t i : {0, 5, 63, 64, 65, 127, 128, 150, 199}) b.Set(i);
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 200}, {0, 0}, {5, 5}, {1, 63}, {63, 65}, {64, 128}, {66, 127},
      {100, 199}, {129, 150}, {199, 200}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<std::size_t> want;
    for (std::size_t i = lo; i < hi; ++i) {
      if (b.Test(i)) want.push_back(i);
    }
    std::vector<std::size_t> got;
    b.ForEachSetBit(lo, hi, [&got](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want) << lo << ".." << hi;
    EXPECT_EQ(b.AnyIn(lo, hi), !want.empty()) << lo << ".." << hi;
  }
  Bitset c = b;
  c.ResetRange(63, 129);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(c.Test(i), b.Test(i) && (i < 63 || i >= 129)) << i;
  }
}

TEST(Bitset, SampleSetBitReturnsOnlySetBits) {
  Bitset b(1000);
  b.Set(17);
  b.Set(333);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::size_t s = b.SampleSetBit(rng);
    EXPECT_TRUE(s == 17 || s == 333);
  }
}

TEST(Bitset, SampleSetBitEmptyReturnsSentinel) {
  Bitset b(100);
  Rng rng(4);
  EXPECT_EQ(b.SampleSetBit(rng), SIZE_MAX);
}

TEST(Bitset, SampleSetBitSparseUsesRankSelect) {
  // One bit in a large set: rejection nearly always misses, forcing the
  // rank-select fallback.
  Bitset b(100000);
  b.Set(99999);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(b.SampleSetBit(rng), 99999u);
}

TEST(Bitset, SampleSetBitIsRoughlyUniform) {
  Bitset b(10);
  for (std::size_t i = 0; i < 10; ++i) b.Set(i);
  Rng rng(6);
  std::vector<int> counts(10, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[b.SampleSetBit(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(Bitset, ResizeClearsContents) {
  Bitset b(10);
  b.Set(3);
  b.Resize(20);
  EXPECT_EQ(b.Count(), 0u);
  b.Resize(5, true);
  EXPECT_EQ(b.Count(), 5u);
}

// Property sweep: bitset ops agree with a std::vector<bool> reference model.
class BitsetPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetPropertyTest, MatchesReferenceModel) {
  const std::size_t size = GetParam();
  Bitset bits(size);
  std::vector<bool> ref(size, false);
  Rng rng(size * 2654435761u + 1);
  for (int op = 0; op < 2000; ++op) {
    const std::size_t i = rng.NextBounded(size);
    if (rng.Bernoulli(0.5)) {
      bits.Set(i);
      ref[i] = true;
    } else {
      bits.Reset(i);
      ref[i] = false;
    }
  }
  std::size_t ref_count = 0;
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(bits.Test(i), ref[i]);
    ref_count += ref[i];
  }
  EXPECT_EQ(bits.Count(), ref_count);
  std::vector<std::uint32_t> collected;
  bits.CollectSetBits(collected);
  EXPECT_EQ(collected.size(), ref_count);
  EXPECT_TRUE(std::is_sorted(collected.begin(), collected.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetPropertyTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000,
                                           4096, 15000));

}  // namespace
}  // namespace phoenix::util
