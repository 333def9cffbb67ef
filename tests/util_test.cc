#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/argparse.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace fieldswap {
namespace {

// ---- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// Pins the v2 (SplitMix64-seeded) streams: regenerating these values means
// every seeded corpus in the repo changes, which requires an explicit
// version-bump note in CHANGES.md (see the stream-version comment in
// util/rng.h).
TEST(RngTest, GoldenValuesPinStreamVersion2) {
  // Seed 0 with one advance burned continues the canonical SplitMix64
  // seed-0 sequence from its second value on.
  Rng zero(0);
  EXPECT_EQ(zero.Next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(zero.Next(), 0x06c45d188009454fULL);
  EXPECT_EQ(zero.Next(), 0xf88bb8a8724c81ecULL);

  Rng one(1);
  EXPECT_EQ(one.Next(), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(one.Next(), 0xf893a2eefb32555eULL);

  Rng forty_two(42);
  EXPECT_EQ(forty_two.Next(), 0x28efe333b266f103ULL);
  EXPECT_EQ(forty_two.Next(), 0x47526757130f9f52ULL);
}

// The v1 construction (state = seed ^ constant) aliased seed families:
// Rng(kGolden) ran the canonical seed-0 SplitMix64 sequence and any two
// seeds related by the XOR constant produced each other's streams. The v2
// seeding keeps seed 0 and the golden constant itself on distinct streams.
TEST(RngTest, SeedZeroAndGoldenConstantDoNotAlias) {
  constexpr uint64_t kGoldenConstant = 0x9e3779b97f4a7c15ULL;
  Rng zero(0);
  Rng golden(kGoldenConstant);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (zero.Next() == golden.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values in [3,7] should appear";
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleMoreThanPopulationReturnsAll) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng parent(31);
  Rng child_a = parent.Split(1);
  Rng child_b = parent.Split(1);
  // Splits from an advanced parent differ even with the same salt.
  EXPECT_NE(child_a.Next(), child_b.Next());
}

TEST(RngTest, SplitByTagDeterministic) {
  Rng a(5), b(5);
  Rng child_a = a.Split("values");
  Rng child_b = b.Split("values");
  EXPECT_EQ(child_a.Next(), child_b.Next());
}

TEST(RngTest, ChoiceReturnsElement) {
  Rng rng(37);
  std::vector<std::string> items{"a", "b", "c"};
  for (int i = 0; i < 20; ++i) {
    const std::string& pick = rng.Choice(items);
    EXPECT_TRUE(std::find(items.begin(), items.end(), pick) != items.end());
  }
}

// ---- Hash -----------------------------------------------------------------

TEST(HashTest, Fnv1aKnownValue) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(HashTest, Fnv1aChunkedEqualsOnePass) {
  // The corpus and flat snapshot formats checksum their bodies chunk by
  // chunk; every split must give the one-pass hash.
  const std::string text = "Pay Date: 2026-08-05  Base Salary $3,308.62";
  const uint64_t whole = Fnv1a64(text);
  EXPECT_EQ(Fnv1a64(text.data(), text.size()), whole);
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    uint64_t hash = Fnv1a64(text.data(), cut);
    hash = Fnv1a64(text.data() + cut, text.size() - cut, hash);
    EXPECT_EQ(hash, whole) << "cut at " << cut;
  }
  uint64_t bytewise = kFnv1a64Basis;
  for (char c : text) bytewise = Fnv1a64(&c, 1, bytewise);
  EXPECT_EQ(bytewise, whole);
}

TEST(HashTest, DifferentStringsDifferentHashes) {
  EXPECT_NE(Fnv1a64("Base Salary"), Fnv1a64("Base Salarz"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, BucketWithinRange) {
  for (const char* s : {"Overtime", "$3,308.62", "Pay Date", ""}) {
    EXPECT_LT(HashBucket(s, 128), 128u);
  }
}

// ---- Strings --------------------------------------------------------------

TEST(StringsTest, SplitStringDropsEmpty) {
  EXPECT_EQ(SplitString("a,,b,c,", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, SplitWhitespaceHandlesRuns) {
  EXPECT_EQ(SplitWhitespace("  Base   Salary\t$3,308.62\n"),
            (std::vector<std::string>{"Base", "Salary", "$3,308.62"}));
}

TEST(StringsTest, SplitWhitespaceEmpty) {
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"Amount", "Due"}, " "), "Amount Due");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"x"}, ","), "x");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi  "), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringsTest, TrimPunctuationStripsBothEnds) {
  EXPECT_EQ(TrimPunctuation("Due:"), "Due");
  EXPECT_EQ(TrimPunctuation("(Total)"), "Total");
  EXPECT_EQ(TrimPunctuation("--"), "");
  EXPECT_EQ(TrimPunctuation("St,"), "St");
}

TEST(StringsTest, TrimPunctuationKeepsInnerPunctuation) {
  EXPECT_EQ(TrimPunctuation("O'Brien"), "O'Brien");
  EXPECT_EQ(TrimPunctuation("3,308.62"), "3,308.62");
}

TEST(StringsTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("Base SALARY 42"), "base salary 42");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Overtime", "OVERTIME"));
  EXPECT_FALSE(EqualsIgnoreCase("Overtime", "Overtim"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("Pay Date", "Pay"));
  EXPECT_FALSE(StartsWith("Pay", "Pay Date"));
  EXPECT_TRUE(EndsWith("Pay Date", "Date"));
  EXPECT_FALSE(EndsWith("Date", "Pay Date"));
}

TEST(StringsTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(StringsTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(38081), "38,081");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

// ---- Stats ----------------------------------------------------------------

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(StdDev(v), 2.138, 1e-3);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(StdDev({3.0}), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
}

TEST(StatsTest, BoxStatsNoOutliers) {
  std::vector<double> v{1, 2, 3, 4, 5};
  BoxStats stats = ComputeBoxStats(v);
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_DOUBLE_EQ(stats.q1, 2.0);
  EXPECT_DOUBLE_EQ(stats.q3, 4.0);
  EXPECT_DOUBLE_EQ(stats.whisker_lo, 1.0);
  EXPECT_DOUBLE_EQ(stats.whisker_hi, 5.0);
  EXPECT_TRUE(stats.outliers.empty());
}

TEST(StatsTest, BoxStatsDetectsOutlier) {
  std::vector<double> v{1, 2, 3, 4, 5, 100};
  BoxStats stats = ComputeBoxStats(v);
  ASSERT_EQ(stats.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.outliers[0], 100.0);
  EXPECT_LE(stats.whisker_hi, 5.0);
}

TEST(StatsTest, BoxStatsSingleValue) {
  BoxStats stats = ComputeBoxStats({7.0});
  EXPECT_DOUBLE_EQ(stats.median, 7.0);
  EXPECT_DOUBLE_EQ(stats.whisker_lo, 7.0);
  EXPECT_DOUBLE_EQ(stats.whisker_hi, 7.0);
  EXPECT_TRUE(stats.outliers.empty());
}

// ---- TablePrinter ---------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Field", "F1"});
  table.AddRow({"current.salary", "79.3"});
  table.AddRow({"net_pay", "96.8"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| Field"), std::string::npos);
  EXPECT_NE(out.find("current.salary"), std::string::npos);
  // Header rule and borders exist.
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(ArgParserTest, ParsesTypedFlagsInBothSyntaxes) {
  util::ArgParser args("prog", "test program");
  int steps = 0;
  double rate = 0;
  std::string domain;
  bool verbose = false;
  args.AddInt("steps", 10, "step count", &steps);
  args.AddDouble("rate", 0.5, "learning rate", &rate);
  args.AddString("domain", "invoices", "domain name", &domain);
  args.AddBool("verbose", "chatty output", &verbose);
  EXPECT_EQ(steps, 10);  // defaults land at registration time
  EXPECT_EQ(domain, "invoices");

  const char* argv[] = {"prog", "--steps", "25", "--rate=0.125",
                        "--domain", "paystubs", "--verbose"};
  ASSERT_TRUE(args.Parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(steps, 25);
  EXPECT_EQ(rate, 0.125);
  EXPECT_EQ(domain, "paystubs");
  EXPECT_TRUE(verbose);
}

TEST(ArgParserTest, KeepsDefaultsWhenFlagsAbsent) {
  util::ArgParser args("prog", "test program");
  int steps = 0;
  args.AddInt("steps", 42, "step count", &steps);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(steps, 42);
}

TEST(ArgParserTest, RejectsUnknownFlagsAndBadValues) {
  util::ArgParser args("prog", "test program");
  int steps = 0;
  args.AddInt("steps", 10, "step count", &steps);
  const char* unknown[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(args.Parse(3, const_cast<char**>(unknown)));
  EXPECT_FALSE(args.help_requested());

  util::ArgParser args2("prog", "test program");
  args2.AddInt("steps", 10, "step count", &steps);
  const char* banana[] = {"prog", "--steps", "banana"};
  EXPECT_FALSE(args2.Parse(3, const_cast<char**>(banana)));
}

TEST(ArgParserTest, HelpPrintsUsageAndStopsParsing) {
  util::ArgParser args("prog", "test program");
  int steps = 0;
  args.AddInt("steps", 10, "step count", &steps);
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(args.help_requested());
  std::string usage = args.Usage();
  EXPECT_NE(usage.find("--steps"), std::string::npos);
  EXPECT_NE(usage.find("step count"), std::string::npos);
}

TEST(ArgParserTest, FillsPositionalsInDeclarationOrder) {
  util::ArgParser args("prog", "test program");
  std::string first, second;
  args.AddPositional("first", "alpha", "first positional", &first);
  args.AddPositional("second", "beta", "second positional", &second);
  const char* argv[] = {"prog", "one"};
  ASSERT_TRUE(args.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(first, "one");
  EXPECT_EQ(second, "beta");  // missing optional keeps its default
}

TEST(TablePrinterTest, HandlesRaggedRows) {
  TablePrinter table({"a"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({});
  std::ostringstream os;
  table.Print(os);
  EXPECT_FALSE(os.str().empty());
  EXPECT_EQ(table.num_rows(), 2u);
}

}  // namespace
}  // namespace fieldswap
