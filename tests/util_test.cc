// Unit tests for the util module: Status/Result, strings, RNG, Zipf,
// math helpers, the CPU count, and the table printer.

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/cpus.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace optselect {
namespace util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kCorruption}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// --------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  leopard   tank \t os"),
            (std::vector<std::string>{"leopard", "tank", "os"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC-123"), "abc-123");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(5ull * 1024 * 1024), "5.0 MiB");
  EXPECT_EQ(FormatBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen, (std::set<int64_t>{-2, -1, 0, 1, 2}));
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 1.0);
  double sum = 0;
  for (size_t i = 0; i < z.n(); ++i) sum += z.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneDecreasing) {
  ZipfSampler z(50, 1.3);
  for (size_t i = 1; i < z.n(); ++i) {
    EXPECT_LE(z.Pmf(i), z.Pmf(i - 1));
  }
}

TEST(ZipfTest, SkewZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (size_t i = 0; i < z.n(); ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfTest, SamplesMatchPmf) {
  ZipfSampler z(5, 1.0);
  Rng rng(43);
  std::vector<int> counts(5, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), z.Pmf(i), 0.01);
  }
}

TEST(ZipfTest, HigherSkewConcentratesHead) {
  ZipfSampler flat(100, 0.5);
  ZipfSampler steep(100, 2.0);
  EXPECT_GT(steep.Pmf(0), flat.Pmf(0));
}

// ------------------------------------------------------------------ Math

TEST(MathTest, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(HarmonicNumber(0), 0.0);
  EXPECT_DOUBLE_EQ(HarmonicNumber(1), 1.0);
  EXPECT_DOUBLE_EQ(HarmonicNumber(2), 1.5);
  EXPECT_NEAR(HarmonicNumber(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(MathTest, Log2Discount) {
  EXPECT_DOUBLE_EQ(Log2Discount(1), 1.0);  // log2(2)
  EXPECT_NEAR(Log2Discount(3), 2.0, 1e-12);  // log2(4)
}

TEST(MathTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer t;
  int64_t a = t.ElapsedMicros();
  int64_t b = t.ElapsedMicros();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

// ------------------------------------------------------------------ CPUs

TEST(CpusTest, AvailableCpusIsPositive) { EXPECT_GE(AvailableCpus(), 1u); }

TEST(CpusTest, AvailableCpusFollowsTheAffinityMask) {
#if defined(__linux__)
  // Pin this thread to the first CPU of its mask (what `taskset -c`
  // does to a process), expect a count of one, then restore the mask.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &original)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = AvailableCpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(AvailableCpus(), static_cast<size_t>(CPU_COUNT(&original)));
#else
  GTEST_SKIP() << "no affinity mask on this platform";
#endif
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp;
  tp.SetHeader({"name", "value"});
  tp.AddRow({"x", "1"});
  tp.AddRow({"longer", "22"});
  std::string s = tp.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // All lines equal width for the data rows' columns.
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Num(2.0, 1), "2.0");
}

TEST(TablePrinterTest, SeparatorAndRaggedRows) {
  TablePrinter tp;
  tp.AddRow({"a", "b", "c"});
  tp.AddSeparator();
  tp.AddRow({"only"});
  std::string s = tp.ToString();
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("only"), std::string::npos);
}

}  // namespace
}  // namespace util
}  // namespace optselect
