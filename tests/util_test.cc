/**
 * @file
 * Unit and property tests for the util module: integer math, exact
 * rationals, the PRNG, table rendering, and logging helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include <algorithm>
#include <numeric>
#include <set>

#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/table.h"

using namespace cocco;

// --- gcd / lcm -----------------------------------------------------------

TEST(MathUtil, GcdBasics)
{
    EXPECT_EQ(gcd64(12, 18), 6);
    EXPECT_EQ(gcd64(18, 12), 6);
    EXPECT_EQ(gcd64(7, 13), 1);
    EXPECT_EQ(gcd64(0, 5), 5);
    EXPECT_EQ(gcd64(5, 0), 5);
    EXPECT_EQ(gcd64(0, 0), 0);
    EXPECT_EQ(gcd64(42, 42), 42);
}

TEST(MathUtil, LcmBasics)
{
    EXPECT_EQ(lcm64(4, 6), 12);
    EXPECT_EQ(lcm64(2, 2), 2);
    EXPECT_EQ(lcm64(1, 9), 9);
    EXPECT_EQ(lcm64(0, 9), 0);
    EXPECT_EQ(lcm64(3, 7), 21);
}

TEST(MathUtil, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 3), 0);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
    EXPECT_EQ(roundUp(0, 8), 0);
}

/** gcd/lcm algebraic identities over a parameter sweep. */
class GcdLcmProperty : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(GcdLcmProperty, ProductIdentity)
{
    auto [a, b] = GetParam();
    int64_t g = gcd64(a, b);
    int64_t l = lcm64(a, b);
    if (a > 0 && b > 0) {
        EXPECT_EQ(g * l, static_cast<int64_t>(a) * b);
        EXPECT_EQ(a % g, 0);
        EXPECT_EQ(b % g, 0);
        EXPECT_EQ(l % a, 0);
        EXPECT_EQ(l % b, 0);
    }
    EXPECT_EQ(gcd64(a, b), gcd64(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcdLcmProperty,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 3}, std::pair{4, 6},
                      std::pair{12, 30}, std::pair{7, 7}, std::pair{100, 75},
                      std::pair{1024, 768}, std::pair{17, 289},
                      std::pair{36, 48}, std::pair{5, 125}));

// --- Rational ------------------------------------------------------------

TEST(Rational, ReducesOnConstruction)
{
    Rational r(6, 8);
    EXPECT_EQ(r.num(), 3);
    EXPECT_EQ(r.den(), 4);
}

TEST(Rational, NormalizesSign)
{
    Rational r(3, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ZeroHasUnitDenominator)
{
    Rational r(0, 17);
    EXPECT_EQ(r.num(), 0);
    EXPECT_EQ(r.den(), 1);
}

TEST(Rational, Multiply)
{
    EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
    EXPECT_EQ(Rational(5) * Rational(1, 5), Rational(1));
}

TEST(Rational, Divide)
{
    EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
    EXPECT_EQ(Rational(3, 7) / Rational(3, 7), Rational(1));
}

TEST(Rational, AddSubtract)
{
    EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
    EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
    EXPECT_EQ(Rational(1, 2) - Rational(1, 2), Rational(0));
}

TEST(Rational, IntegerDetection)
{
    EXPECT_TRUE(Rational(8, 4).isInteger());
    EXPECT_EQ(Rational(8, 4).toInteger(), 2);
    EXPECT_FALSE(Rational(8, 3).isInteger());
}

TEST(Rational, StringRendering)
{
    EXPECT_EQ(Rational(3, 4).str(), "3/4");
    EXPECT_EQ(Rational(4, 2).str(), "2");
}

/** Field axioms sampled over small fractions. */
class RationalProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(RationalProperty, FieldIdentities)
{
    auto [an, ad, bn, bd] = GetParam();
    Rational a(an, ad), b(bn, bd);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) - b, a);
    if (b.num() != 0) {
        EXPECT_EQ((a / b) * b, a);
    }
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a + Rational(0), a);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RationalProperty,
    ::testing::Values(std::tuple{1, 2, 1, 3}, std::tuple{-1, 2, 1, 3},
                      std::tuple{7, 5, 5, 7}, std::tuple{0, 1, 3, 4},
                      std::tuple{6, 4, -2, 8}, std::tuple{100, 3, 3, 100}));

// --- Rng -----------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntHitsAllValues)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(0, 9));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 2000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 2000, 0.5, 0.05);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.06);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 4000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 4000.0, 0.25, 0.03);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(19);
    std::vector<int> v(50);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> orig = v;
    rng.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
    EXPECT_NE(v, orig); // astronomically unlikely to be identity
}

TEST(Rng, ChoicePicksMembers)
{
    Rng rng(23);
    std::vector<int> v{3, 5, 7};
    for (int i = 0; i < 100; ++i) {
        int c = rng.choice(v);
        EXPECT_TRUE(c == 3 || c == 5 || c == 7);
    }
}

// --- Table ---------------------------------------------------------------

TEST(Table, RendersHeaderAndRows)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    std::string s = t.str();
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("| bb "), std::string::npos);
    EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(Table, ColumnsAlignToWidestCell)
{
    Table t({"x"});
    t.addRow({"wide-cell-content"});
    t.addRow({"y"});
    std::string s = t.str();
    // Every line has equal length.
    size_t first_nl = s.find('\n');
    std::string line;
    size_t width = first_nl;
    for (size_t pos = 0; pos < s.size();) {
        size_t nl = s.find('\n', pos);
        EXPECT_EQ(nl - pos, width);
        pos = nl + 1;
    }
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmtInt(42), "42");
    EXPECT_EQ(Table::fmtDouble(1.234, 1), "1.2");
    EXPECT_EQ(Table::fmtKB(2048), "2KB");
    EXPECT_EQ(Table::fmtMB(2.0 * 1024 * 1024), "2.00MB");
    EXPECT_EQ(Table::fmtPercent(0.5), "50.0%");
    EXPECT_EQ(Table::fmtSci(12345.0, 2), "1.23E+04");
}

// --- Logging -------------------------------------------------------------

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 3, "abc"), "x=3 y=abc");
    EXPECT_EQ(strprintf("no args"), "no args");
    EXPECT_EQ(strprintf("%05.1f", 2.25), "002.2");
}

TEST(Logging, QuietFlagRoundTrip)
{
    bool was = isQuiet();
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
    setQuiet(was);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 3), "panic: boom 3");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "fatal: bad config");
}

TEST(MathUtilDeath, RationalZeroDenominator)
{
    EXPECT_DEATH(Rational(1, 0), "zero denominator");
}

TEST(MathUtilDeath, NonIntegerToInteger)
{
    EXPECT_DEATH(Rational(1, 2).toInteger(), "not an integer");
}

// --- CsvWriter -------------------------------------------------------------

TEST(Csv, HeaderAndRows)
{
    CsvWriter w({"a", "b"});
    w.addRow({"1", "2"});
    w.addRow({"3", "4"});
    EXPECT_EQ(w.str(), "a,b\n1,2\n3,4\n");
}

TEST(Csv, QuotesSpecialFields)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::quote("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, QuotedFieldsRoundIntoDocument)
{
    CsvWriter w({"x"});
    w.addRow({"v,1"});
    EXPECT_EQ(w.str(), "x\n\"v,1\"\n");
}

TEST(Csv, WriteFileRoundTrip)
{
    CsvWriter w({"k", "v"});
    w.addRow({"alpha", "0.002"});
    std::string path = ::testing::TempDir() + "/cocco_csv_test.csv";
    ASSERT_TRUE(w.writeFile(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[128] = {0};
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "k,v\nalpha,0.002\n");
}

TEST(Csv, WriteFileFailsGracefully)
{
    bool was = isQuiet();
    setQuiet(true);
    CsvWriter w({"x"});
    EXPECT_FALSE(w.writeFile("/nonexistent-dir/file.csv"));
    setQuiet(was);
}

TEST(CsvDeath, RowArityMismatch)
{
    CsvWriter w({"a", "b"});
    EXPECT_DEATH(w.addRow({"only-one"}), "expected 2");
}

// --- JSON parser ---------------------------------------------------------

TEST(JsonParse, Scalars)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("42", &v, &err));
    EXPECT_EQ(v.integer(), 42);
    ASSERT_TRUE(parseJson("-3.5e2", &v, &err));
    EXPECT_DOUBLE_EQ(v.number(), -350.0);
    ASSERT_TRUE(parseJson("true", &v, &err));
    EXPECT_TRUE(v.boolean());
    ASSERT_TRUE(parseJson("null", &v, &err));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(parseJson("\"hi\\n\\\"there\\\"\"", &v, &err));
    EXPECT_EQ(v.str(), "hi\n\"there\"");
    ASSERT_TRUE(parseJson("\"\\u0041\\u00e9\"", &v, &err));
    EXPECT_EQ(v.str(), "A\xc3\xa9");
}

TEST(JsonParse, NestedStructure)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": [1, 2, {"b": false}], "c": {"d": "e"}, "f": []})", &v,
        &err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members().size(), 3u);
    const JsonValue *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    EXPECT_EQ(a->array().size(), 3u);
    EXPECT_EQ(a->array()[1].integer(), 2);
    EXPECT_FALSE(a->array()[2].find("b")->boolean());
    EXPECT_EQ(v.find("c")->find("d")->str(), "e");
    EXPECT_TRUE(v.find("f")->array().empty());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "run \"1\"")
        .field("count", static_cast<int64_t>(7))
        .field("ratio", 0.25)
        .field("on", true)
        .key("items")
        .beginArray()
        .value(static_cast<int64_t>(1))
        .value("two")
        .endArray()
        .endObject();
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), &v, &err)) << err;
    EXPECT_EQ(v.find("name")->str(), "run \"1\"");
    EXPECT_EQ(v.find("count")->integer(), 7);
    EXPECT_DOUBLE_EQ(v.find("ratio")->number(), 0.25);
    EXPECT_TRUE(v.find("on")->boolean());
    EXPECT_EQ(v.find("items")->array()[1].str(), "two");
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    for (const char *bad :
         {"", "{", "[1, 2", "{\"a\" 1}", "{\"a\": 1,}", "[1, 2,]",
          "tru", "\"unterminated", "{\"a\": 1} extra", "01x",
          "{\"a\": \"\\q\"}", "nan",
          // strict RFC 8259 numbers: no leading zeros, no bare dots,
          // no empty exponents
          "01", "-01", "1.", ".5", "1e", "1e+", "+1", "--1"}) {
        EXPECT_FALSE(parseJson(bad, &v, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonParse, ErrorsCarryLineNumbers)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\n  \"a\": 1,\n  oops\n}", &v, &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(JsonParse, RejectsDuplicateKeysNamingTheirPath)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": 1,\n \"b\": [{\"c\": 2, \"c\": 3}]}", &v,
                           &err));
    EXPECT_EQ(err, "line 2: duplicate key \"b[0].c\"");
    // One key in sibling objects is no repeat.
    EXPECT_TRUE(parseJson("[{\"a\": 1}, {\"a\": 2}]", &v, &err)) << err;
    // A wide object follows the same rule.
    std::string wide = "{";
    for (int i = 0; i < 40; ++i)
        wide += strprintf("\"k%d\": %d, ", i, i);
    EXPECT_TRUE(parseJson(wide + "\"end\": 0}", &v, &err)) << err;
    EXPECT_FALSE(parseJson(wide + "\"k3\": 0}", &v, &err));
    EXPECT_EQ(err, "line 1: duplicate key \"k3\"");
}

TEST(JsonParseDeath, TypeMismatchPanics)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("[1]", &v, &err));
    EXPECT_DEATH(v.str(), "str\\(\\) on a");
    EXPECT_DEATH(v.find("k"), "members\\(\\) on a");
}
