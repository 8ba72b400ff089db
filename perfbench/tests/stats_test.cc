#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats.h"

using namespace perfbench;

namespace {

const double kInf = std::numeric_limits<double>::infinity();

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({1, kInf, kInf}), kInf); // failures sort last
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3);
    EXPECT_DOUBLE_EQ(geomean({1, 4, 16}), 4);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(tailPercentile(iota(99), 0.9)); // only 9 beyond rank 90
    std::optional<double> p90 = tailPercentile(iota(100), 0.9);
    ASSERT_TRUE(p90);
    EXPECT_EQ(*p90, 90);
    EXPECT_EQ(*tailPercentile(iota(20), 0.5), 10);
    EXPECT_FALSE(tailPercentile(iota(19), 0.5));
}

TEST(Stats, FailedRequestsCountAsInfinite)
{
    std::vector<double> v = iota(100);
    for (int i = 0; i < 11; ++i)
        v[i] = kInf; // 11 refused or failed jobs
    EXPECT_EQ(*tailPercentile(v, 0.9), kInf);
    EXPECT_LT(*tailPercentile(v, 0.5), kInf);
}

TEST(Stats, FastestCompositeSumsEachStepsFastestTime)
{
    // Three identical runs of three steps, each slowed somewhere else.
    std::vector<std::vector<double>> runs = {
        {0.5, 1.0, 2.0}, {0.1, 3.0, 2.5}, {0.2, 1.2, 0.9}};
    EXPECT_DOUBLE_EQ(*fastestComposite(runs), 0.1 + 1.0 + 0.9);
    // Never above the fastest whole run.
    EXPECT_LE(*fastestComposite(runs), 0.2 + 1.2 + 0.9);
    EXPECT_DOUBLE_EQ(*fastestComposite({{0.3, 0.4}}), 0.7);
    // Runs that did different work do not compose.
    EXPECT_FALSE(fastestComposite({{1.0, 2.0}, {1.0}}));
    EXPECT_FALSE(fastestComposite({}));
}

TEST(Stats, TimeToTargetIsTheFirstImprovementAtTheFinalBest)
{
    std::vector<Improvement> imps = {{0.1, 9.0}, {0.4, 7.0}, {0.9, 5.0}};
    EXPECT_EQ(*timeToTarget(imps, 5.0), 0.9);
    EXPECT_EQ(*timeToTarget(imps, 7.0), 0.4);
    // A final best no improvement reached means record and result
    // disagree: no time is reported.
    EXPECT_FALSE(timeToTarget(imps, 4.0));
    EXPECT_FALSE(timeToTarget({}, 5.0));
}

TEST(Stats, SelfTimeSubtractsCostModelTimeFromBatchThreadTime)
{
    SpanTotals s;
    s.threads = 2;
    s.runWall = 3.1;
    s.batchWall = 3.0;
    s.simInBatches = 0.5;
    s.simTotal = 0.6; // 0.1 s of final re-costing after the last batch
    EXPECT_DOUBLE_EQ(searchSelfSeconds(s), 5.5);
    EXPECT_DOUBLE_EQ(reconcileShare(s), (5.5 + 0.6) / 6.2);

    // Spans covering only half the run do not reconcile.
    s.batchWall = 1.55;
    s.simInBatches = s.simTotal = 0.0;
    EXPECT_DOUBLE_EQ(reconcileShare(s), 0.5);
}

TEST(Stats, ReportTalliesJobsAndReplacesMetrics)
{
    Report r;
    r.add("wall_s", 1.0, "s", 3);
    r.add("wall_s", 2.0, "s", 4);
    ASSERT_EQ(r.metrics().size(), 1u);
    EXPECT_EQ(r.find("wall_s")->value, 2.0);
    r.job({});
    EXPECT_TRUE(r.correct());
    r.job({"objective differs"});
    EXPECT_EQ(r.attempted(), 2);
    EXPECT_EQ(r.failed(), 1);
    EXPECT_FALSE(r.correct());
    std::string json = r.json();
    EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
    EXPECT_NE(json.find("\"wall_s\": {\"value\": 2, \"unit\": \"s\", "
                        "\"n\": 4}"),
              std::string::npos);
}

TEST(Stats, NonFiniteMetricVoidsTheRun)
{
    Report r;
    r.add("wall_s", kInf, "s");
    EXPECT_FALSE(r.correct());
    EXPECT_EQ(r.failed(), 0);
    EXPECT_NE(r.json().find("\"value\": null"), std::string::npos);
}

TEST(Stats, ValuesKeepAllTheirDigits)
{
    Report r;
    r.add("setup_s", 0.123456789012345678, "s");
    EXPECT_NE(r.json().find("0.12345678901234568"), std::string::npos);
}
