#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "checks.h"
#include "common.h"
#include "core/serialize.h"

using namespace perfbench;

namespace {

/** A small real search and its outcome. */
class ChecksTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string err;
        ASSERT_TRUE(resolveSpec(
            R"({"algo":"ga","model":"GoogleNet","samples":400,"seed":5,)"
            R"("threads":1,"ga":{"population":20}})",
            &r_, &err))
            << err;
        good_ = outcomeOf(makeFramework(r_)->explore(r_.spec));
    }

    std::vector<std::string>
    check(const SearchOutcome &o)
    {
        return checkOutcome(r_.graph, r_.accel, r_.spec, o);
    }

    ResolvedSpec r_;
    SearchOutcome good_;
};

} // namespace

TEST_F(ChecksTest, TrueResultPasses)
{
    EXPECT_TRUE(check(good_).empty());
    EXPECT_EQ(compareOutcomes(good_, good_), "");
}

TEST_F(ChecksTest, DoctoredObjectiveTrips)
{
    SearchOutcome o = good_;
    o.objective = std::nextafter(o.objective, 0.0);
    ASSERT_EQ(check(o).size(), 1u);
    EXPECT_NE(check(o)[0].find("re-costing"), std::string::npos);
    EXPECT_NE(compareOutcomes(o, good_), "");
}

TEST_F(ChecksTest, InvalidPartitionTrips)
{
    SearchOutcome o = good_;
    ASSERT_GT(o.partition.numBlocks, 1);
    // Run the last layer in the first block: precedence breaks.
    o.partition.block.back() = o.partition.block.front();
    ASSERT_EQ(check(o).size(), 1u);
    EXPECT_EQ(check(o)[0], "returned partition is not valid");
    EXPECT_EQ(compareOutcomes(o, good_), "partitions differ");
}

TEST(CacheFile, KeepsAFixedCountOfTheLowestHashes)
{
    cocco::EvalCache cache;
    for (uint64_t i = 1; i <= 40; ++i) {
        cocco::EvalCache::Entry e;
        e.hash = i * 0x9e3779b97f4a7c15ULL;
        e.keyBlock = e.repairedBlock = {0, 1};
        e.numBlocks = 2;
        e.cost = static_cast<double>(i);
        cache.insertEntry(e);
    }
    std::string path =
        ::testing::TempDir() + "perfbench_cache_file_test.evalcache";
    ASSERT_TRUE(saveCacheFile(cache, 10, path));
    cocco::EvalCache loaded;
    EXPECT_EQ(cocco::loadEvalCache(loaded, path), 10);
    std::remove(path.c_str());

    std::vector<uint64_t> all, kept;
    cache.forEachEntry(
        [&](const cocco::EvalCache::Entry &e) { all.push_back(e.hash); });
    loaded.forEachEntry(
        [&](const cocco::EvalCache::Entry &e) { kept.push_back(e.hash); });
    std::sort(all.begin(), all.end());
    std::sort(kept.begin(), kept.end());
    all.resize(10);
    EXPECT_EQ(kept, all);
}

TEST_F(ChecksTest, BufferTooSmallForABlockTrips)
{
    SearchOutcome o = good_;
    // Fuse everything into one block and claim a tiny buffer.
    for (int &b : o.partition.block)
        b = 0;
    o.partition.numBlocks = 1;
    o.buffer.actBytes = o.buffer.weightBytes = o.buffer.sharedBytes = 1024;
    std::vector<std::string> problems = check(o);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("does not fit"), std::string::npos);
    EXPECT_EQ(compareOutcomes(o, good_).empty(), false);
}
