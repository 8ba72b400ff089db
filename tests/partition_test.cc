/**
 * @file
 * Tests for the partitioning layer: the Partition type, the repair
 * pipeline (structural + in-situ capacity), and the three baseline
 * algorithms (greedy, DP, exact enumeration), including the
 * optimality relations between them on small graphs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "models/models.h"
#include "partition/dp.h"
#include "partition/enumeration.h"
#include "partition/greedy.h"
#include "partition/partition.h"
#include "partition/repair.h"
#include "util/random.h"

using namespace cocco;

namespace {

Layer
mkLayer(const char *name, LayerKind kind, int h, int w, int c, int k = 1,
        int s = 1)
{
    Layer l;
    l.name = name;
    l.kind = kind;
    l.outH = h;
    l.outW = w;
    l.outC = c;
    l.kernel = k;
    l.stride = s;
    return l;
}

/** input -> a -> {b, c} -> d. */
Graph
diamond()
{
    Graph g("diamond");
    g.addNode(mkLayer("in", LayerKind::Input, 16, 16, 8));
    g.addNode(mkLayer("a", LayerKind::Conv, 16, 16, 8, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 16, 16, 8, 3, 1), {1});
    g.addNode(mkLayer("c", LayerKind::Conv, 16, 16, 8, 1, 1), {1});
    g.addNode(mkLayer("d", LayerKind::Eltwise, 16, 16, 8), {2, 3});
    return g;
}

BufferConfig
roomyBuffer()
{
    BufferConfig c;
    c.style = BufferStyle::Separate;
    c.actBytes = 1024 * 1024;
    c.weightBytes = 1152 * 1024;
    return c;
}

} // namespace

// --- Partition type --------------------------------------------------------

TEST(Partition, SingletonsValid)
{
    Graph g = diamond();
    Partition p = Partition::singletons(g);
    EXPECT_TRUE(p.valid(g));
    EXPECT_EQ(p.blocks().size(), 5u);
}

TEST(Partition, FixedRunsCoverAllNodes)
{
    Graph g = diamond();
    Partition p = Partition::fixedRuns(g, 2);
    auto blocks = p.blocks();
    size_t total = 0;
    for (const auto &b : blocks)
        total += b.size();
    EXPECT_EQ(total, static_cast<size_t>(g.size()));
    EXPECT_EQ(blocks.size(), 3u);
}

TEST(Partition, BlockNodesSorted)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 0, 1, 1, 1};
    std::vector<NodeId> b1 = p.blockNodes(1);
    EXPECT_EQ(b1, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Partition, CanonicalizeRenumbersTopologically)
{
    Graph g = diamond();
    Partition p;
    p.block = {7, 3, 3, 3, 9}; // arbitrary ids, valid structure
    p.canonicalize(g);
    EXPECT_EQ(p.block, (std::vector<int>{0, 1, 1, 1, 2}));
    EXPECT_EQ(p.numBlocks, 3);
    EXPECT_TRUE(p.valid(g));
}

TEST(Partition, ValidRejectsPrecedenceViolation)
{
    Graph g = diamond();
    Partition p;
    p.block = {1, 0, 0, 0, 0}; // input after its consumer's block
    EXPECT_FALSE(p.valid(g));
}

TEST(Partition, ValidRejectsDisconnectedBlock)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 0, 1, 1, 2}; // {b, c} are siblings: disconnected
    EXPECT_FALSE(p.valid(g));
}

TEST(Partition, StrShowsBlocks)
{
    Graph g = diamond();
    Partition p = Partition::fixedRuns(g, 5);
    EXPECT_EQ(p.str(), "{0,1,2,3,4}");
}

TEST(PartitionDeath, CanonicalizeOnCyclicQuotient)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 1, 0, 1, 1}; // in+b vs a+c+d: mutual dependencies
    EXPECT_DEATH(p.canonicalize(g), "cyclic quotient");
}

TEST(PartitionDeath, RepairRejectsNegativeIds)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, -1, 1, 1, 2}; // repair's id-indexed scratch needs ids >= 0
    EXPECT_DEATH(repairStructure(g, p), "negative block id");
}

// --- Structural repair -------------------------------------------------------

TEST(Repair, FixesDisconnectedBlocks)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 0, 1, 1, 2}; // {b,c} disconnected
    Partition r = repairStructure(g, p);
    EXPECT_TRUE(r.valid(g));
}

TEST(Repair, FixesCyclicQuotient)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 1, 0, 1, 1};
    Partition r = repairStructure(g, p);
    EXPECT_TRUE(r.valid(g));
}

TEST(Repair, PreservesAlreadyValidPartitions)
{
    Graph g = diamond();
    Partition p;
    p.block = {0, 0, 1, 1, 1};
    ASSERT_TRUE(p.valid(g));
    Partition r = repairStructure(g, p);
    EXPECT_EQ(r.block, p.block);
}

/** Property: repair always yields a valid partition from random junk. */
class RepairFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RepairFuzz, RandomAssignmentsBecomeValid)
{
    Graph g = buildGoogleNet();
    Rng rng(GetParam());
    Partition p;
    p.block.resize(g.size());
    int nb = 1 + static_cast<int>(rng.index(20));
    for (int &b : p.block)
        b = static_cast<int>(rng.index(nb));
    Partition r = repairStructure(g, p);
    EXPECT_TRUE(r.valid(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- Capacity repair (in-situ tuning) ----------------------------------------

TEST(CapacityRepair, SplitsOversizedBlocks)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);

    BufferConfig tiny;
    tiny.style = BufferStyle::Separate;
    tiny.actBytes = 128 * 1024;
    tiny.weightBytes = 144 * 1024;

    // Whole model as one block is far beyond any buffer.
    Partition p = Partition::fixedRuns(g, g.size());
    Partition r = repairToCapacity(g, p, model, tiny);
    EXPECT_TRUE(r.valid(g));
    for (const auto &blk : r.blocks()) {
        if (blk.size() > 1) {
            EXPECT_TRUE(model.fits(blk, tiny));
        }
    }
}

TEST(CapacityRepair, LeavesFittingBlocksAlone)
{
    Graph g = diamond();
    CostModel model(g, {});
    Partition p;
    p.block = {0, 0, 1, 1, 1};
    Partition r = repairToCapacity(g, p, model, roomyBuffer());
    EXPECT_EQ(r.block, p.block);
}

// --- Greedy ------------------------------------------------------------------

TEST(Greedy, ProducesValidPartition)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    Partition p = greedyPartition(g, model, roomyBuffer(), Metric::EMA);
    EXPECT_TRUE(p.valid(g));
}

TEST(Greedy, BeatsOrMatchesSingletons)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = roomyBuffer();
    Partition p = greedyPartition(g, model, buf, Metric::EMA);
    GraphCost greedy = model.partitionCost(p, buf);
    GraphCost single = model.partitionCost(Partition::singletons(g), buf);
    EXPECT_LE(greedy.emaBytes, single.emaBytes);
}

TEST(Greedy, AllBlocksFitBuffer)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = roomyBuffer();
    Partition p = greedyPartition(g, model, buf, Metric::EMA);
    for (const auto &blk : p.blocks())
        EXPECT_TRUE(model.fits(blk, buf));
}

TEST(Greedy, MergesDiamondFullyWithRoomyBuffer)
{
    Graph g = diamond();
    CostModel model(g, {});
    Partition p = greedyPartition(g, model, roomyBuffer(), Metric::EMA);
    // With ample capacity all compute nodes fuse into one subgraph
    // (the zero-cost input placeholder may stay separate).
    EXPECT_EQ(p.block[1], p.block[2]);
    EXPECT_EQ(p.block[1], p.block[3]);
    EXPECT_EQ(p.block[1], p.block[4]);
    EXPECT_LE(p.blocks().size(), 2u);
}

// --- DP ------------------------------------------------------------------------

TEST(Dp, ProducesValidPartition)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    Partition p = dpPartition(g, model, roomyBuffer(), Metric::EMA);
    EXPECT_TRUE(p.valid(g));
}

TEST(Dp, BeatsOrMatchesSingletonsOnChain)
{
    Graph g = buildVGG16();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = roomyBuffer();
    Partition p = dpPartition(g, model, buf, Metric::EMA);
    GraphCost dp = model.partitionCost(p, buf);
    GraphCost single = model.partitionCost(Partition::singletons(g), buf);
    EXPECT_LE(dp.emaBytes, single.emaBytes);
}

TEST(Dp, RespectsMaxRun)
{
    Graph g = buildVGG16();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    Partition p = dpPartition(g, model, roomyBuffer(), Metric::EMA, 2);
    for (const auto &blk : p.blocks())
        EXPECT_LE(blk.size(), 2u);
}

// --- Enumeration -----------------------------------------------------------------

TEST(Enumeration, OptimalOnDiamond)
{
    Graph g = diamond();
    CostModel model(g, {});
    BufferConfig buf = roomyBuffer();
    EnumerationResult r =
        enumeratePartition(g, model, buf, Metric::EMA);
    ASSERT_TRUE(r.complete);
    EXPECT_TRUE(r.best.valid(g));
    // Roomy buffer: fusing all compute nodes is optimal (the input
    // placeholder's block is cost-neutral).
    EXPECT_EQ(r.best.block[1], r.best.block[4]);
    EXPECT_LE(r.best.blocks().size(), 2u);
    GraphCost gc = model.partitionCost(r.best, buf);
    EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(gc.emaBytes));
    // And the optimum hits the Min-EMA floor: weights + in + out.
    EXPECT_EQ(gc.emaBytes,
              g.totalWeightBytes() + g.outBytes(0) + g.outBytes(4));
}

TEST(Enumeration, LowerBoundsGreedyAndDp)
{
    Graph g = buildVGG16();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = roomyBuffer();

    EnumerationResult e = enumeratePartition(g, model, buf, Metric::EMA);
    ASSERT_TRUE(e.complete);
    Partition greedy = greedyPartition(g, model, buf, Metric::EMA);
    Partition dp = dpPartition(g, model, buf, Metric::EMA);

    double g_cost =
        static_cast<double>(model.partitionCost(greedy, buf).emaBytes);
    double d_cost =
        static_cast<double>(model.partitionCost(dp, buf).emaBytes);
    EXPECT_LE(e.cost, g_cost + 1e-6);
    EXPECT_LE(e.cost, d_cost + 1e-6);
}

TEST(Enumeration, BudgetAbortsOnIrregularGraphs)
{
    Graph g = buildRandWire('A', 1);
    AcceleratorConfig accel;
    CostModel model(g, accel);
    EnumerationOptions opts;
    opts.stateBudget = 200;
    opts.candidateBudget = 5000;
    EnumerationResult r =
        enumeratePartition(g, model, roomyBuffer(), Metric::EMA, opts);
    EXPECT_FALSE(r.complete);
}

TEST(Enumeration, TinyBufferForcesSingletons)
{
    Graph g = diamond();
    CostModel model(g, {});
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 16;   // nothing multi-node fits
    buf.weightBytes = 16;
    EnumerationResult r = enumeratePartition(g, model, buf, Metric::EMA);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.best.blocks().size(), static_cast<size_t>(g.size()));
}

// --- Cross-algorithm property sweep over models -------------------------------

class AlgoComparison : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AlgoComparison, AllProduceValidFittingPartitions)
{
    Graph g = buildModel(GetParam());
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = roomyBuffer();

    Partition greedy = greedyPartition(g, model, buf, Metric::EMA);
    Partition dp = dpPartition(g, model, buf, Metric::EMA);
    EXPECT_TRUE(greedy.valid(g));
    EXPECT_TRUE(dp.valid(g));
    for (const auto &blk : greedy.blocks())
        EXPECT_TRUE(model.fits(blk, buf));
    EXPECT_TRUE(model.partitionCost(greedy, buf).feasible);
    EXPECT_TRUE(model.partitionCost(dp, buf).feasible);
}

INSTANTIATE_TEST_SUITE_P(Models, AlgoComparison,
                         ::testing::Values("VGG16", "ResNet50", "GoogleNet",
                                           "Transformer"),
                         [](const auto &info) { return info.param; });
