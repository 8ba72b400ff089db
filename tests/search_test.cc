/**
 * @file
 * Tests for the search layer: genome encoding, the GA operators
 * (validity preservation under fuzzing), the GA/SA drivers, the
 * two-step baselines, and the CoccoFramework facade.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/cocco.h"
#include "partition/repair.h"
#include "search/operators.h"
#include "search/sa.h"
#include "search/two_step.h"

using namespace cocco;

namespace {

GaOptions
fastGa(int64_t budget = 600)
{
    GaOptions o;
    o.population = 30;
    o.sampleBudget = budget;
    o.seed = 7;
    return o;
}

/** Six nodes wired as a chain, or as two inputs whose conv branches
 *  meet at an add. */
Graph
sixNodes(bool chain)
{
    auto layer = [](const std::string &name, LayerKind kind) {
        Layer l;
        l.name = name;
        l.kind = kind;
        l.outH = l.outW = 16;
        l.outC = 8;
        l.kernel = kind == LayerKind::Conv ? 3 : 1;
        return l;
    };
    Graph g(chain ? "chain" : "two-branches");
    g.addNode(layer("in", LayerKind::Input));
    if (chain) {
        for (NodeId v = 1; v < 6; ++v)
            g.addNode(layer("conv" + std::to_string(v), LayerKind::Conv),
                      {v - 1});
        return g;
    }
    g.addNode(layer("in2", LayerKind::Input));
    g.addNode(layer("a", LayerKind::Conv), {0});
    g.addNode(layer("b", LayerKind::Conv), {1});
    g.addNode(layer("add", LayerKind::Eltwise), {2, 3});
    g.addNode(layer("out", LayerKind::Conv), {4});
    return g;
}

} // namespace

// --- DseSpace / Genome ------------------------------------------------------

TEST(DseSpace, PaperSpaceGrids)
{
    DseSpace s = DseSpace::paperSpace(BufferStyle::Separate);
    EXPECT_TRUE(s.searchHw);
    EXPECT_EQ(s.actGrid.count, 31);
    EXPECT_EQ(s.weightGrid.count, 31);
    EXPECT_EQ(s.sharedGrid.count, 47);
}

TEST(DseSpace, FixedSpaceFreezesBuffer)
{
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 512 * 1024;
    DseSpace s = DseSpace::fixedSpace(buf);
    EXPECT_FALSE(s.searchHw);

    Genome g;
    g.sharedIdx = 40; // must be ignored
    EXPECT_EQ(g.buffer(s).sharedBytes, 512 * 1024);
}

TEST(Genome, DecodesSeparateBuffers)
{
    DseSpace s = DseSpace::paperSpace(BufferStyle::Separate);
    Genome g;
    g.actIdx = 0;
    g.weightIdx = 1;
    BufferConfig buf = g.buffer(s);
    EXPECT_EQ(buf.actBytes, 128 * 1024);
    EXPECT_EQ(buf.weightBytes, 216 * 1024);
}

TEST(Genome, DecodesSharedBuffer)
{
    DseSpace s = DseSpace::paperSpace(BufferStyle::Shared);
    Genome g;
    g.sharedIdx = 2;
    EXPECT_EQ(g.buffer(s).sharedBytes, 256 * 1024);
}

// --- Operators: validity fuzzing ---------------------------------------------

class OperatorFuzz : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Graph g_ = buildGoogleNet();
    DseSpace space_ = DseSpace::paperSpace(BufferStyle::Separate);
};

TEST_P(OperatorFuzz, RandomGenomeIsValid)
{
    Rng rng(GetParam());
    Genome g = randomGenome(g_, space_, rng);
    EXPECT_TRUE(g.part.valid(g_));
    EXPECT_GE(g.actIdx, 0);
    EXPECT_LT(g.actIdx, space_.actGrid.count);
}

TEST_P(OperatorFuzz, CrossoverPreservesValidity)
{
    Rng rng(GetParam());
    Genome dad = randomGenome(g_, space_, rng);
    Genome mom = randomGenome(g_, space_, rng);
    Genome child = crossover(g_, space_, dad, mom, rng);
    EXPECT_TRUE(child.part.valid(g_));
}

TEST_P(OperatorFuzz, CrossoverAveragesHardware)
{
    Rng rng(GetParam());
    Genome dad = randomGenome(g_, space_, rng);
    Genome mom = randomGenome(g_, space_, rng);
    Genome child = crossover(g_, space_, dad, mom, rng);
    int lo = std::min(dad.actIdx, mom.actIdx);
    int hi = std::max(dad.actIdx, mom.actIdx);
    EXPECT_GE(child.actIdx, lo);
    EXPECT_LE(child.actIdx, hi + 1);
}

TEST_P(OperatorFuzz, MutationsPreserveValidity)
{
    Rng rng(GetParam());
    Genome g = randomGenome(g_, space_, rng);
    for (int i = 0; i < 20; ++i) {
        Genome m = g;
        switch (rng.index(3)) {
          case 0:
            mutateModifyNode(g_, m, rng);
            break;
          case 1:
            mutateSplitSubgraph(g_, m, rng);
            break;
          default:
            mutateMergeSubgraph(g_, m, rng);
        }
        EXPECT_TRUE(m.part.valid(g_));
        g = std::move(m);
    }
}

TEST_P(OperatorFuzz, DseMutationStaysOnGrid)
{
    Rng rng(GetParam());
    Genome g = randomGenome(g_, space_, rng);
    for (int i = 0; i < 50; ++i) {
        mutateDse(space_, g, rng);
        EXPECT_GE(g.actIdx, 0);
        EXPECT_LT(g.actIdx, space_.actGrid.count);
        EXPECT_GE(g.weightIdx, 0);
        EXPECT_LT(g.weightIdx, space_.weightGrid.count);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(Operators, SplitIncreasesBlockCount)
{
    Graph g = buildVGG16();
    Rng rng(3);
    Genome genome;
    genome.part = Partition::fixedRuns(g, g.size()); // one block
    genome.part.canonicalize(g);
    size_t before = genome.part.blocks().size();
    mutateSplitSubgraph(g, genome, rng);
    EXPECT_GT(genome.part.blocks().size(), before);
}

TEST(Operators, MergeDecreasesBlockCountWhenSafe)
{
    Graph g = buildVGG16();
    Rng rng(3);
    Genome genome;
    genome.part = Partition::singletons(g);
    size_t before = genome.part.blocks().size();
    mutateMergeSubgraph(g, genome, rng);
    EXPECT_LT(genome.part.blocks().size(), before);
    EXPECT_TRUE(genome.part.valid(g));
}

// --- GA ------------------------------------------------------------------------

TEST(Ga, ImprovesOverRandomInitialization)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    GeneticSearch search(model, space, fastGa(900));
    SearchResult r = search.run();
    ASSERT_FALSE(r.trace.empty());
    // Cost after the first population should improve by the end.
    double first = r.trace[29].bestCost; // after initial population
    EXPECT_LE(r.bestCost, first);
    EXPECT_LT(r.bestCost, kInfeasiblePenalty);
}

TEST(Ga, TraceIsMonotoneNonIncreasing)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult r = GeneticSearch(model, space, fastGa()).run();
    for (size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i].bestCost, r.trace[i - 1].bestCost);
}

TEST(Ga, RespectsSampleBudget)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions o = fastGa(250);
    SearchResult r = GeneticSearch(model, space, o).run();
    EXPECT_LE(r.samples, 250);
    EXPECT_EQ(static_cast<int64_t>(r.trace.size()), r.samples);
}

TEST(Ga, DeterministicForFixedSeed)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel m1(g, accel), m2(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchResult a = GeneticSearch(m1, space, fastGa()).run();
    SearchResult b = GeneticSearch(m2, space, fastGa()).run();
    EXPECT_DOUBLE_EQ(a.bestCost, b.bestCost);
    EXPECT_EQ(a.best.part.block, b.best.part.block);
}

TEST(Ga, BestGenomeIsValidAndFeasible)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Separate);
    SearchResult r = GeneticSearch(model, space, fastGa()).run();
    EXPECT_TRUE(r.best.part.valid(g));
    EXPECT_TRUE(r.bestGraphCost.feasible);
}

TEST(Ga, InSituTuningSplitsOversizedGenomes)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);

    BufferConfig tiny;
    tiny.style = BufferStyle::Shared;
    tiny.sharedBytes = 128 * 1024;
    DseSpace space = DseSpace::fixedSpace(tiny);

    GeneticSearch search(model, space, fastGa(60));
    Genome one_block;
    one_block.part = Partition::fixedRuns(g, g.size());
    one_block.part.canonicalize(g);
    double cost = search.evaluate(one_block);
    EXPECT_LT(cost, kInfeasiblePenalty);
    EXPECT_GT(one_block.part.blocks().size(), 1u);
}

TEST(Ga, SeededInitializationIsUsed)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = BufferConfig::fixedMedium(BufferStyle::Shared);
    DseSpace space = DseSpace::fixedSpace(buf);

    // Seed with a strong partition; the GA must end at least as good.
    GaOptions o = fastGa(300);
    o.coExplore = false;
    GeneticSearch search(model, space, o);
    Genome seed;
    seed.part = Partition::fixedRuns(g, 3);
    seed.part.canonicalize(g);
    double seed_cost = GeneticSearch(model, space, o).evaluate(seed);
    SearchResult r = search.run({seed});
    EXPECT_LE(r.bestCost, seed_cost);
}

TEST(Ga, RecordPointsCapturesEverySample)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions o = fastGa(120);
    o.recordPoints = true;
    SearchResult r = GeneticSearch(model, space, o).run();
    EXPECT_EQ(static_cast<int64_t>(r.points.size()), r.samples);
    for (const SamplePoint &pt : r.points)
        EXPECT_GT(pt.bufferBytes, 0);
}

TEST(GaDeath, RejectsBadOptions)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions o;
    o.population = 1;
    EXPECT_EXIT(GeneticSearch(model, space, o), ::testing::ExitedWithCode(1),
                "population");
    o.population = 4;
    o.elite = 5;
    EXPECT_EXIT(GeneticSearch(model, space, o), ::testing::ExitedWithCode(1),
                "ga.elite must be in");
}

// --- SA ------------------------------------------------------------------------

TEST(Sa, FindsFeasibleSolution)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SaOptions o;
    o.sampleBudget = 600;
    o.seed = 5;
    SearchResult r = simulatedAnnealing(model, space, o);
    EXPECT_LT(r.bestCost, kInfeasiblePenalty);
    EXPECT_TRUE(r.best.part.valid(g));
    EXPECT_EQ(r.samples, 600);
}

TEST(Sa, TraceMonotone)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SaOptions o;
    o.sampleBudget = 300;
    SearchResult r = simulatedAnnealing(model, space, o);
    for (size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i].bestCost, r.trace[i - 1].bestCost);
}

// --- Two-step baselines -----------------------------------------------------------

TEST(TwoStep, RandomSearchProducesFeasibleResult)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    TwoStepOptions o;
    o.sampleBudget = 600;
    o.samplesPerCandidate = 150;
    o.population = 30;
    SearchResult r = twoStepRandom(model, space, o);
    EXPECT_LT(r.bestCost, kInfeasiblePenalty);
    EXPECT_LE(r.samples, 600);
}

TEST(TwoStep, GridSearchWalksLargeToSmall)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    TwoStepOptions o;
    o.sampleBudget = 600;
    o.samplesPerCandidate = 150;
    o.population = 30;
    SearchResult r = twoStepGrid(model, space, o);
    EXPECT_LT(r.bestCost, kInfeasiblePenalty);
    EXPECT_GT(r.bestBuffer.totalBytes(), 0);
}

// --- Facade -----------------------------------------------------------------------

TEST(Framework, CoExploreSharedEndToEnd)
{
    Graph g = buildGoogleNet();
    CoccoFramework cocco(g, AcceleratorConfig{});
    GaOptions o = fastGa(400);
    CoccoResult r = cocco.coExplore(BufferStyle::Shared, o);
    EXPECT_TRUE(r.cost.feasible);
    EXPECT_GT(r.buffer.sharedBytes, 0);
    EXPECT_TRUE(r.partition.valid(g));
    EXPECT_GT(r.cost.emaBytes, 0);
}

TEST(Framework, PartitionOnlyUsesFixedBuffer)
{
    Graph g = buildGoogleNet();
    CoccoFramework cocco(g, AcceleratorConfig{});
    BufferConfig buf = BufferConfig::fixedMedium(BufferStyle::Separate);
    CoccoResult r = cocco.partitionOnly(buf, fastGa(400));
    EXPECT_EQ(r.buffer.actBytes, buf.actBytes);
    EXPECT_EQ(r.buffer.weightBytes, buf.weightBytes);
    EXPECT_TRUE(r.cost.feasible);
}

TEST(Framework, SeedsEnterUnflagged)
{
    // The canonical flag certifies a partition for the graph it was
    // built on. A seed flagged on another graph of the same size is not
    // trusted: the search repairs it in full, exactly as it does the
    // same seed without the flag.
    const Graph a = sixNodes(true), b = sixNodes(false);
    Partition runs;
    runs.block = {0, 0, 1, 1, 2, 2};
    runs.numBlocks = 3;
    const Partition flagged = repairStructure(a, runs);
    ASSERT_EQ(flagged.block, runs.block);
    ASSERT_TRUE(flagged.canonical());
    ASSERT_FALSE(flagged.isCanonical(b)); // b's two inputs share a block
    Partition plain = flagged;
    plain.block = flagged.block.ids(); // same ids, no flag
    ASSERT_FALSE(plain.canonical());

    CoccoFramework cocco(b, AcceleratorConfig{});
    GaOptions o = fastGa(300);
    o.recordPoints = true;
    const CoccoResult r = cocco.coExplore(BufferStyle::Shared, o, {flagged});
    const CoccoResult ref = cocco.coExplore(BufferStyle::Shared, o, {plain});
    EXPECT_TRUE(r.partition.isCanonical(b));
    EXPECT_EQ(r.partition.block, ref.partition.block);
    EXPECT_EQ(r.objective, ref.objective);
    ASSERT_EQ(r.points.size(), ref.points.size());
    for (size_t i = 0; i < r.points.size(); ++i)
        EXPECT_EQ(r.points[i].metric, ref.points[i].metric) << "sample " << i;
}

TEST(Framework, CoExploreBeatsWorstFixedConfig)
{
    // The headline claim, in miniature: co-exploration should not be
    // worse than the worst fixed-hardware baseline.
    Graph g = buildGoogleNet();
    CoccoFramework cocco(g, AcceleratorConfig{});
    GaOptions o = fastGa(800);
    CoccoResult co = cocco.coExplore(BufferStyle::Shared, o);

    double worst = 0;
    for (auto fixed : {BufferConfig::fixedSmall(BufferStyle::Shared),
                       BufferConfig::fixedMedium(BufferStyle::Shared),
                       BufferConfig::fixedLarge(BufferStyle::Shared)}) {
        CoccoResult r = cocco.partitionOnly(fixed, o);
        double obj = objective(r.cost, fixed, o.alpha, o.metric);
        worst = std::max(worst, obj);
    }
    EXPECT_LE(co.objective, worst);
}
