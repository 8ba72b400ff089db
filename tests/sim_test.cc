/**
 * @file
 * Tests for the cost model: EMA accounting (Figure 1's Min-EMA
 * identity), energy composition, latency roofline, fusion benefits
 * (the Figure 3 effect), multi-core and batch trends (Table 3
 * shapes), and profile memoization, including its fast paths (the
 * one-probe fits, the singleton table, singletons bypassing the block
 * cache), which must give a fresh model's values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/serialize.h"
#include "models/models.h"
#include "sim/cost_model.h"
#include "sim/deployment.h"
#include "sim/multicore.h"
#include "sim/platform.h"
#include "partition/repair.h"
#include "search/eval_cache.h"
#include "search/operators.h"
#include "util/json.h"

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

/** input(32x32x8) -> convA(3x3) -> convB(3x3) chain. */
Graph
chain()
{
    Graph g("chain");
    g.addNode(mkLayer("in", LayerKind::Input, 32, 32, 8));
    g.addNode(mkLayer("a", LayerKind::Conv, 32, 32, 8, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 32, 32, 8, 3, 1), {1});
    return g;
}

BufferConfig
bigSeparate()
{
    BufferConfig c;
    c.style = BufferStyle::Separate;
    c.actBytes = 1024 * 1024;
    c.weightBytes = 1152 * 1024;
    return c;
}

} // namespace

// --- Accelerator configuration -------------------------------------------

TEST(Accelerator, PaperPlatformNumbers)
{
    AcceleratorConfig a;
    EXPECT_EQ(a.macsPerCycle(), 1024); // 4x4 PEs x 8x8 MACs
    EXPECT_NEAR(a.peakTops(), 2.048, 1e-9);
    EXPECT_NEAR(a.dramBytesPerCycle(), 16.0, 1e-9);
}

// --- Platform presets ------------------------------------------------------

namespace {

/** Field-wise equality over everything the cost model reads. */
void
expectSameAccel(const AcceleratorConfig &a, const AcceleratorConfig &b)
{
    EXPECT_EQ(a.peRows, b.peRows);
    EXPECT_EQ(a.peCols, b.peCols);
    EXPECT_EQ(a.macsPerPe, b.macsPerPe);
    EXPECT_DOUBLE_EQ(a.clockGhz, b.clockGhz);
    EXPECT_DOUBLE_EQ(a.dramGBpsPerCore, b.dramGBpsPerCore);
    EXPECT_EQ(a.maxRegions, b.maxRegions);
    EXPECT_EQ(a.channelAlign, b.channelAlign);
    EXPECT_EQ(a.doubleBufferWeights, b.doubleBufferWeights);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_DOUBLE_EQ(a.crossbarBytesPerCycle, b.crossbarBytesPerCycle);
    EXPECT_DOUBLE_EQ(a.energy.dramPjPerByte, b.energy.dramPjPerByte);
    EXPECT_DOUBLE_EQ(a.energy.sramBasePjPerByte,
                     b.energy.sramBasePjPerByte);
    EXPECT_DOUBLE_EQ(a.energy.sramSlopePjPerByte,
                     b.energy.sramSlopePjPerByte);
    EXPECT_DOUBLE_EQ(a.energy.macPj, b.energy.macPj);
    EXPECT_DOUBLE_EQ(a.energy.crossbarPjPerByte,
                     b.energy.crossbarPjPerByte);
    EXPECT_DOUBLE_EQ(a.energy.sramAreaMm2PerMB,
                     b.energy.sramAreaMm2PerMB);
}

} // namespace

TEST(Platform, SimbaPresetIsThePaperPlatform)
{
    expectSameAccel(platformPreset("simba"), AcceleratorConfig{});
}

TEST(Platform, BuiltinPresetsRegistered)
{
    const PlatformRegistry &reg = PlatformRegistry::instance();
    std::vector<std::string> keys = reg.keys();
    ASSERT_GE(keys.size(), 4u);
    EXPECT_EQ(keys[0], "simba");
    for (const std::string &k : keys) {
        EXPECT_TRUE(reg.contains(k));
        EXPECT_FALSE(reg.summary(k).empty());
        AcceleratorConfig c;
        EXPECT_TRUE(reg.find(k, &c));
        EXPECT_GT(c.peakTops(), 0.0);
    }
    EXPECT_TRUE(reg.contains("edge"));
    EXPECT_TRUE(reg.contains("cloud"));
    EXPECT_EQ(platformPreset("simba-x4").cores, 4);
}

TEST(Platform, UnknownPresetIsACleanUserError)
{
    // Lookup: a false return, never a crash.
    const PlatformRegistry &reg = PlatformRegistry::instance();
    AcceleratorConfig c;
    EXPECT_FALSE(reg.contains("tpu"));
    EXPECT_FALSE(reg.find("tpu", &c));

    // Resolution: an error message naming the known presets.
    PlatformSpec spec;
    spec.preset = "tpu";
    std::string err;
    EXPECT_FALSE(resolvePlatform(spec, &c, &err));
    EXPECT_NE(err.find("unknown platform"), std::string::npos);
    EXPECT_NE(err.find("simba"), std::string::npos);
}

TEST(PlatformDeath, PresetHelperIsFatalWithKnownList)
{
    EXPECT_EXIT(platformPreset("tpu"), ::testing::ExitedWithCode(1),
                "unknown platform");
}

TEST(Platform, JsonRoundTripEveryPreset)
{
    for (const std::string &name : PlatformRegistry::instance().keys()) {
        AcceleratorConfig preset = platformPreset(name);
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(acceleratorToJson(preset), &doc, &err))
            << name << ": " << err;
        AcceleratorConfig copy;
        ASSERT_TRUE(acceleratorFromJson(doc, &copy, &err))
            << name << ": " << err;
        expectSameAccel(copy, preset);
    }
}

TEST(Platform, JsonBaseAndOverrides)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(R"({"base": "edge", "cores": 2})", &doc, &err));
    AcceleratorConfig c;
    ASSERT_TRUE(acceleratorFromJson(doc, &c, &err)) << err;
    EXPECT_EQ(c.peRows, 2);                 // from the edge base
    EXPECT_DOUBLE_EQ(c.dramGBpsPerCore, 8.0);
    EXPECT_EQ(c.cores, 2);                  // the override
}

TEST(Platform, JsonRejectsMalformedDocuments)
{
    auto reject = [](const char *text, const char *needle) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(text, &doc, &err)) << err;
        AcceleratorConfig c;
        EXPECT_FALSE(acceleratorFromJson(doc, &c, &err)) << text;
        EXPECT_NE(err.find(needle), std::string::npos) << err;
    };
    reject(R"({"peRowz": 4})", "peRowz");            // unknown key
    reject(R"({"peRows": "four"})", "peRows");       // type mismatch
    reject(R"({"peRows": 0})", ">= 1");              // domain
    reject(R"({"clockGhz": -1.0})", "> 0");          // domain
    reject(R"({"base": "tpu"})", "unknown platform"); // bad base
    reject(R"({"energy": {"macPj": -0.1}})", ">= 0"); // negative energy
    reject(R"({"energy": {"watts": 1}})", "watts");  // unknown energy key
    reject(R"({"batch": 2.5})", "integer");          // non-integer
}

TEST(Platform, DuplicateKeysAreErrors)
{
    // The file's second "cores" used to win.
    const std::string path = ::testing::TempDir() + "cocco_dup_platform.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"base\": \"simba\", \"cores\": 2, \"cores\": 1}\n", f);
    std::fclose(f);
    AcceleratorConfig c;
    std::string err;
    EXPECT_FALSE(loadPlatformJson(path, &c, &err));
    EXPECT_NE(err.find("duplicate key \"cores\""), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Platform, FileRoundTripAndResolution)
{
    AcceleratorConfig cloud = platformPreset("cloud");
    std::string path = ::testing::TempDir() + "cocco_platform_rt.json";
    ASSERT_TRUE(savePlatformJson(cloud, path));

    AcceleratorConfig loaded;
    std::string err;
    ASSERT_TRUE(loadPlatformJson(path, &loaded, &err)) << err;
    expectSameAccel(loaded, cloud);

    // The same file through the spec resolver.
    PlatformSpec spec;
    spec.file = path;
    AcceleratorConfig resolved;
    ASSERT_TRUE(resolvePlatform(spec, &resolved, &err)) << err;
    expectSameAccel(resolved, cloud);
    std::remove(path.c_str());
}

TEST(Platform, ResolveDefaultsToSimbaAndRejectsConflicts)
{
    PlatformSpec spec;
    AcceleratorConfig c;
    std::string err;
    ASSERT_TRUE(resolvePlatform(spec, &c, &err)) << err;
    expectSameAccel(c, AcceleratorConfig{});

    spec.preset = "simba";
    spec.file = "also-a-file.json";
    EXPECT_FALSE(resolvePlatform(spec, &c, &err));
    EXPECT_NE(err.find("not several"), std::string::npos);
}

// --- Subgraph profiles ----------------------------------------------------

TEST(Profile, SingleLayerInOutWeights)
{
    Graph g = chain();
    CostModel model(g, {});
    const SubgraphProfile &p = model.profile({1});
    EXPECT_EQ(p.inBytes, 32LL * 32 * 8);
    EXPECT_EQ(p.outBytes, 32LL * 32 * 8);
    EXPECT_EQ(p.weightBytes, 3LL * 3 * 8 * 8);
    EXPECT_EQ(p.macs, g.macs(1));
    EXPECT_EQ(p.nodeCount, 1);
}

TEST(Profile, FusedPairHidesIntermediate)
{
    Graph g = chain();
    CostModel model(g, {});
    const SubgraphProfile &p = model.profile({1, 2});
    // Input of the pair is the graph input; output is b; a's tensor
    // never leaves the chip.
    EXPECT_EQ(p.inBytes, 32LL * 32 * 8);
    EXPECT_EQ(p.outBytes, 32LL * 32 * 8);
    EXPECT_EQ(p.weightBytes, 2LL * 3 * 3 * 8 * 8);
}

TEST(Profile, BoundaryInputsAndEscapingOutputs)
{
    // in -> a -> {b, c} -> d: a feeds b and c, d is the model output.
    Graph g("diamond");
    g.addNode(mkLayer("in", LayerKind::Input, 16, 16, 8));
    g.addNode(mkLayer("a", LayerKind::Conv, 16, 16, 8, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 16, 16, 8, 3, 1), {1});
    g.addNode(mkLayer("c", LayerKind::Conv, 16, 16, 8, 1, 1), {1});
    g.addNode(mkLayer("d", LayerKind::Eltwise, 16, 16, 8), {2, 3});
    CostModel model(g, {});
    auto bytes = [&](std::initializer_list<NodeId> vs) {
        int64_t n = 0;
        for (NodeId v : vs)
            n += g.outBytes(v);
        return n;
    };
    struct Case
    {
        std::vector<NodeId> nodes;
        int64_t in, out;
    };
    const Case cases[] = {
        {{2, 3, 4}, bytes({1}), bytes({4})},
        {{1}, bytes({0}), bytes({1})},
        // The model input alone: nothing consumes it here, and it
        // lives in DRAM already.
        {{0}, 0, 0},
        {{4}, bytes({2, 3}), bytes({4})},
        // A fused model input is still loaded; a escapes to b and c.
        {{0, 1}, bytes({0}), bytes({1})},
        {{1, 2}, bytes({0}), bytes({1, 2})},
    };
    for (const Case &c : cases) {
        const BoundProfile &bp = model.boundProfile(c.nodes);
        EXPECT_EQ(bp.inBytes, c.in) << c.nodes.front();
        EXPECT_EQ(bp.outBytes, c.out) << c.nodes.front();
        const SubgraphProfile &p = model.profile(c.nodes);
        EXPECT_EQ(p.inBytes, c.in) << c.nodes.front();
        EXPECT_EQ(p.outBytes, c.out) << c.nodes.front();
    }
}

TEST(Profile, MemoizationReturnsSameObject)
{
    Graph g = chain();
    CostModel model(g, {});
    const SubgraphProfile &p1 = model.profile({1, 2});
    const SubgraphProfile &p2 = model.profile({2, 1}); // order-insensitive
    EXPECT_EQ(&p1, &p2);
    EXPECT_EQ(model.cacheSize(), 1u);

    // Singletons come from the per-node table once memoized: the
    // memo's own object, and each node's own profile.
    for (int pass = 0; pass < 2; ++pass)
        for (NodeId v = 0; v < g.size(); ++v) {
            const SubgraphProfile &p = model.profile({v});
            EXPECT_EQ(&p, &model.profile({v}));
            EXPECT_EQ(p.macs, g.macs(v));
            EXPECT_EQ(p.weightBytes, g.weightBytes(v));
        }
    EXPECT_EQ(model.cacheSize(), 1u + g.size());
}

// --- EMA accounting --------------------------------------------------------

TEST(Ema, MinEmaIdentityForWholeGraphFusion)
{
    // Figure 1 (right): with a buffer large enough for everything,
    // EMA = weights + model input + model output.
    Graph g = chain();
    AcceleratorConfig accel;
    CostModel model(g, accel);

    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 64 * 1024 * 1024;

    SubgraphCost c = model.subgraphCost({1, 2}, buf);
    ASSERT_TRUE(c.feasible);
    EXPECT_EQ(c.emaBytes,
              g.totalWeightBytes() + g.outBytes(0) + g.outBytes(2));
}

TEST(Ema, LayerwiseWritesIntermediates)
{
    Graph g = chain();
    CostModel model(g, {});
    BufferConfig buf = bigSeparate();

    int64_t fused = model.subgraphCost({1, 2}, buf).emaBytes;
    int64_t split = model.subgraphCost({1}, buf).emaBytes +
                    model.subgraphCost({2}, buf).emaBytes;
    // Split pays the intermediate tensor twice (store + reload).
    EXPECT_EQ(split - fused, 2 * g.outBytes(1));
}

TEST(Ema, MultiConsumerTensorReloadedPerSubgraph)
{
    Graph g("fork");
    g.addNode(mkLayer("in", LayerKind::Input, 16, 16, 8));
    g.addNode(mkLayer("a", LayerKind::Conv, 16, 16, 8, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 16, 16, 8, 3, 1), {1});
    g.addNode(mkLayer("c", LayerKind::Conv, 16, 16, 8, 3, 1), {1});
    CostModel model(g, {});
    BufferConfig buf = bigSeparate();

    // a executed alone; b and c each reload a's tensor.
    int64_t ema_b = model.subgraphCost({2}, buf).emaBytes;
    int64_t ema_c = model.subgraphCost({3}, buf).emaBytes;
    EXPECT_EQ(model.profile({2}).inBytes, g.outBytes(1));
    EXPECT_EQ(model.profile({3}).inBytes, g.outBytes(1));
    EXPECT_GT(ema_b + ema_c, 2 * g.outBytes(1));
}

TEST(Ema, OversizedSingletonWeightsPayReload)
{
    // FC layer with weights far beyond the weight buffer.
    Graph g("fat");
    g.addNode(mkLayer("in", LayerKind::Input, 1, 1, 4096));
    g.addNode(mkLayer("fc", LayerKind::Conv, 1, 1, 4096, 1, 1), {0});
    CostModel model(g, {});

    BufferConfig small;
    small.style = BufferStyle::Separate;
    small.actBytes = 256 * 1024;
    small.weightBytes = 144 * 1024;

    BufferConfig large;
    large.style = BufferStyle::Separate;
    large.actBytes = 256 * 1024;
    large.weightBytes = 32 * 1024 * 1024;

    SubgraphCost c_small = model.subgraphCost({1}, small);
    SubgraphCost c_large = model.subgraphCost({1}, large);
    EXPECT_TRUE(c_small.feasible); // singletons always executable
    EXPECT_GT(c_small.emaBytes, c_large.emaBytes);
}

// --- Feasibility -----------------------------------------------------------

TEST(Feasibility, MultiNodeRejectedWhenWeightsOverflow)
{
    Graph g = chain();
    CostModel model(g, {});
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 1024 * 1024;
    buf.weightBytes = 512; // less than the two convs' 1152 B
    EXPECT_FALSE(model.fits({1, 2}, buf));
    EXPECT_TRUE(model.fits({1}, buf)); // singleton fallback
}

TEST(Feasibility, SharedBufferCountsActsPlusWeights)
{
    Graph g = chain();
    CostModel model(g, {});
    const SubgraphProfile &p = model.profile({1, 2});

    BufferConfig just_enough;
    just_enough.style = BufferStyle::Shared;
    just_enough.sharedBytes = p.actFootprintBytes + p.weightBytes;
    EXPECT_TRUE(model.fits({1, 2}, just_enough));

    BufferConfig too_small = just_enough;
    too_small.sharedBytes -= 1;
    EXPECT_FALSE(model.fits({1, 2}, too_small));
}

TEST(Feasibility, RegionLimitEnforced)
{
    // A 70-layer chain exceeds the 64-region manager as one subgraph.
    Graph g("long");
    g.addNode(mkLayer("in", LayerKind::Input, 8, 8, 4));
    for (int i = 0; i < 70; ++i)
        g.addNode(mkLayer(("c" + std::to_string(i)).c_str(),
                          LayerKind::Conv, 8, 8, 4, 1, 1),
                  {i});
    CostModel model(g, {});
    std::vector<NodeId> all;
    for (NodeId v = 1; v < g.size(); ++v)
        all.push_back(v);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 64 * 1024 * 1024;
    EXPECT_FALSE(model.fits(all, buf));
}

// --- Energy ----------------------------------------------------------------

TEST(Energy, ComposedOfDramSramMacTerms)
{
    Graph g = chain();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = bigSeparate();

    SubgraphCost c = model.subgraphCost({1, 2}, buf);
    const SubgraphProfile &p = model.profile({1, 2});
    double dram = accel.energy.dramEnergyPj(c.emaBytes);
    double mac = accel.energy.macEnergyPj(p.macs);
    EXPECT_GT(c.energyPj, dram + mac);
    EXPECT_LT(c.energyPj, 2.0 * (dram + mac) + 1e6);
}

TEST(Energy, LargerBufferCostsMorePerAccess)
{
    Graph g = chain();
    CostModel model(g, {});

    BufferConfig small = bigSeparate();
    small.actBytes = 128 * 1024;
    BufferConfig large = bigSeparate();
    large.actBytes = 2048 * 1024;

    // Same EMA/work; only SRAM access energy changes.
    SubgraphCost cs = model.subgraphCost({1}, small);
    SubgraphCost cl = model.subgraphCost({1}, large);
    ASSERT_EQ(cs.emaBytes, cl.emaBytes);
    EXPECT_LT(cs.energyPj, cl.energyPj);
}

// --- Latency ----------------------------------------------------------------

TEST(Latency, RooflineMaxOfComputeAndComm)
{
    Graph g = chain();
    CostModel model(g, {});
    SubgraphCost c = model.subgraphCost({1, 2}, bigSeparate());
    EXPECT_DOUBLE_EQ(c.latencyCycles,
                     std::max(c.computeCycles, c.commCycles));
}

TEST(Latency, ResNet50ComputeBoundNearFourMs)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    std::vector<NodeId> all;
    for (NodeId v = 0; v < g.size(); ++v)
        if (!g.isInput(v))
            all.push_back(v);
    // Compute cycles for the whole model: ~4.1 GMACs / 1024 per cycle.
    double cycles = 0;
    for (NodeId v : all)
        cycles += static_cast<double>(g.macs(v));
    cycles /= accel.macsPerCycle();
    EXPECT_NEAR(cycles / 1e6, 4.0, 0.6); // ~4 ms at 1 GHz
}

// --- Partition-level aggregation --------------------------------------------

TEST(PartitionCost, SumsSubgraphs)
{
    Graph g = chain();
    CostModel model(g, {});
    BufferConfig buf = bigSeparate();

    Partition p = Partition::singletons(g);
    GraphCost gc = model.partitionCost(p, buf);
    EXPECT_TRUE(gc.feasible);
    EXPECT_EQ(gc.subgraphs, 3);

    int64_t manual = model.subgraphCost({0}, buf).emaBytes +
                     model.subgraphCost({1}, buf).emaBytes +
                     model.subgraphCost({2}, buf).emaBytes;
    EXPECT_EQ(gc.emaBytes, manual);
}

TEST(PartitionCost, FusionReducesEmaOnRealModels)
{
    // The Figure 3 effect: L=3 fusion beats layer-level execution.
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = bigSeparate();

    GraphCost l1 = model.partitionCost(Partition::singletons(g), buf);
    GraphCost l3 = model.partitionCost(Partition::fixedRuns(g, 3), buf);
    ASSERT_TRUE(l1.feasible);
    EXPECT_LT(l3.emaBytes, l1.emaBytes);
}

TEST(PartitionCost, AvgBandwidthConsistent)
{
    Graph g = chain();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    GraphCost gc =
        model.partitionCost(Partition::singletons(g), bigSeparate());
    double expect = static_cast<double>(gc.emaBytes) / gc.latencyCycles *
                    accel.clockGhz;
    EXPECT_DOUBLE_EQ(gc.avgBwGBps, expect);
}

TEST(PartitionCost, MetricValueSelectsAxis)
{
    Graph g = chain();
    CostModel model(g, {});
    GraphCost gc =
        model.partitionCost(Partition::singletons(g), bigSeparate());
    EXPECT_EQ(gc.metricValue(Metric::EMA),
              static_cast<double>(gc.emaBytes));
    EXPECT_EQ(gc.metricValue(Metric::Energy), gc.energyPj);
}

// --- Formula 2 objective -----------------------------------------------------

TEST(Objective, LinearInBufferAndMetric)
{
    GraphCost gc;
    gc.feasible = true;
    gc.energyPj = 1e9;
    gc.emaBytes = 1000;
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 500000;
    EXPECT_DOUBLE_EQ(objective(gc, buf, 0.002, Metric::Energy),
                     500000 + 0.002 * 1e9);
    EXPECT_DOUBLE_EQ(objective(gc, buf, 1.0, Metric::EMA), 501000.0);
}

TEST(Objective, InfeasiblePenalized)
{
    GraphCost gc;
    gc.feasible = false;
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 1;
    EXPECT_GE(objective(gc, buf, 0.002, Metric::Energy),
              kInfeasiblePenalty);
}

// --- Batch trends (Table 3 shapes) -------------------------------------------

class BatchSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BatchSweep, WeightsAmortizeAcrossBatch)
{
    int batch = GetParam();
    Graph g = chain();
    AcceleratorConfig accel;
    accel.batch = batch;
    CostModel model(g, accel);
    BufferConfig buf = bigSeparate();

    AcceleratorConfig accel1;
    CostModel model1(g, accel1);

    SubgraphCost cb = model.subgraphCost({1, 2}, buf);
    SubgraphCost c1 = model1.subgraphCost({1, 2}, buf);
    // EMA grows sub-linearly: activations scale, weights do not.
    if (batch > 1) {
        EXPECT_LT(cb.emaBytes, batch * c1.emaBytes);
    }
    EXPECT_GE(cb.emaBytes, c1.emaBytes);
    // Energy likewise.
    if (batch > 1) {
        EXPECT_LT(cb.energyPj, batch * c1.energyPj);
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep, ::testing::Values(1, 2, 4, 8));

// --- Multi-core trends --------------------------------------------------------

class CoreSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CoreSweep, LatencyDropsEnergyRises)
{
    int cores = GetParam();
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    accel.cores = cores;
    CostModel model(g, accel);

    AcceleratorConfig base;
    CostModel model1(g, base);

    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 1024 * 1024;

    // Layer-level partition: always feasible on every core count.
    Partition p = Partition::singletons(g);
    GraphCost multi = model.partitionCost(p, buf);
    GraphCost single = model1.partitionCost(p, buf);
    ASSERT_TRUE(multi.feasible);
    if (cores > 1) {
        EXPECT_LT(multi.latencyCycles, single.latencyCycles);
        EXPECT_GT(multi.latencyCycles, single.latencyCycles / (2.0 * cores));
        EXPECT_GT(multi.energyPj, single.energyPj);
    } else {
        EXPECT_DOUBLE_EQ(multi.energyPj, single.energyPj);
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreSweep, ::testing::Values(1, 2, 4));

TEST(Multicore, CrossbarTermsVanishOnSingleCore)
{
    SubgraphProfile prof;
    prof.weightBytes = 1000;
    prof.inBytes = 500;
    AcceleratorConfig accel;
    accel.cores = 1;
    EXPECT_EQ(crossbarBytes(prof, accel), 0);
    EXPECT_DOUBLE_EQ(crossbarEnergyPj(prof, accel), 0.0);
    EXPECT_DOUBLE_EQ(crossbarCycles(prof, accel), 0.0);
}

TEST(Multicore, CrossbarTrafficScalesWithHops)
{
    SubgraphProfile prof;
    prof.weightBytes = 1000;
    prof.inBytes = 500;
    AcceleratorConfig accel;
    accel.cores = 4;
    accel.batch = 1;
    EXPECT_EQ(crossbarBytes(prof, accel), (1000 + 500) * 3);
}

TEST(Multicore, WeightShardingEnablesSmallerBuffers)
{
    // A weight-heavy two-layer subgraph that misses the weight budget
    // on one core but fits when sharded across four.
    Graph g("heavy");
    g.addNode(mkLayer("in", LayerKind::Input, 8, 8, 64));
    g.addNode(mkLayer("a", LayerKind::Conv, 8, 8, 64, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 8, 8, 64, 3, 1), {1});

    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 256 * 1024;
    buf.weightBytes = 40 * 1024; // < 2 * 36KB of weights

    AcceleratorConfig one;
    CostModel m1(g, one);
    EXPECT_FALSE(m1.fits({1, 2}, buf));

    AcceleratorConfig four;
    four.cores = 4;
    CostModel m4(g, four);
    EXPECT_TRUE(m4.fits({1, 2}, buf));
}

// --- Peak bandwidth (weight prefetch) ---------------------------------------

TEST(PeakBw, AtLeastAverage)
{
    Graph g = buildResNet50();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = bigSeparate();
    GraphCost gc = model.partitionCost(Partition::fixedRuns(g, 3), buf);
    EXPECT_GE(gc.peakBwGBps, 0.0);
    EXPECT_GT(gc.peakBwGBps, 0.5 * gc.avgBwGBps);
}

TEST(PeakBw, PrefetchRaisesDemand)
{
    // Two singleton subgraphs: the first window carries the second's
    // weights as prefetch, so its peak demand exceeds its own I/O
    // alone.
    Graph g = chain();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf = bigSeparate();

    Partition p = Partition::singletons(g);
    GraphCost gc = model.partitionCost(p, buf);

    const SubgraphProfile &first = model.profile({1});
    SubgraphCost c1 = model.subgraphCost({1}, buf);
    double own = static_cast<double>(first.inBytes + first.outBytes) /
                 c1.latencyCycles * accel.clockGhz;
    EXPECT_GT(gc.peakBwGBps, own);
}

TEST(PeakBw, SingleSubgraphHasNoPrefetchTerm)
{
    Graph g = chain();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 32 * 1024 * 1024;

    Partition p;
    p.block = {0, 0, 0};
    p.numBlocks = 1;
    GraphCost gc = model.partitionCost(p, buf);
    const SubgraphProfile &prof = model.profile({0, 1, 2});
    SubgraphCost c = model.subgraphCost({0, 1, 2}, buf);
    double expect = static_cast<double>(prof.inBytes + prof.outBytes) /
                    c.latencyCycles * accel.clockGhz;
    EXPECT_NEAR(gc.peakBwGBps, expect, 1e-9);
}

// --- Double-buffered weight prefetch ----------------------------------------

TEST(DoubleBuffer, AdjacentWeightsMustCoReside)
{
    Graph g = chain();
    AcceleratorConfig strict;
    strict.doubleBufferWeights = true;
    CostModel model(g, strict);

    // Each conv has 576 B of weights; singleton blocks need
    // 2 x 576 = 1152 B co-resident under strict prefetch.
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 1024 * 1024;
    buf.weightBytes = 1151;
    Partition p = Partition::singletons(g);
    EXPECT_FALSE(model.partitionCost(p, buf).feasible);

    buf.weightBytes = 1152;
    EXPECT_TRUE(model.partitionCost(p, buf).feasible);

    // The default (banked prefetch) platform accepts the small buffer.
    AcceleratorConfig relaxed;
    CostModel model2(g, relaxed);
    buf.weightBytes = 600;
    EXPECT_TRUE(model2.partitionCost(p, buf).feasible);
}

TEST(DoubleBuffer, RepairSplitsHeavyNeighbours)
{
    Graph g = buildResNet50();
    AcceleratorConfig strict;
    strict.doubleBufferWeights = true;
    CostModel model(g, strict);

    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 1024 * 1024;
    // Large enough that every violating pair is repairable by
    // splitting (ResNet50's worst adjacent singletons hold ~3.4MB).
    buf.weightBytes = 3584 * 1024;

    Partition p = Partition::fixedRuns(g, 8);
    p = repairToCapacity(g, std::move(p), model, buf);
    EXPECT_TRUE(p.valid(g));
    // After repair, every adjacent pair of blocks fits the strict
    // constraint.
    auto blocks = p.blocks();
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        int64_t pair = model.profile(blocks[i]).weightBytes +
                       model.profile(blocks[i + 1]).weightBytes;
        EXPECT_LE(pair, buf.weightBytes) << "pair " << i;
    }
    EXPECT_TRUE(model.partitionCost(p, buf).feasible);
}

TEST(DoubleBuffer, StrictModeNeverBeatsRelaxed)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig strict;
    strict.doubleBufferWeights = true;
    CostModel strict_model(g, strict);
    CostModel relaxed_model(g, {});

    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 512 * 1024;
    buf.weightBytes = 288 * 1024;

    Partition p = Partition::fixedRuns(g, 4);
    Partition ps = repairToCapacity(g, p, strict_model, buf);
    Partition pr = repairToCapacity(g, p, relaxed_model, buf);
    GraphCost cs = strict_model.partitionCost(ps, buf);
    GraphCost cr = relaxed_model.partitionCost(pr, buf);
    if (cs.feasible && cr.feasible) {
        // Strict prefetch can only force more (or equal) splitting.
        EXPECT_GE(cs.subgraphs, cr.subgraphs);
        EXPECT_GE(cs.emaBytes, cr.emaBytes);
    }
}

// --- Memo fast paths --------------------------------------------------------

namespace {

/** Tight to roomy, both buffer styles. */
std::vector<BufferConfig>
memoBuffers()
{
    std::vector<BufferConfig> out;
    for (int64_t kib : {64, 512, 4096}) {
        BufferConfig b;
        b.style = BufferStyle::Shared;
        b.sharedBytes = kib * 1024;
        out.push_back(b);
    }
    for (auto [act, wgt] : {std::pair{32, 64}, std::pair{512, 1024}}) {
        BufferConfig b;
        b.style = BufferStyle::Separate;
        b.actBytes = act * 1024;
        b.weightBytes = wgt * 1024;
        out.push_back(b);
    }
    return out;
}

/** Partitions mixing singletons and multi-node blocks: fixed runs and
 *  capacity-repaired random genomes. */
std::vector<Partition>
memoPartitions(const Graph &g)
{
    std::vector<Partition> out;
    for (int run : {1, 2, 3, 5}) {
        Partition p = Partition::fixedRuns(g, run);
        out.push_back(repairStructure(g, p));
    }
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(41);
    for (int i = 0; i < 4; ++i) {
        Genome x = randomGenome(g, space, rng);
        out.push_back(
            repairToCapacity(g, x.part, model, x.buffer(space)));
    }
    return out;
}

void
expectSameCost(const GraphCost &got, const GraphCost &want,
               const std::string &what)
{
    EXPECT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.subgraphs, want.subgraphs) << what;
    EXPECT_EQ(got.emaBytes, want.emaBytes) << what;
    EXPECT_EQ(got.energyPj, want.energyPj) << what;
    EXPECT_EQ(got.latencyCycles, want.latencyCycles) << what;
    EXPECT_EQ(got.avgBwGBps, want.avgBwGBps) << what;
    EXPECT_EQ(got.peakBwGBps, want.peakBwGBps) << what;
}

} // namespace

TEST(MemoFastPaths, FitsMatchesAFreshModelBeforeAndAfterMemoization)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    std::vector<std::vector<NodeId>> blocks;
    for (const Partition &p : memoPartitions(g))
        for (auto &blk : p.blocks())
            if (std::find(blocks.begin(), blocks.end(), blk) ==
                blocks.end())
                blocks.push_back(std::move(blk));

    int singletons = 0, rejected = 0;
    for (bool prune : {true, false}) {
        for (const BufferConfig &buf : memoBuffers()) {
            for (const auto &blk : blocks) {
                CostModel fresh(g, accel);
                const bool want = fresh.fits(blk, buf);

                // Before the block's profile is memoized, then after.
                CostModel m(g, accel);
                m.setPruning(prune);
                uint64_t s0 = m.pruneStats().fitsShortCircuits;
                EXPECT_EQ(m.fits(blk, buf), want) << "cold";
                uint64_t cold = m.pruneStats().fitsShortCircuits - s0;
                m.profile(blk);
                s0 = m.pruneStats().fitsShortCircuits;
                EXPECT_EQ(m.fits(blk, buf), want) << "warm";
                uint64_t warm = m.pruneStats().fitsShortCircuits - s0;
                // The weight screen counts alike either way.
                EXPECT_EQ(cold, warm);
                if (!prune || blk.size() == 1) {
                    EXPECT_EQ(cold, prune ? 1u : 0u);
                }
                singletons += blk.size() == 1;
                rejected += !want;
            }
        }
    }
    EXPECT_GT(singletons, 0);
    EXPECT_GT(rejected, 0);
}

TEST(MemoFastPaths, PartitionCostMatchesAFreshModelThroughEveryHook)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    std::vector<Partition> parts = memoPartitions(g);
    for (bool prune : {true, false}) {
        CostModel model(g, accel);
        model.setPruning(prune);
        EvalCache cache(256);
        EvalCache::BlockView view = cache.blockView(/*salt=*/7);
        for (const BufferConfig &buf : memoBuffers())
            for (size_t i = 0; i < parts.size(); ++i) {
                CostModel fresh(g, accel);
                GraphCost want = fresh.partitionCost(parts[i], buf);
                std::string what = "partition " + std::to_string(i);
                expectSameCost(model.partitionCost(parts[i], buf), want,
                               what + " no hook");
                // Cold, then served from the block cache.
                for (int rep = 0; rep < 2; ++rep)
                    expectSameCost(model.partitionCost(parts[i], buf, &view),
                                   want, what + " block view");
            }
        // Only multi-node blocks reach the block cache.
        EvalCacheStats st = cache.stats();
        uint64_t multi = 0;
        for (const Partition &p : parts)
            for (const auto &blk : p.blocks())
                multi += blk.size() > 1;
        EXPECT_GT(st.blockHits, 0u);
        EXPECT_LE(st.blockEntries, multi * memoBuffers().size());
    }
}

TEST(CostScope, ObjectiveCompletesAFeasiblePartition)
{
    // A frontier point reads feasible, energy, latency and the metric,
    // so Objective scope must produce them in full for a feasible
    // partition: on one core, a heterogeneous deployment and a
    // double-buffered platform.
    Graph g = buildGoogleNet();
    AcceleratorConfig prefetch;
    prefetch.doubleBufferWeights = true;
    DeploymentSpec bl;
    bl.enabled = true;
    bl.preset = "big-little";
    DeploymentConfig dep;
    std::string err;
    ASSERT_TRUE(resolveDeployment(bl, AcceleratorConfig{}, &dep, &err))
        << err;
    CostModel simba(g, AcceleratorConfig{});
    DeploymentCostModel mixed(g, dep);
    CostModel buffered(g, prefetch);
    const std::vector<Partition> parts = memoPartitions(g);
    for (CostModel *model : {&simba, static_cast<CostModel *>(&mixed),
                             &buffered}) {
        int feasible = 0;
        for (const BufferConfig &buf : memoBuffers())
            for (const Partition &p : parts) {
                const GraphCost full = model->partitionCost(p, buf);
                const GraphCost obj = model->partitionCost(
                    p, buf, nullptr, CostModel::CostScope::Objective);
                EXPECT_EQ(obj.feasible, full.feasible);
                if (!full.feasible)
                    continue;
                ++feasible;
                EXPECT_EQ(obj.subgraphs, full.subgraphs);
                EXPECT_EQ(obj.emaBytes, full.emaBytes);
                EXPECT_EQ(obj.energyPj, full.energyPj);
                EXPECT_EQ(obj.latencyCycles, full.latencyCycles);
            }
        EXPECT_GT(feasible, 0);
    }
}
