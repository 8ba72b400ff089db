/**
 * @file
 * Tests for the deployment subsystem (sim/deployment.h): the crossbar
 * model invariants (single core is exactly zero-cost, crossbar terms
 * scale monotonically with core count), the inherited interconnect,
 * heterogeneous composition, content-hash fencing, the registry/JSON
 * frontends, the spec-level integration, per-core timeline lanes, and
 * determinism of deployment exploration across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/cocco.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "models/models.h"
#include "serve/run_spec.h"
#include "sim/deployment.h"
#include "sim/multicore.h"
#include "sim/timeline.h"
#include "util/hash.h"
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

/** input(32x32x8) -> four 3x3 convs in a chain. */
Graph
chain()
{
    Graph g("chain");
    g.addNode(mkLayer("in", LayerKind::Input, 32, 32, 8));
    g.addNode(mkLayer("a", LayerKind::Conv, 32, 32, 16, 3, 1), {0});
    g.addNode(mkLayer("b", LayerKind::Conv, 32, 32, 16, 3, 1), {1});
    g.addNode(mkLayer("c", LayerKind::Conv, 16, 16, 32, 3, 2), {2});
    g.addNode(mkLayer("d", LayerKind::Conv, 16, 16, 32, 3, 1), {3});
    return g;
}

BufferConfig
roomyShared()
{
    BufferConfig c;
    c.style = BufferStyle::Shared;
    c.sharedBytes = 2 * 1024 * 1024;
    return c;
}

/** A CI-sized co-exploration spec. */
SearchSpec
fastSpec(int64_t budget = 400)
{
    SearchSpec spec;
    spec.algo = "ga";
    spec.eval.sampleBudget = budget;
    spec.eval.seed = 7;
    spec.ga.population = 20;
    spec.style = BufferStyle::Shared;
    return spec;
}

/** Strict result equality: the contract is bit-identical. */
void
expectIdentical(const CoccoResult &a, const CoccoResult &b)
{
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.buffer.totalBytes(), b.buffer.totalBytes());
    EXPECT_EQ(a.partition.block, b.partition.block);
    EXPECT_EQ(a.cost.energyPj, b.cost.energyPj);
    EXPECT_EQ(a.cost.latencyCycles, b.cost.latencyCycles);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost);
    }
}

} // namespace

// --- Fold / defaults ---------------------------------------------------------

TEST(Deployment, UnsetInterconnectInheritsThePlatformCrossbar)
{
    // A deployment that never mentions the interconnect must model
    // exactly the core platform's built-in crossbar — including a
    // platform that customized those values — or single-core
    // bit-identity (and Table 3 continuity) would silently break.
    AcceleratorConfig a;
    InterconnectConfig inherited =
        resolveInterconnect(InterconnectConfig{}, a);
    EXPECT_EQ(inherited.bytesPerCycle, a.crossbarBytesPerCycle);
    EXPECT_EQ(inherited.pjPerByteHop, a.energy.crossbarPjPerByte);

    AcceleratorConfig custom;
    custom.crossbarBytesPerCycle = 64.0;
    custom.energy.crossbarPjPerByte = 10.0;
    InterconnectConfig from_custom =
        resolveInterconnect(InterconnectConfig{}, custom);
    EXPECT_EQ(from_custom.bytesPerCycle, 64.0);
    EXPECT_EQ(from_custom.pjPerByteHop, 10.0);

    // Explicit knobs win over inheritance.
    InterconnectConfig half_set;
    half_set.bytesPerCycle = 128.0;
    InterconnectConfig mixed = resolveInterconnect(half_set, custom);
    EXPECT_EQ(mixed.bytesPerCycle, 128.0);
    EXPECT_EQ(mixed.pjPerByteHop, 10.0);
}

// --- Crossbar invariants -----------------------------------------------------

TEST(Deployment, SingleCoreIsExactlyZeroCost)
{
    Graph g = chain();
    CostModel plain(g, AcceleratorConfig{});
    DeploymentCostModel single(
        g, homogeneousDeployment(AcceleratorConfig{}, 1));

    Partition p = Partition::fixedRuns(g, 2);
    p.canonicalize(g);
    BufferConfig buf = roomyShared();

    GraphCost a = plain.partitionCost(p, buf);
    GraphCost b = single.partitionCost(p, buf);
    EXPECT_EQ(a.emaBytes, b.emaBytes);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);

    // And the crossbar terms themselves vanish.
    DeploymentBreakdown bd = single.breakdown(p, buf);
    EXPECT_EQ(bd.cores, 1);
    EXPECT_EQ(bd.crossbarEnergyPj, 0.0);
    EXPECT_EQ(bd.crossbarCycles, 0.0);
}

TEST(Deployment, InheritedCrossbarMatchesExplicitInterconnect)
{
    // A platform with a customized built-in crossbar keeps it when
    // deployed without an explicit interconnect (regression: the
    // interconnect must inherit, not reset to the struct defaults):
    // it costs and hashes exactly like that crossbar given as the
    // interconnect, over the same platform or over plain simba.
    Graph g = chain();
    Partition p = Partition::fixedRuns(g, 2);
    p.canonicalize(g);
    BufferConfig buf = roomyShared();

    AcceleratorConfig custom;
    custom.crossbarBytesPerCycle = 64.0;
    custom.energy.crossbarPjPerByte = 10.0;
    InterconnectConfig ic;
    ic.bytesPerCycle = 64.0;
    ic.pjPerByteHop = 10.0;
    DeploymentCostModel inherited(g, homogeneousDeployment(custom, 2));
    const GraphCost want = inherited.partitionCost(p, buf);
    for (const AcceleratorConfig &core : {custom, AcceleratorConfig{}}) {
        DeploymentCostModel given(g, homogeneousDeployment(core, 2, ic));
        const GraphCost got = given.partitionCost(p, buf);
        EXPECT_EQ(got.emaBytes, want.emaBytes);
        EXPECT_EQ(got.energyPj, want.energyPj);
        EXPECT_EQ(got.latencyCycles, want.latencyCycles);
        EXPECT_EQ(given.contextHash(kHashSeed),
                  inherited.contextHash(kHashSeed));
    }

    // The custom crossbar is in play: simba's own costs differ.
    DeploymentCostModel simba(g,
                              homogeneousDeployment(AcceleratorConfig{}, 2));
    EXPECT_NE(simba.partitionCost(p, buf).energyPj, want.energyPj);
    EXPECT_NE(simba.contextHash(kHashSeed), inherited.contextHash(kHashSeed));
}

TEST(Deployment, CrossbarTermsScaleMonotonicallyWithCores)
{
    Graph g = chain();
    Partition p = Partition::fixedRuns(g, 2);
    p.canonicalize(g);
    BufferConfig buf = roomyShared();

    double prev_energy = -1.0, prev_cycles = -1.0;
    for (int cores : {1, 2, 4, 8}) {
        DeploymentCostModel m(
            g, homogeneousDeployment(AcceleratorConfig{}, cores));
        DeploymentBreakdown b = m.breakdown(p, buf);
        if (cores == 1) {
            EXPECT_EQ(b.crossbarEnergyPj, 0.0);
            EXPECT_EQ(b.crossbarCycles, 0.0);
        } else {
            EXPECT_GT(b.crossbarEnergyPj, prev_energy);
            EXPECT_GT(b.crossbarCycles, prev_cycles);
        }
        prev_energy = b.crossbarEnergyPj;
        prev_cycles = b.crossbarCycles;

        // The raw per-subgraph terms agree with the aggregate view.
        for (const auto &blk : p.blocks()) {
            const SubgraphProfile &prof = m.profile(blk);
            if (cores == 1)
                EXPECT_EQ(crossbarBytes(prof, m.accel(), m.cores()), 0);
            else
                EXPECT_GT(crossbarBytes(prof, m.accel(), m.cores()), 0);
        }
    }
}

// --- Explore-level bit-identity ---------------------------------------------

TEST(Deployment, SingleCoreExploreBitIdenticalToPlainExplore)
{
    // The acceptance contract: "deployment": {"cores": 1} produces a
    // bit-identical CoccoResult to the same spec with no deployment.
    Graph g = chain();
    SearchSpec spec = fastSpec();

    CoccoFramework plain(g, AcceleratorConfig{});
    CoccoResult a = plain.explore(spec);

    CoccoFramework deployed(
        g, homogeneousDeployment(AcceleratorConfig{}, 1));
    CoccoResult b = deployed.explore(spec);

    expectIdentical(a, b);
}

TEST(Deployment, ExploreDeterministicAcrossThreadCounts)
{
    Graph g = chain();
    DeploymentConfig dep =
        homogeneousDeployment(AcceleratorConfig{}, 4);

    SearchSpec one = fastSpec();
    one.eval.threads = 1;
    CoccoFramework f1(g, dep);
    CoccoResult a = f1.explore(one);

    SearchSpec four = fastSpec();
    four.eval.threads = 4;
    CoccoFramework f4(g, dep);
    CoccoResult b = f4.explore(four);

    expectIdentical(a, b);
}

// --- Heterogeneous composition ----------------------------------------------

namespace {

/** 2x simba + 2x edge behind the default crossbar. */
DeploymentConfig
bigLittle()
{
    AcceleratorConfig simba;
    AcceleratorConfig edge = platformPreset("edge");
    DeploymentConfig dep;
    dep.coreConfigs = {simba, simba, edge, edge};
    return dep;
}

} // namespace

TEST(Deployment, HeterogeneousComposition)
{
    Graph g = chain();
    Partition p = Partition::fixedRuns(g, 2);
    p.canonicalize(g);
    BufferConfig buf = roomyShared();

    DeploymentCostModel mixed(g, bigLittle());
    DeploymentCostModel quad(
        g, homogeneousDeployment(AcceleratorConfig{}, 4));

    GraphCost cm = mixed.partitionCost(p, buf);
    GraphCost cq = quad.partitionCost(p, buf);
    ASSERT_TRUE(cm.feasible);
    ASSERT_TRUE(cq.feasible);

    // The edge cores share simba's energy model, so the energy
    // average equals the homogeneous value exactly; the slower edge
    // cores and the thinner aggregate DRAM make latency worse.
    EXPECT_DOUBLE_EQ(cm.energyPj, cq.energyPj);
    EXPECT_GT(cm.latencyCycles, cq.latencyCycles);
    EXPECT_EQ(cm.emaBytes, cq.emaBytes);

    // Per-core utilization: the little cores run at a lower clock
    // with fewer PEs, so they are busier over the shared window.
    DeploymentBreakdown b = mixed.breakdown(p, buf);
    ASSERT_EQ(b.cores, 4);
    ASSERT_EQ(b.coreUtilization.size(), 4u);
    EXPECT_DOUBLE_EQ(b.coreUtilization[0], b.coreUtilization[1]);
    EXPECT_DOUBLE_EQ(b.coreUtilization[2], b.coreUtilization[3]);
    EXPECT_GT(b.coreUtilization[2], b.coreUtilization[0]);

    // Per-window core lanes mirror the asymmetry.
    std::vector<double> lanes =
        mixed.coreComputeCycles(p.blocks().front());
    ASSERT_EQ(lanes.size(), 4u);
    EXPECT_GT(lanes[2], lanes[0]);
}

TEST(Deployment, ContextHashFencesDeployments)
{
    Graph g = chain();
    DeploymentCostModel quad(
        g, homogeneousDeployment(AcceleratorConfig{}, 4));
    DeploymentCostModel mixed(g, bigLittle());
    DeploymentConfig reversed = bigLittle();
    std::reverse(reversed.coreConfigs.begin(),
                 reversed.coreConfigs.end());
    DeploymentCostModel mixed_rev(g, reversed);

    uint64_t hq = quad.contextHash(kHashSeed);
    uint64_t hm = mixed.contextHash(kHashSeed);
    uint64_t hr = mixed_rev.contextHash(kHashSeed);
    EXPECT_NE(hq, hm);
    EXPECT_NE(hm, hr); // core order changes the clock domain

    // Different interconnects fence too.
    DeploymentConfig slow = homogeneousDeployment(AcceleratorConfig{}, 4);
    slow.interconnect.bytesPerCycle = 64.0;
    DeploymentCostModel slow_model(g, slow);
    EXPECT_NE(slow_model.contextHash(kHashSeed), hq);
}

// --- Registry / JSON ---------------------------------------------------------

TEST(Deployment, BuiltinPresetsRegistered)
{
    const DeploymentRegistry &reg = DeploymentRegistry::instance();
    std::vector<std::string> keys = reg.keys();
    ASSERT_GE(keys.size(), 4u);
    for (const char *name : {"single", "dual", "quad", "big-little"}) {
        EXPECT_TRUE(reg.contains(name));
        EXPECT_FALSE(reg.summary(name).empty());
    }
    EXPECT_EQ(deploymentPreset("single").cores, 1);
    EXPECT_EQ(deploymentPreset("dual").cores, 2);
    EXPECT_EQ(deploymentPreset("quad").cores, 4);
    DeploymentDesc bl = deploymentPreset("big-little");
    EXPECT_EQ(bl.cores, 4);
    ASSERT_EQ(bl.corePlatforms.size(), 4u);
    EXPECT_EQ(bl.corePlatforms[3].preset, "edge");
}

TEST(Deployment, JsonRoundTrip)
{
    DeploymentDesc bl = deploymentPreset("big-little");
    bl.interconnect.bytesPerCycle = 128.0;
    std::string json = deploymentToJson(bl);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, &doc, &err)) << err;
    DeploymentDesc back;
    ASSERT_TRUE(deploymentFromJson(doc, &back, &err)) << err;
    EXPECT_EQ(back.cores, bl.cores);
    EXPECT_EQ(back.interconnect.bytesPerCycle, 128.0);
    ASSERT_EQ(back.corePlatforms.size(), 4u);
    EXPECT_EQ(back.corePlatforms[0].preset, "simba");
    EXPECT_EQ(back.corePlatforms[2].preset, "edge");
}

TEST(Deployment, JsonRejectsMalformedDocuments)
{
    auto reject = [](const char *text, const char *needle) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(text, &doc, &err)) << err;
        DeploymentDesc desc;
        EXPECT_FALSE(deploymentFromJson(doc, &desc, &err)) << text;
        EXPECT_NE(err.find(needle), std::string::npos)
            << text << " -> " << err;
    };
    reject("{\"cores\": 0}", "cores");
    reject("{\"banana\": 1}", "unknown deployment key");
    reject("{\"cores\": 2, \"corePlatforms\": [\"simba\"]}",
           "disagrees");
    reject("{\"interconnect\": {\"bytesPerCycle\": -1.0}}",
           "bytesPerCycle");
    reject("{\"interconnect\": {\"pjPerByteHop\": -0.5}}",
           "pjPerByteHop");
    reject("{\"base\": \"no-such-deployment\"}", "unknown deployment");
    // A core platform is one core.
    reject("{\"corePlatforms\": [{\"cores\": 2}]}",
           "unknown deployment key \"corePlatforms[0].cores\"");
}

TEST(Deployment, DuplicateKeysAreErrors)
{
    // The last "cores" used to win, inline and in a file alike.
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(parseRunSpecText(
        R"({"model": "GoogleNet", "deployment": {"cores": 2, "cores": 3}})",
        &spec, &err));
    EXPECT_NE(err.find("duplicate key \"deployment.cores\""),
              std::string::npos)
        << err;
    const std::string path = ::testing::TempDir() + "cocco_dup_dep.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cores\": 2, \"cores\": 3}\n", f);
    std::fclose(f);
    DeploymentDesc desc;
    err.clear();
    EXPECT_FALSE(loadDeploymentJson(path, &desc, &err));
    EXPECT_NE(err.find("duplicate key \"cores\""), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Deployment, SpecFormsParse)
{
    // Preset-string form.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson("{\"model\": \"VGG-16\", \"deployment\": "
                          "\"quad\"}",
                          &doc, &err))
        << err;
    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(doc, &spec, &err)) << err;
    EXPECT_TRUE(spec.deployment.enabled);
    EXPECT_EQ(spec.deployment.preset, "quad");

    // Inline form with heterogeneous cores.
    ASSERT_TRUE(parseJson(
        "{\"model\": \"VGG-16\", \"deployment\": {\"corePlatforms\": "
        "[\"simba\", {\"base\": \"simba\", \"peRows\": 2}]}}",
        &doc, &err))
        << err;
    SearchSpec inl;
    ASSERT_TRUE(searchSpecFromJson(doc, &inl, &err)) << err;
    EXPECT_TRUE(inl.deployment.enabled);
    ASSERT_TRUE(inl.deployment.inlineDesc);
    EXPECT_EQ(inl.deployment.desc.cores, 2);
    EXPECT_TRUE(inl.deployment.desc.corePlatforms[1].inlineConfig);

    // No section at all: disabled.
    ASSERT_TRUE(parseJson("{\"model\": \"VGG-16\"}", &doc, &err)) << err;
    SearchSpec off;
    ASSERT_TRUE(searchSpecFromJson(doc, &off, &err)) << err;
    EXPECT_FALSE(off.deployment.enabled);

    // A bad section is a clean error.
    ASSERT_TRUE(parseJson("{\"model\": \"VGG-16\", \"deployment\": "
                          "{\"cores\": -3}}",
                          &doc, &err))
        << err;
    SearchSpec bad;
    EXPECT_FALSE(searchSpecFromJson(doc, &bad, &err));
}

TEST(Deployment, ResolveDeployment)
{
    AcceleratorConfig base; // simba

    // Disabled: the trivial one-core deployment of the base.
    DeploymentSpec off;
    DeploymentConfig dep;
    std::string err;
    ASSERT_TRUE(resolveDeployment(off, base, &dep, &err)) << err;
    EXPECT_EQ(dep.cores(), 1);

    // Preset without explicit platforms: cores x base.
    DeploymentSpec quad;
    quad.enabled = true;
    quad.preset = "quad";
    ASSERT_TRUE(resolveDeployment(quad, base, &dep, &err)) << err;
    EXPECT_EQ(dep.cores(), 4);
    EXPECT_TRUE(dep.homogeneous());

    // Heterogeneous preset resolves its own platforms.
    DeploymentSpec bl;
    bl.enabled = true;
    bl.preset = "big-little";
    ASSERT_TRUE(resolveDeployment(bl, base, &dep, &err)) << err;
    EXPECT_EQ(dep.cores(), 4);
    EXPECT_FALSE(dep.homogeneous());

    // Several sources at once is an error.
    DeploymentSpec multi;
    multi.enabled = true;
    multi.preset = "quad";
    multi.file = "nonexistent.json";
    err.clear();
    EXPECT_FALSE(resolveDeployment(multi, base, &dep, &err));

    // Unknown preset is a clean error, not a crash.
    DeploymentSpec unknown;
    unknown.enabled = true;
    unknown.preset = "no-such";
    err.clear();
    EXPECT_FALSE(resolveDeployment(unknown, base, &dep, &err));
    EXPECT_NE(err.find("unknown deployment"), std::string::npos);
}

// --- Timeline lanes ----------------------------------------------------------

TEST(Deployment, TimelineRendersPerCoreLanes)
{
    Graph g = chain();
    Partition p = Partition::fixedRuns(g, 2);
    p.canonicalize(g);
    BufferConfig buf = roomyShared();

    // Single core: no lanes, rendering unchanged.
    CostModel plain(g, AcceleratorConfig{});
    Timeline tl1 = buildTimeline(plain, p, buf);
    EXPECT_EQ(tl1.cores, 1);
    for (const TimelineEntry &e : tl1.entries)
        EXPECT_TRUE(e.coreBusyCycles.empty());
    EXPECT_EQ(tl1.gantt(40).find(" c0"), std::string::npos);

    // Deployment: one lane per core.
    DeploymentCostModel dep(g, bigLittle());
    Timeline tl4 = buildTimeline(dep, p, buf);
    EXPECT_EQ(tl4.cores, 4);
    for (const TimelineEntry &e : tl4.entries)
        EXPECT_EQ(e.coreBusyCycles.size(), 4u);
    std::string gantt = tl4.gantt(40);
    EXPECT_NE(gantt.find(" c0"), std::string::npos);
    EXPECT_NE(gantt.find(" c3"), std::string::npos);
    EXPECT_NE(gantt.find("per-core busy"), std::string::npos);
}

// --- Result / metrics plumbing ----------------------------------------------

TEST(Deployment, ResultCarriesBreakdownAndMetricsEmitIt)
{
    Graph g = chain();
    CoccoFramework cocco(g,
                         homogeneousDeployment(AcceleratorConfig{}, 2));
    CoccoResult r = cocco.explore(fastSpec(200));
    EXPECT_EQ(r.deployment.cores, 2);
    ASSERT_EQ(r.deployment.coreUtilization.size(), 2u);
    EXPECT_GT(r.deployment.crossbarEnergyPj, 0.0);
    EXPECT_GT(r.deployment.crossbarEnergyShare, 0.0);
    EXPECT_LT(r.deployment.crossbarEnergyShare, 1.0);

    // resultToJson exposes the block.
    std::string json = resultToJson(g, r);
    EXPECT_NE(json.find("\"deployment\":{"), std::string::npos);
    EXPECT_NE(json.find("\"core_utilization\":["), std::string::npos);

    // The metrics pipeline round-trips it.
    RunMetrics m;
    m.name = "deploy";
    m.model = g.name();
    m.hasDeployment = true;
    m.deployment = r.deployment;
    std::string doc_text = metricsToJson("deployment_test", {m});
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(doc_text, &doc, &err)) << err;
    const JsonValue &run = doc.find("runs")->array().front();
    const JsonValue *dep = run.find("deployment");
    ASSERT_NE(dep, nullptr);
    EXPECT_EQ(dep->find("cores")->integer(), 2);
    EXPECT_EQ(dep->find("core_utilization")->array().size(), 2u);

    // Runs that never set the block keep the old document shape.
    RunMetrics bare;
    bare.name = "bare";
    bare.model = g.name();
    std::string bare_text = metricsToJson("deployment_test", {bare});
    ASSERT_TRUE(parseJson(bare_text, &doc, &err)) << err;
    EXPECT_EQ(doc.find("runs")->array().front().find("deployment"),
              nullptr);
}
