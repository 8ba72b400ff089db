/**
 * @file
 * Tests for the model zoo: per-model structural facts (layer counts,
 * parameter sizes, MACs against published figures) and DAG sanity
 * properties shared by every builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "graph/algorithms.h"
#include "models/models.h"
#include "serve/run_spec.h"
#include "util/hash.h"

using namespace cocco;

namespace {

double
mb(int64_t bytes)
{
    return bytes / (1024.0 * 1024.0);
}

uint64_t
graphHash(const Graph &g)
{
    return hashFinalize(hashGraph(kHashSeed, g));
}

} // namespace

// --- Shared structural properties over all models ------------------------

class ModelProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    Graph g_ = buildModel(GetParam());
};

TEST_P(ModelProperty, NonTrivialSize)
{
    EXPECT_GE(g_.size(), 10);
    EXPECT_GE(g_.numEdges(), g_.size() - 1);
}

TEST_P(ModelProperty, SingleInputNode)
{
    ASSERT_EQ(g_.inputs().size(), 1u);
    EXPECT_TRUE(g_.isInput(g_.inputs()[0]));
}

TEST_P(ModelProperty, HasModelOutput)
{
    EXPECT_GE(g_.outputs().size(), 1u);
}

TEST_P(ModelProperty, WeaklyConnectedWhole)
{
    std::vector<NodeId> all;
    for (NodeId v = 0; v < g_.size(); ++v)
        all.push_back(v);
    EXPECT_TRUE(isWeaklyConnected(g_, all));
}

TEST_P(ModelProperty, EdgesRespectTopoIds)
{
    for (NodeId v = 0; v < g_.size(); ++v)
        for (NodeId u : g_.preds(v))
            EXPECT_LT(u, v);
}

TEST_P(ModelProperty, UniqueLayerNames)
{
    std::set<std::string> names;
    for (NodeId v = 0; v < g_.size(); ++v)
        EXPECT_TRUE(names.insert(g_.layer(v).name).second)
            << "duplicate layer name " << g_.layer(v).name;
}

TEST_P(ModelProperty, PositiveComputeAndWeights)
{
    EXPECT_GT(g_.totalMacs(), 0);
    EXPECT_GT(g_.totalWeightBytes(), 0);
}

TEST_P(ModelProperty, NonInputNodesHaveProducers)
{
    for (NodeId v = 0; v < g_.size(); ++v)
        if (!g_.isInput(v)) {
            EXPECT_FALSE(g_.preds(v).empty());
        }
}

TEST_P(ModelProperty, EltwiseShapesMatchProducers)
{
    for (NodeId v = 0; v < g_.size(); ++v) {
        if (g_.layer(v).kind != LayerKind::Eltwise)
            continue;
        for (NodeId u : g_.preds(v)) {
            EXPECT_EQ(g_.layer(u).outH, g_.layer(v).outH);
            EXPECT_EQ(g_.layer(u).outW, g_.layer(v).outW);
            EXPECT_EQ(g_.layer(u).outC, g_.layer(v).outC);
        }
    }
}

TEST_P(ModelProperty, ConcatChannelsSumProducers)
{
    for (NodeId v = 0; v < g_.size(); ++v) {
        if (g_.layer(v).kind != LayerKind::Concat)
            continue;
        int c = 0;
        for (NodeId u : g_.preds(v))
            c += g_.layer(u).outC;
        EXPECT_EQ(g_.layer(v).outC, c);
    }
}

TEST_P(ModelProperty, TinyWidthMultKeepsEveryLayerNonEmpty)
{
    // scaleChannels clamps to one channel; widths a builder derives
    // from its result must stay clamped too, or Graph::addNode dies on
    // a 0-channel layer inside a serve worker.
    for (double mult : {1e-300, 1e-3, 0.02}) {
        ModelParams p;
        p.widthMult = mult;
        Graph g = buildModel(GetParam(), p);
        for (NodeId v = 0; v < g.size(); ++v)
            EXPECT_GE(g.layer(v).outC, 1)
                << "widthMult " << mult << ": " << g.layer(v).name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelProperty,
                         ::testing::ValuesIn(allModelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

// --- Published-figure checks ---------------------------------------------

TEST(VGG16, ParameterCount)
{
    Graph g = buildVGG16();
    // ~138M parameters at 1 byte each.
    EXPECT_NEAR(mb(g.totalWeightBytes()), 132.0, 8.0);
}

TEST(VGG16, MacCount)
{
    Graph g = buildVGG16();
    // ~15.5 GMACs at 224x224.
    EXPECT_NEAR(g.totalMacs() / 1e9, 15.5, 1.0);
}

TEST(VGG16, SixteenWeightLayers)
{
    Graph g = buildVGG16();
    int convs = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        if (g.layer(v).kind == LayerKind::Conv)
            ++convs;
    EXPECT_EQ(convs, 16); // 13 conv + 3 fc
}

TEST(ResNet50, ParameterCount)
{
    Graph g = buildResNet50();
    EXPECT_NEAR(mb(g.totalWeightBytes()), 24.4, 2.0); // ~25.5M params
}

TEST(ResNet50, MacCount)
{
    Graph g = buildResNet50();
    EXPECT_NEAR(g.totalMacs() / 1e9, 4.1, 0.5);
}

TEST(ResNet50, SixteenResidualAdds)
{
    Graph g = buildResNet50();
    int adds = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        if (g.layer(v).kind == LayerKind::Eltwise)
            ++adds;
    EXPECT_EQ(adds, 16); // 3 + 4 + 6 + 3 blocks
}

TEST(ResNet152, DeeperThanResNet50)
{
    Graph g50 = buildResNet50();
    Graph g152 = buildResNet152();
    EXPECT_GT(g152.size(), 2 * g50.size());
    EXPECT_NEAR(mb(g152.totalWeightBytes()), 57.4, 5.0); // ~60M params
    EXPECT_NEAR(g152.totalMacs() / 1e9, 11.5, 1.5);
}

TEST(GoogleNet, ParameterCount)
{
    Graph g = buildGoogleNet();
    EXPECT_NEAR(mb(g.totalWeightBytes()), 6.6, 1.0); // ~7M params
}

TEST(GoogleNet, MacCount)
{
    Graph g = buildGoogleNet();
    EXPECT_NEAR(g.totalMacs() / 1e9, 1.5, 0.3);
}

TEST(GoogleNet, NineInceptionModules)
{
    Graph g = buildGoogleNet();
    int concats = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        if (g.layer(v).kind == LayerKind::Concat)
            ++concats;
    EXPECT_EQ(concats, 9);
}

TEST(Transformer, ParameterCount)
{
    Graph g = buildTransformer();
    // Base encoder stack: 6 * (4 d^2 + 2 d ffn) ~ 19M.
    EXPECT_NEAR(mb(g.totalWeightBytes()), 18.0, 3.0);
}

TEST(Transformer, AttentionMatmulsPresent)
{
    Graph g = buildTransformer();
    int matmuls = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        if (g.layer(v).kind == LayerKind::Matmul)
            ++matmuls;
    EXPECT_EQ(matmuls, 12); // 2 per layer x 6 layers
}

TEST(GPT, LargerThanTransformerEncoder)
{
    Graph t = buildTransformer();
    Graph g = buildGPT();
    EXPECT_GT(g.totalWeightBytes(), 3 * t.totalWeightBytes());
    EXPECT_NEAR(mb(g.totalWeightBytes()), 81.0, 10.0); // ~85M params
}

TEST(RandWire, Deterministic)
{
    Graph a = buildRandWire('A', 7);
    Graph b = buildRandWire('A', 7);
    ASSERT_EQ(a.size(), b.size());
    for (NodeId v = 0; v < a.size(); ++v) {
        EXPECT_EQ(a.preds(v), b.preds(v));
        EXPECT_EQ(a.layer(v).outC, b.layer(v).outC);
    }
}

TEST(RandWire, SeedsChangeWiring)
{
    Graph a = buildRandWire('A', 1);
    Graph b = buildRandWire('A', 2);
    bool differs = a.size() != b.size();
    if (!differs)
        for (NodeId v = 0; v < a.size() && !differs; ++v)
            differs = a.preds(v) != b.preds(v);
    EXPECT_TRUE(differs);
}

TEST(RandWire, VariantBIsLarger)
{
    Graph a = buildRandWire('A', 1);
    Graph b = buildRandWire('B', 1);
    EXPECT_GT(b.size(), a.size());
    EXPECT_GT(b.totalMacs(), a.totalMacs());
}

TEST(RandWire, IrregularInDegrees)
{
    Graph g = buildRandWire('A', 1);
    int max_preds = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        max_preds = std::max<int>(max_preds,
                                  static_cast<int>(g.preds(v).size()));
    EXPECT_GE(max_preds, 3); // aggregation nodes exist
}

TEST(RandWireDeath, BadVariant)
{
    EXPECT_EXIT(buildRandWire('C'), ::testing::ExitedWithCode(1),
                "variant");
}

TEST(NasNet, LargestEvaluatedModel)
{
    Graph g = buildNasNet();
    EXPECT_GE(g.size(), 250);
    // Memory-intensive: activations of early cells are large.
    int64_t max_act = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        max_act = std::max(max_act, g.outBytes(v));
    EXPECT_GT(max_act, 1024 * 1024); // > 1MB single tensor
}

TEST(NasNet, HasSeparableConvs)
{
    Graph g = buildNasNet();
    int dw = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        if (g.layer(v).kind == LayerKind::DWConv)
            ++dw;
    EXPECT_GT(dw, 30);
}

TEST(Registry, AllNamesBuild)
{
    for (const std::string &name : allModelNames()) {
        Graph g = buildModel(name);
        EXPECT_GT(g.size(), 0) << name;
    }
}

TEST(Registry, RandWireAliasWorks)
{
    Graph g = buildModel("RandWire");
    EXPECT_EQ(g.name(), "RandWire-A");
}

TEST(RegistryDeath, UnknownModel)
{
    EXPECT_EXIT(buildModel("AlexNet"), ::testing::ExitedWithCode(1),
                "unknown model");
}

TEST(MobileNetV2, ParameterCount)
{
    Graph g = buildMobileNetV2();
    // ~3.5M parameters at 1 byte each.
    EXPECT_NEAR(mb(g.totalWeightBytes()), 3.3, 0.8);
}

TEST(MobileNetV2, MacCount)
{
    Graph g = buildMobileNetV2();
    // ~0.3 GMACs at 224x224.
    EXPECT_NEAR(g.totalMacs() / 1e9, 0.31, 0.1);
}

TEST(MobileNetV2, InvertedResidualsHaveAdds)
{
    Graph g = buildMobileNetV2();
    int adds = 0, dws = 0;
    for (NodeId v = 0; v < g.size(); ++v) {
        if (g.layer(v).kind == LayerKind::Eltwise)
            ++adds;
        if (g.layer(v).kind == LayerKind::DWConv)
            ++dws;
    }
    EXPECT_EQ(dws, 17); // one depth-wise per block
    EXPECT_EQ(adds, 10); // stride-1, channel-preserving blocks
}

TEST(SRCNN, ActivationsDwarfWeights)
{
    Graph g = buildSRCNN();
    int64_t max_act = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        max_act = std::max(max_act, g.outBytes(v));
    // One feature map is dozens of times the whole weight set: the
    // regime where inter-layer fusion dominates.
    EXPECT_GT(max_act, 10 * g.totalWeightBytes());
}

TEST(SRCNN, PlainChainStructure)
{
    Graph g = buildSRCNN();
    for (NodeId v = 0; v < g.size(); ++v)
        EXPECT_LE(g.preds(v).size(), 1u);
    EXPECT_EQ(g.numEdges(), g.size() - 1);
}

// --- ModelRegistry ---------------------------------------------------------

TEST(ModelRegistry, KeysMatchAllModelNamesAndCarryMetadata)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    EXPECT_EQ(reg.keys(), allModelNames());
    for (const std::string &name : reg.keys()) {
        EXPECT_TRUE(reg.contains(name));
        const ModelInfo &info = reg.info(name);
        EXPECT_EQ(info.name, name);
        EXPECT_FALSE(info.summary.empty()) << name;
        EXPECT_NE(info.knobs, 0u) << name;
        EXPECT_FALSE(modelKnobsStr(info).empty()) << name;
    }
    EXPECT_FALSE(reg.contains("AlexNet"));
}

TEST(ModelRegistry, AliasResolvesButIsNotListed)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    EXPECT_TRUE(reg.contains("RandWire"));
    for (const std::string &name : reg.keys())
        EXPECT_NE(name, "RandWire");
}

TEST(ModelRegistry, DefaultParamsReproducePaperGraphs)
{
    // The whole parity contract: buildModel(name, {}) must be
    // bit-identical (by content hash) to the paper-default build.
    for (const std::string &name : allModelNames())
        EXPECT_EQ(graphHash(buildModel(name, ModelParams{})),
                  graphHash(buildModel(name)))
            << name;
}

// --- ModelParams knobs -----------------------------------------------------

TEST(ModelParams, WidthMultScalesWeights)
{
    ModelParams half;
    half.widthMult = 0.5;
    Graph full = buildModel("ResNet50");
    Graph thin = buildModel("ResNet50", half);
    EXPECT_EQ(thin.size(), full.size()); // topology unchanged
    EXPECT_LT(thin.totalWeightBytes(), full.totalWeightBytes() / 2);
    EXPECT_LT(thin.totalMacs(), full.totalMacs());
}

TEST(ModelParams, ResolutionScalesMacsNotWeights)
{
    ModelParams small;
    small.resolution = 112;
    Graph full = buildModel("VGG16");
    Graph low = buildModel("VGG16", small);
    // Conv MACs scale with spatial area (~4x); conv weights are
    // resolution-independent (only fc6's global kernel shrinks).
    EXPECT_LT(low.totalMacs(), full.totalMacs() / 2);
    EXPECT_LT(low.totalWeightBytes(), full.totalWeightBytes());
    EXPECT_GT(low.totalWeightBytes(), full.totalWeightBytes() / 4);
}

TEST(ModelParams, TokenModelKnobs)
{
    ModelParams p;
    p.seqLen = 128;
    p.depth = 2;
    Graph base = buildModel("Transformer");
    Graph small = buildModel("Transformer", p);
    // 2 layers instead of 6: a third of the stack.
    EXPECT_EQ(small.size() - 1, (base.size() - 1) / 3);
    EXPECT_EQ(small.layer(0).outH, 128); // tokens on the H axis
    EXPECT_LT(small.totalMacs(), base.totalMacs());
}

TEST(ModelParams, NasNetDepthAddsCells)
{
    ModelParams shallow;
    shallow.depth = 2;
    Graph base = buildModel("NasNet");
    Graph small = buildModel("NasNet", shallow);
    EXPECT_LT(small.size(), base.size());
}

TEST(ModelParams, RandWireSeedReachableByName)
{
    // The registry path must expose the generator seed: same seed,
    // same wiring as the direct builder; different seed, different
    // wiring (determinism per seed).
    ModelParams p;
    p.seed = 7;
    EXPECT_EQ(graphHash(buildModel("RandWire-A", p)),
              graphHash(buildRandWire('A', 7)));
    EXPECT_EQ(graphHash(buildModel("RandWire-A", p)),
              graphHash(buildModel("RandWire-A", p)));
    ModelParams q;
    q.seed = 8;
    EXPECT_NE(graphHash(buildModel("RandWire-A", p)),
              graphHash(buildModel("RandWire-A", q)));
}

TEST(ModelParams, IrrelevantKnobsAreIgnored)
{
    // A knob the builder does not read (seqLen on a CNN) must not
    // change the graph.
    ModelParams p;
    p.seqLen = 64;
    p.seed = 99;
    EXPECT_EQ(graphHash(buildModel("GoogleNet", p)),
              graphHash(buildModel("GoogleNet")));
}

TEST(ModelParamsDeath, BadValuesAreFatal)
{
    ModelParams bad_width;
    bad_width.widthMult = 0.0;
    EXPECT_EXIT(buildModel("ResNet50", bad_width),
                ::testing::ExitedWithCode(1), "widthMult");

    ModelParams bad_res;
    bad_res.resolution = -1;
    EXPECT_EXIT(buildModel("ResNet50", bad_res),
                ::testing::ExitedWithCode(1), ">= 0");

    // An absurd multiplier is rejected, not wrapped into a bogus
    // channel count.
    ModelParams huge;
    huge.widthMult = 1e7;
    EXPECT_EXIT(buildModel("ResNet50", huge),
                ::testing::ExitedWithCode(1), "beyond the supported");
}

// --- ModelParams JSON ------------------------------------------------------

namespace {

/** Read @p params as a run spec's workload.params block. */
bool
paramsFrom(const std::string &params, ModelParams *out, std::string *err)
{
    SearchSpec spec;
    if (!parseRunSpecText(R"({"workload": {"model": "VGG16", "params": )" +
                              params + "}}",
                          &spec, err))
        return false;
    *out = spec.workload.params;
    return true;
}

} // namespace

TEST(ModelParamsJson, FullDocument)
{
    ModelParams p;
    std::string err;
    ASSERT_TRUE(paramsFrom(R"({"batch": 4, "resolution": 112,
                               "seqLen": 256, "depth": 3,
                               "widthMult": 0.75, "seed": 9})",
                           &p, &err))
        << err;
    EXPECT_EQ(p.batch, 4);
    EXPECT_EQ(p.resolution, 112);
    EXPECT_EQ(p.seqLen, 256);
    EXPECT_EQ(p.depth, 3);
    EXPECT_DOUBLE_EQ(p.widthMult, 0.75);
    EXPECT_EQ(p.seed, 9u);
}

TEST(ModelParamsJson, RejectsDuplicateKeys)
{
    SearchSpec spec;
    std::string err;
    EXPECT_FALSE(parseRunSpecText(R"({"workload": {"model": "VGG16",
                                                  "params": {"batch": 2,
                                                             "batch": 4}}})",
                                  &spec, &err));
    EXPECT_NE(err.find("duplicate key \"workload.params.batch\""),
              std::string::npos)
        << err;
}

TEST(ModelParamsJson, RejectsUnknownKeysAndBadValues)
{
    ModelParams p;
    std::string err;
    EXPECT_FALSE(paramsFrom(R"({"resolutoin": 112})", &p, &err));
    EXPECT_NE(err.find("resolutoin"), std::string::npos);

    err.clear();
    EXPECT_FALSE(paramsFrom(R"({"widthMult": 0})", &p, &err));
    EXPECT_NE(err.find("widthMult"), std::string::npos);

    err.clear();
    EXPECT_FALSE(paramsFrom(R"({"batch": 0})", &p, &err));
    EXPECT_NE(err.find("batch"), std::string::npos);

    err.clear();
    EXPECT_FALSE(paramsFrom(R"({"depth": "deep"})", &p, &err));
    EXPECT_NE(err.find("depth"), std::string::npos);

    err.clear();
    EXPECT_FALSE(paramsFrom(R"({"seed": -1})", &p, &err));
    EXPECT_NE(err.find("seed"), std::string::npos);
}
