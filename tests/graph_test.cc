/**
 * @file
 * Tests for the graph module: layer byte/MAC accounting, graph
 * construction invariants, and the DAG algorithms the partitioners
 * rely on (depths, connectivity, quotient checks, boundary sets).
 */

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/graph.h"

using namespace cocco;

namespace {

Layer
makeLayer(const char *name, LayerKind kind, int h, int w, int c, int k = 1,
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

/** input -> a -> {b, c} -> d (diamond). */
Graph
diamond()
{
    Graph g("diamond");
    NodeId in =
        g.addNode(makeLayer("in", LayerKind::Input, 16, 16, 8));
    NodeId a =
        g.addNode(makeLayer("a", LayerKind::Conv, 16, 16, 8, 3, 1), {in});
    NodeId b =
        g.addNode(makeLayer("b", LayerKind::Conv, 16, 16, 8, 3, 1), {a});
    NodeId c =
        g.addNode(makeLayer("c", LayerKind::Conv, 16, 16, 8, 1, 1), {a});
    g.addNode(makeLayer("d", LayerKind::Eltwise, 16, 16, 8), {b, c});
    return g;
}

} // namespace

// --- Layer ---------------------------------------------------------------

TEST(Layer, ConvWeightBytes)
{
    Layer l = makeLayer("c", LayerKind::Conv, 8, 8, 16, 3, 1);
    EXPECT_EQ(l.weightBytes(4), 3 * 3 * 4 * 16);
}

TEST(Layer, DWConvWeightBytes)
{
    Layer l = makeLayer("dw", LayerKind::DWConv, 8, 8, 16, 3, 1);
    EXPECT_EQ(l.weightBytes(16), 3 * 3 * 16);
}

TEST(Layer, NoWeightKinds)
{
    for (LayerKind k : {LayerKind::Input, LayerKind::Pool,
                        LayerKind::Eltwise, LayerKind::Concat,
                        LayerKind::Matmul}) {
        Layer l = makeLayer("x", k, 8, 8, 16, 3, 1);
        EXPECT_EQ(l.weightBytes(16), 0) << layerKindName(k);
        EXPECT_FALSE(l.hasWeights()) << layerKindName(k);
    }
}

TEST(Layer, ConvMacs)
{
    Layer l = makeLayer("c", LayerKind::Conv, 8, 8, 16, 3, 1);
    EXPECT_EQ(l.macs(4), 8LL * 8 * 16 * 3 * 3 * 4);
}

TEST(Layer, DepthwiseMacs)
{
    Layer l = makeLayer("p", LayerKind::Pool, 8, 8, 16, 2, 2);
    EXPECT_EQ(l.macs(16), 8LL * 8 * 16 * 2 * 2);
}

TEST(Layer, MatmulMacsUsesHalfInputChannels)
{
    // Q (C=64) x K (C=64) -> seq x seq scores: contraction dim 64.
    Layer l = makeLayer("qk", LayerKind::Matmul, 128, 1, 128);
    EXPECT_EQ(l.macs(128), 128LL * 1 * 128 * 64);
}

TEST(Layer, InputAndConcatNoMacs)
{
    EXPECT_EQ(makeLayer("i", LayerKind::Input, 8, 8, 3).macs(0), 0);
    EXPECT_EQ(makeLayer("c", LayerKind::Concat, 8, 8, 32).macs(32), 0);
}

TEST(Layer, OutBytes)
{
    EXPECT_EQ(makeLayer("x", LayerKind::Conv, 4, 5, 6).outBytes(), 120);
}

TEST(Layer, KindNames)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv), "conv");
    EXPECT_STREQ(layerKindName(LayerKind::Input), "input");
    EXPECT_STREQ(layerKindName(LayerKind::Matmul), "matmul");
}

// --- Graph construction --------------------------------------------------

TEST(Graph, BasicTopology)
{
    Graph g = diamond();
    EXPECT_EQ(g.size(), 5);
    EXPECT_EQ(g.numEdges(), 5);
    EXPECT_EQ(g.inputs().size(), 1u);
    ASSERT_EQ(g.outputs().size(), 1u);
    EXPECT_EQ(g.outputs()[0], 4);
}

TEST(Graph, PredsAndSuccs)
{
    Graph g = diamond();
    EXPECT_EQ(g.preds(1), std::vector<NodeId>{0});
    EXPECT_EQ(g.succs(1), (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(g.preds(4), (std::vector<NodeId>{2, 3}));
}

TEST(Graph, InChannelsSumsProducers)
{
    Graph g = diamond();
    EXPECT_EQ(g.inChannels(4), 16); // b (8) + c (8)
    EXPECT_EQ(g.inChannels(1), 8);
}

TEST(Graph, TotalsAccumulate)
{
    Graph g = diamond();
    int64_t w = 0, m = 0;
    for (NodeId v = 0; v < g.size(); ++v) {
        w += g.weightBytes(v);
        m += g.macs(v);
    }
    EXPECT_EQ(g.totalWeightBytes(), w);
    EXPECT_EQ(g.totalMacs(), m);
    EXPECT_GT(w, 0);
    EXPECT_GT(m, 0);
}

TEST(Graph, IsInput)
{
    Graph g = diamond();
    EXPECT_TRUE(g.isInput(0));
    EXPECT_FALSE(g.isInput(1));
}

TEST(Graph, StrMentionsNodes)
{
    Graph g = diamond();
    std::string s = g.str();
    EXPECT_NE(s.find("diamond"), std::string::npos);
    EXPECT_NE(s.find("[  4]"), std::string::npos);
    EXPECT_NE(s.find("eltwise"), std::string::npos);
}

TEST(GraphDeath, ForwardReferenceRejected)
{
    Graph g("bad");
    EXPECT_EXIT(
        g.addNode(makeLayer("x", LayerKind::Conv, 4, 4, 4, 1, 1), {0}),
        ::testing::ExitedWithCode(1), "out of range");
}

TEST(GraphDeath, NonInputWithoutProducers)
{
    Graph g("bad");
    EXPECT_EXIT(g.addNode(makeLayer("x", LayerKind::Conv, 4, 4, 4, 1, 1)),
                ::testing::ExitedWithCode(1), "needs at least one producer");
}

TEST(GraphDeath, InputWithProducersRejected)
{
    Graph g("bad");
    g.addNode(makeLayer("in", LayerKind::Input, 4, 4, 4));
    EXPECT_EXIT(g.addNode(makeLayer("i2", LayerKind::Input, 4, 4, 4), {0}),
                ::testing::ExitedWithCode(1), "cannot have producers");
}

TEST(GraphDeath, NonPositiveShapeRejected)
{
    Graph g("bad");
    EXPECT_EXIT(g.addNode(makeLayer("in", LayerKind::Input, 0, 4, 4)),
                ::testing::ExitedWithCode(1), "non-positive");
}

// --- Algorithms ----------------------------------------------------------

TEST(Algorithms, TopoOrderIsIdentity)
{
    Graph g = diamond();
    std::vector<NodeId> order = topoOrder(g);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<NodeId>(i));
}

TEST(Algorithms, NodeDepths)
{
    Graph g = diamond();
    std::vector<int> d = nodeDepths(g);
    EXPECT_EQ(d[0], 0);
    EXPECT_EQ(d[1], 1);
    EXPECT_EQ(d[2], 2);
    EXPECT_EQ(d[3], 2);
    EXPECT_EQ(d[4], 3);
}

TEST(Algorithms, DepthOrderIsMonotone)
{
    Graph g = diamond();
    std::vector<int> d = nodeDepths(g);
    std::vector<NodeId> order = depthOrder(g);
    for (size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(d[order[i - 1]], d[order[i]]);
}

TEST(Algorithms, WeakConnectivity)
{
    Graph g = diamond();
    EXPECT_TRUE(isWeaklyConnected(g, {1, 2, 3}));
    EXPECT_TRUE(isWeaklyConnected(g, {2, 3, 4}));
    EXPECT_FALSE(isWeaklyConnected(g, {2, 3})); // siblings, no edge
    EXPECT_TRUE(isWeaklyConnected(g, {2}));
    EXPECT_TRUE(isWeaklyConnected(g, {}));
}

TEST(Algorithms, WeakComponents)
{
    Graph g = diamond();
    auto comps = weakComponents(g, {2, 3});
    ASSERT_EQ(comps.size(), 2u);
    EXPECT_EQ(comps[0], std::vector<NodeId>{2});
    EXPECT_EQ(comps[1], std::vector<NodeId>{3});

    comps = weakComponents(g, {0, 1, 2, 3, 4});
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].size(), 5u);
}

TEST(Algorithms, QuotientPrecedence)
{
    Graph g = diamond();
    EXPECT_TRUE(quotientRespectsPrecedence(g, {0, 0, 1, 1, 2}));
    EXPECT_FALSE(quotientRespectsPrecedence(g, {1, 0, 0, 0, 0}));
    EXPECT_TRUE(quotientRespectsPrecedence(g, {0, 0, 0, 0, 0}));
}

TEST(Algorithms, QuotientAcyclicity)
{
    Graph g = diamond();
    // Blocks {0,1}, {2}, {3}, {4}: acyclic regardless of numbering.
    EXPECT_TRUE(quotientIsAcyclic(g, {0, 0, 7, 3, 9}));
    // a+d in one block, b in another: a->b->d makes a 2-cycle between
    // blocks.
    EXPECT_FALSE(quotientIsAcyclic(g, {0, 1, 2, 1, 1}));
}

