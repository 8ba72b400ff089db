/**
 * @file
 * Old-vs-new equivalence of tile-flow profiling. The flat derivation
 * core (TileFlow), the shared tile-choice walk (bestFootprint,
 * bestScheme) and the cost model's stamp-based boundary pass must
 * reproduce the hash-map implementations kept here as test-only
 * references: every NodeScheme field, every scheme and profile field,
 * the same aborts and the same pruned counts, on every registered
 * model. Any change to the derivation or to what a profile reads has
 * to pass this suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "models/models.h"
#include "partition/repair.h"
#include "search/operators.h"
#include "sim/cost_model.h"
#include "sim/mapper.h"
#include "tileflow/footprint.h"
#include "util/logging.h"
#include "util/math_util.h"

using namespace cocco;

namespace ref {

int64_t
inputTileFor(const Layer &consumer, int64_t t)
{
    return consumer.kernel + (t - 1) * static_cast<int64_t>(consumer.stride);
}

ExecutionScheme
deriveConsumptionScheme(const Graph &g, const std::vector<NodeId> &nodes,
                        int out_tile, int64_t abort_above = -1)
{
    std::unordered_set<NodeId> in_sub(nodes.begin(), nodes.end());

    std::vector<NodeId> extended;
    std::unordered_set<NodeId> in_ext = in_sub;
    for (NodeId v : nodes)
        for (NodeId u : g.preds(v))
            if (!in_sub.count(u) && in_ext.insert(u).second)
                extended.push_back(u);
    for (NodeId v : nodes)
        extended.push_back(v);
    std::sort(extended.begin(), extended.end());

    std::unordered_map<NodeId, std::vector<NodeId>> children;
    for (NodeId u : extended) {
        auto &ch = children[u];
        for (NodeId w : g.succs(u))
            if (in_sub.count(w))
                ch.push_back(w);
    }

    ExecutionScheme scheme;
    scheme.outTile = out_tile;

    std::unordered_map<NodeId, NodeScheme> result;
    int64_t running_footprint = 0;
    for (auto it = extended.rbegin(); it != extended.rend(); ++it) {
        NodeId u = *it;
        const Layer &lu = g.layer(u);
        NodeScheme ns;
        ns.node = u;
        ns.external = !in_sub.count(u);

        const auto &ch = children[u];
        if (ch.empty()) {
            ns.is_output = true;
            ns.deltaH = std::min(out_tile, lu.outH);
            ns.deltaW = std::min(out_tile, lu.outW);
            ns.xH = ns.deltaH;
            ns.xW = ns.deltaW;
        } else {
            int64_t dh = 1, dw = 1;
            for (NodeId v : ch) {
                const Layer &lv = g.layer(v);
                const NodeScheme &cs = result.at(v);
                dh = lcm64(dh, static_cast<int64_t>(cs.deltaH) * lv.stride);
                dw = lcm64(dw, static_cast<int64_t>(cs.deltaW) * lv.stride);
            }
            int64_t xh = 1, xw = 1;
            for (NodeId v : ch) {
                const Layer &lv = g.layer(v);
                xh = std::max(xh, inputTileFor(lv, dh / lv.stride));
                xw = std::max(xw, inputTileFor(lv, dw / lv.stride));
            }
            ns.deltaH = static_cast<int>(std::min<int64_t>(dh, lu.outH));
            ns.deltaW = static_cast<int>(std::min<int64_t>(dw, lu.outW));
            ns.xH = static_cast<int>(std::min<int64_t>(xh, lu.outH));
            ns.xW = static_cast<int>(std::min<int64_t>(xw, lu.outW));
        }
        result.emplace(u, ns);

        if (abort_above >= 0) {
            int64_t main_b = static_cast<int64_t>(ns.xH) * ns.xW * lu.outC;
            int overlap = 0;
            for (NodeId v : children[u]) {
                const Layer &lv = g.layer(v);
                overlap = std::max(overlap, lv.kernel - lv.stride);
            }
            bool whole = (ns.xH >= lu.outH && ns.xW >= lu.outW);
            int64_t side_b = 0;
            if (overlap > 0 && !whole && lu.outW > ns.xW)
                side_b = static_cast<int64_t>(overlap) *
                         (lu.outW - ns.xW) * lu.outC;
            running_footprint += main_b + side_b;
            if (running_footprint >= abort_above) {
                scheme.aborted = true;
                scheme.actFootprintBytes = running_footprint;
                return scheme;
            }
        }
    }

    std::unordered_map<NodeId, Rational> rval;
    bool consistent = true;
    for (NodeId seed : extended) {
        if (rval.count(seed))
            continue;
        rval.emplace(seed, Rational(1));
        std::vector<NodeId> queue{seed};
        while (!queue.empty()) {
            NodeId u = queue.back();
            queue.pop_back();
            Rational ru = rval.at(u);
            for (NodeId v : children[u]) {
                Rational want = ru / Rational(g.layer(v).stride);
                auto it2 = rval.find(v);
                if (it2 == rval.end()) {
                    rval.emplace(v, want);
                    queue.push_back(v);
                } else if (it2->second != want) {
                    consistent = false;
                }
            }
            if (in_sub.count(u)) {
                Rational want = ru * Rational(g.layer(u).stride);
                for (NodeId p : g.preds(u)) {
                    if (!in_ext.count(p))
                        continue;
                    auto it2 = rval.find(p);
                    if (it2 == rval.end()) {
                        rval.emplace(p, want);
                        queue.push_back(p);
                    } else if (it2->second != want) {
                        consistent = false;
                    }
                }
            }
        }
    }
    scheme.updConsistent = consistent;

    if (consistent) {
        int64_t lambda = 1;
        std::unordered_map<NodeId, Rational> upd_frac;
        for (NodeId u : extended) {
            Rational f = rval.at(u) / Rational(result.at(u).deltaH);
            upd_frac.emplace(u, f);
            lambda = lcm64(lambda, f.den());
        }
        int64_t common = 0;
        for (NodeId u : extended) {
            Rational f = upd_frac.at(u);
            int64_t v = f.num() * (lambda / f.den());
            result.at(u).updNum = v;
            common = gcd64(common, std::llabs(v));
        }
        if (common > 1)
            for (NodeId u : extended)
                result.at(u).updNum /= common;
    }

    for (NodeId u : extended) {
        NodeScheme &ns = result.at(u);
        const Layer &lu = g.layer(u);
        ns.mainBytes = static_cast<int64_t>(ns.xH) * ns.xW * lu.outC;
        int overlap = 0;
        for (NodeId v : children[u]) {
            const Layer &lv = g.layer(v);
            overlap = std::max(overlap, lv.kernel - lv.stride);
        }
        bool whole_resident = (ns.xH >= lu.outH && ns.xW >= lu.outW);
        if (overlap > 0 && !whole_resident && lu.outW > ns.xW) {
            ns.sideBytes = static_cast<int64_t>(overlap) *
                           (lu.outW - ns.xW) * lu.outC;
        }
        scheme.actFootprintBytes += ns.mainBytes + ns.sideBytes;
        scheme.numRegions += 1 + (ns.sideBytes > 0 ? 1 : 0);
    }

    scheme.nodes.reserve(extended.size());
    for (NodeId u : extended)
        if (result.at(u).external)
            scheme.nodes.push_back(result.at(u));
    for (NodeId u : extended)
        if (!result.at(u).external)
            scheme.nodes.push_back(result.at(u));
    return scheme;
}

ExecutionScheme
bestScheme(const Graph &g, const std::vector<NodeId> &nodes, bool prune,
           uint64_t *schemes_pruned)
{
    const std::vector<int> &candidates = defaultTileCandidates();
    if (prune) {
        std::vector<int> order(candidates);
        std::sort(order.begin(), order.end(), std::greater<int>());
        ExecutionScheme best;
        bool have = false;
        for (int t : order) {
            ExecutionScheme s = ref::deriveConsumptionScheme(
                g, nodes, t, have ? best.actFootprintBytes : -1);
            if (s.aborted) {
                ++*schemes_pruned;
                continue;
            }
            if (!have || s.actFootprintBytes < best.actFootprintBytes) {
                best = std::move(s);
                have = true;
            }
        }
        return best;
    }

    ExecutionScheme best;
    bool have = false;
    for (int t : candidates) {
        ExecutionScheme s = ref::deriveConsumptionScheme(g, nodes, t);
        if (!have || s.actFootprintBytes < best.actFootprintBytes ||
            (s.actFootprintBytes == best.actFootprintBytes &&
             s.outTile > best.outTile)) {
            best = std::move(s);
            have = true;
        }
    }
    return best;
}

std::vector<NodeId>
boundaryInputs(const Graph &g, const std::vector<NodeId> &nodes)
{
    std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());
    std::unordered_set<NodeId> result;
    for (NodeId v : nodes)
        for (NodeId u : g.preds(v))
            if (!in_set.count(u))
                result.insert(u);
    std::vector<NodeId> out(result.begin(), result.end());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<NodeId>
escapingOutputs(const Graph &g, const std::vector<NodeId> &nodes)
{
    std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());
    std::vector<NodeId> out;
    for (NodeId v : nodes) {
        bool escapes = g.succs(v).empty();
        for (NodeId w : g.succs(v))
            if (!in_set.count(w)) {
                escapes = true;
                break;
            }
        if (escapes)
            out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
}

BoundProfile
computeBoundProfile(const Graph &g, const std::vector<NodeId> &nodes)
{
    BoundProfile bp;
    std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());

    for (NodeId u : ref::boundaryInputs(g, nodes))
        bp.inBytes += g.outBytes(u);
    for (NodeId v : ref::escapingOutputs(g, nodes)) {
        if (!g.isInput(v))
            bp.outBytes += g.outBytes(v);
    }
    for (NodeId v : nodes) {
        bp.weightBytes += g.weightBytes(v);
        bp.macs += g.macs(v);
        if (g.isInput(v)) {
            for (NodeId w : g.succs(v))
                if (in_set.count(w)) {
                    bp.inBytes += g.outBytes(v);
                    break;
                }
        }
    }
    return bp;
}

SubgraphProfile
computeProfile(const Graph &g, const AcceleratorConfig &accel,
               const std::vector<NodeId> &nodes, bool prune,
               uint64_t *schemes_pruned)
{
    SubgraphProfile prof;
    prof.nodeCount = static_cast<int>(nodes.size());

    std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());

    BoundProfile bp = ref::computeBoundProfile(g, nodes);
    prof.inBytes = bp.inBytes;
    prof.outBytes = bp.outBytes;
    prof.weightBytes = bp.weightBytes;
    prof.macs = bp.macs;

    ExecutionScheme scheme =
        ref::bestScheme(g, nodes, prune, schemes_pruned);
    prof.actFootprintBytes = scheme.actFootprintBytes;
    prof.numRegions = scheme.numRegions;
    prof.outTile = scheme.outTile;

    std::unordered_set<NodeId> boundary;
    for (NodeId v : nodes)
        for (NodeId u : g.preds(v))
            if (!in_set.count(u))
                boundary.insert(u);
    auto consumers_in = [&](NodeId u) {
        int64_t n = 0;
        for (NodeId w : g.succs(u))
            if (in_set.count(w))
                ++n;
        return n;
    };
    for (NodeId u : boundary)
        prof.glbTraffic += g.outBytes(u) * (1 + consumers_in(u));
    for (NodeId v : nodes) {
        bool escapes = g.succs(v).empty();
        for (NodeId w : g.succs(v))
            if (!in_set.count(w))
                escapes = true;
        if (g.isInput(v))
            escapes = false;
        prof.glbTraffic +=
            g.outBytes(v) * (1 + consumers_in(v) + (escapes ? 1 : 0));
    }

    prof.wbufTraffic = 2 * prof.weightBytes;
    prof.mappedCycles = mappedCycles(g, nodes, accel);

    if (nodes.size() == 1) {
        const Layer &l = g.layer(nodes.front());
        prof.kernel = l.kernel;
        prof.stride = l.stride;
    }
    return prof;
}

} // namespace ref

namespace {

void
expectSameScheme(const ExecutionScheme &got, const ExecutionScheme &want,
                 const std::string &where)
{
    ASSERT_EQ(got.aborted, want.aborted) << where;
    EXPECT_EQ(got.actFootprintBytes, want.actFootprintBytes) << where;
    EXPECT_EQ(got.numRegions, want.numRegions) << where;
    EXPECT_EQ(got.outTile, want.outTile) << where;
    EXPECT_EQ(got.updConsistent, want.updConsistent) << where;
    ASSERT_EQ(got.nodes.size(), want.nodes.size()) << where;
    for (size_t i = 0; i < got.nodes.size(); ++i) {
        const NodeScheme &a = got.nodes[i];
        const NodeScheme &b = want.nodes[i];
        std::string at = where + strprintf(" entry %zu", i);
        ASSERT_EQ(a.node, b.node) << at;
        EXPECT_EQ(a.external, b.external) << at;
        EXPECT_EQ(a.is_output, b.is_output) << at;
        EXPECT_EQ(a.deltaH, b.deltaH) << at;
        EXPECT_EQ(a.deltaW, b.deltaW) << at;
        EXPECT_EQ(a.xH, b.xH) << at;
        EXPECT_EQ(a.xW, b.xW) << at;
        EXPECT_EQ(a.updNum, b.updNum) << at;
        EXPECT_EQ(a.mainBytes, b.mainBytes) << at;
        EXPECT_EQ(a.sideBytes, b.sideBytes) << at;
    }
}

void
expectSameProfile(const SubgraphProfile &got, const SubgraphProfile &want,
                  const std::string &where)
{
    EXPECT_EQ(got.nodeCount, want.nodeCount) << where;
    EXPECT_EQ(got.inBytes, want.inBytes) << where;
    EXPECT_EQ(got.outBytes, want.outBytes) << where;
    EXPECT_EQ(got.weightBytes, want.weightBytes) << where;
    EXPECT_EQ(got.macs, want.macs) << where;
    EXPECT_EQ(got.actFootprintBytes, want.actFootprintBytes) << where;
    EXPECT_EQ(got.numRegions, want.numRegions) << where;
    EXPECT_EQ(got.outTile, want.outTile) << where;
    EXPECT_EQ(got.glbTraffic, want.glbTraffic) << where;
    EXPECT_EQ(got.wbufTraffic, want.wbufTraffic) << where;
    EXPECT_EQ(got.mappedCycles, want.mappedCycles) << where;
    EXPECT_EQ(got.kernel, want.kernel) << where;
    EXPECT_EQ(got.stride, want.stride) << where;
}

void
expectSameBound(const BoundProfile &got, const BoundProfile &want,
                const std::string &where)
{
    EXPECT_EQ(got.inBytes, want.inBytes) << where;
    EXPECT_EQ(got.outBytes, want.outBytes) << where;
    EXPECT_EQ(got.weightBytes, want.weightBytes) << where;
    EXPECT_EQ(got.macs, want.macs) << where;
}

std::string
blockName(const std::vector<NodeId> &blk)
{
    return strprintf("block [%d..%d] of %zu nodes", blk.front(), blk.back(),
                     blk.size());
}

/**
 * The blocks of seeded random canonical partitions (random genomes,
 * plus structurally repaired random assignments with few ids for
 * larger blocks), the whole graph, and every singleton.
 */
std::vector<std::vector<NodeId>>
testBlocks(const Graph &g, uint64_t seed, int genomes)
{
    Rng rng(seed + g.size());
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    std::vector<Partition> parts;
    for (int i = 0; i < genomes; ++i)
        parts.push_back(randomGenome(g, space, rng).part);
    for (int i = 0; i < 2; ++i) {
        Partition p;
        p.block.resize(g.size());
        const size_t ids = 2 + rng.index(6);
        for (int &b : p.block)
            b = static_cast<int>(rng.index(ids));
        parts.push_back(repairStructure(g, p));
    }
    parts.push_back(Partition::fixedRuns(g, g.size()));
    parts.push_back(Partition::singletons(g));

    std::vector<std::vector<NodeId>> out;
    for (const Partition &p : parts) {
        EXPECT_TRUE(p.isCanonical(g)) << p.str();
        for (auto &blk : p.blocks())
            out.push_back(std::move(blk));
    }
    return out;
}

class TileFlowEquivalence : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { g_ = buildModel(GetParam()); }
    Graph g_;
};

TEST_P(TileFlowEquivalence, DerivationMatchesReference)
{
    // Every tile at every abort threshold: never, immediately, mid
    // sweep, exactly at the full footprint, and just above it.
    for (const auto &blk : testBlocks(g_, 0x7f10, 3)) {
        for (int t : defaultTileCandidates()) {
            const int64_t full =
                ref::deriveConsumptionScheme(g_, blk, t).actFootprintBytes;
            for (int64_t abort_above :
                 {int64_t{-1}, int64_t{0}, full / 2, full, full + 1}) {
                std::string where =
                    blockName(blk) +
                    strprintf(" tile %d abort %lld", t,
                              static_cast<long long>(abort_above));
                expectSameScheme(
                    deriveConsumptionScheme(g_, blk, t, abort_above),
                    ref::deriveConsumptionScheme(g_, blk, t, abort_above),
                    where);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST_P(TileFlowEquivalence, TileChoiceMatchesReference)
{
    for (const auto &blk : testBlocks(g_, 0x7f20, 3)) {
        for (bool prune : {false, true}) {
            std::string where =
                blockName(blk) + (prune ? " pruned" : " unpruned");
            uint64_t got_pruned = 0, want_pruned = 0;
            ExecutionScheme want =
                ref::bestScheme(g_, blk, prune, &want_pruned);
            expectSameScheme(bestScheme(g_, blk, defaultTileCandidates(),
                                        prune, &got_pruned),
                             want, where);
            EXPECT_EQ(got_pruned, want_pruned) << where;

            got_pruned = 0;
            FlowFootprint f = bestFootprint(g_, blk, defaultTileCandidates(),
                                            prune, &got_pruned);
            EXPECT_FALSE(f.aborted) << where;
            EXPECT_EQ(f.actFootprintBytes, want.actFootprintBytes) << where;
            EXPECT_EQ(f.numRegions, want.numRegions) << where;
            EXPECT_EQ(f.outTile, want.outTile) << where;
            EXPECT_EQ(got_pruned, want_pruned) << where;
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST_P(TileFlowEquivalence, ProfilesMatchReference)
{
    AcceleratorConfig accel;
    const auto blocks = testBlocks(g_, 0x7f30, 2);
    for (bool prune : {false, true}) {
        // Bound profiles on a model that has no full profile yet (the
        // boundary-only pass), then full profiles.
        CostModel model(g_, accel);
        model.setPruning(prune);
        for (const auto &blk : blocks)
            expectSameBound(model.boundProfile(blk),
                            ref::computeBoundProfile(g_, blk),
                            blockName(blk));

        uint64_t want_pruned = 0;
        std::set<std::vector<NodeId>> seen;
        for (const auto &blk : blocks) {
            std::string where =
                blockName(blk) + (prune ? " pruned" : " unpruned");
            uint64_t pruned = 0;
            SubgraphProfile want =
                ref::computeProfile(g_, accel, blk, prune, &pruned);
            // A block met twice is memoized: it prunes once.
            if (seen.insert(blk).second)
                want_pruned += pruned;
            expectSameProfile(model.profile(blk), want, where);
        }
        EXPECT_EQ(model.pruneStats().schemesPruned, want_pruned);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, TileFlowEquivalence,
                         ::testing::ValuesIn(ModelRegistry::instance().keys()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(TileFlowScratch, ReuseAcrossGraphsOfDifferentSizes)
{
    // One thread alternates profiles of a large and a small graph on
    // two models: the per-thread stamps and positions must never leak
    // from one subgraph, or one graph, into the next.
    AcceleratorConfig accel;
    const Graph nasnet = buildModel("NasNet");
    const Graph resnet = buildModel("ResNet50");
    const auto nas_blocks = testBlocks(nasnet, 0x7f40, 2);
    const auto res_blocks = testBlocks(resnet, 0x7f40, 2);

    auto solo = [&](const Graph &g, const std::vector<std::vector<NodeId>>
                                        &blocks) {
        CostModel model(g, accel);
        std::vector<SubgraphProfile> out;
        for (const auto &blk : blocks)
            out.push_back(model.profile(blk));
        return out;
    };
    const std::vector<SubgraphProfile> nas_want = solo(nasnet, nas_blocks);
    const std::vector<SubgraphProfile> res_want = solo(resnet, res_blocks);

    CostModel nas_model(nasnet, accel), res_model(resnet, accel);
    const size_t rounds = std::max(nas_blocks.size(), res_blocks.size());
    for (size_t i = 0; i < rounds; ++i) {
        if (i < nas_blocks.size()) {
            const auto &blk = nas_blocks[i];
            expectSameBound(nas_model.boundProfile(blk),
                            ref::computeBoundProfile(nasnet, blk),
                            "NasNet " + blockName(blk));
            expectSameProfile(nas_model.profile(blk), nas_want[i],
                              "NasNet " + blockName(blk));
        }
        if (i < res_blocks.size()) {
            const auto &blk = res_blocks[i];
            expectSameBound(res_model.boundProfile(blk),
                            ref::computeBoundProfile(resnet, blk),
                            "ResNet50 " + blockName(blk));
            expectSameProfile(res_model.profile(blk), res_want[i],
                              "ResNet50 " + blockName(blk));
        }
    }
    // And the solo profiles are the reference's.
    uint64_t pruned = 0;
    for (size_t i = 0; i < nas_blocks.size(); ++i)
        expectSameProfile(nas_want[i],
                          ref::computeProfile(nasnet, accel, nas_blocks[i],
                                              false, &pruned),
                          "NasNet " + blockName(nas_blocks[i]));
    for (size_t i = 0; i < res_blocks.size(); ++i)
        expectSameProfile(res_want[i],
                          ref::computeProfile(resnet, accel, res_blocks[i],
                                              false, &pruned),
                          "ResNet50 " + blockName(res_blocks[i]));
}

} // namespace
