/**
 * @file
 * RandWire networks (Xie et al., ICCV'19) generated with the
 * Watts-Strogatz (WS) random-graph model and oriented into a DAG by
 * node index, as in the original paper.
 *
 * Variant 'A' follows the small regime: a conv stem plus three random
 * stages of N=32 nodes with WS(32, 4, 0.75) wiring and base width
 * C=78. Variant 'B' follows the regular regime: four random stages
 * (the first halved to N=16) with WS(K=8) wiring and C=109.
 *
 * Each random node is an aggregation (element-wise weighted sum when
 * in-degree > 1) followed by a ReLU-SepConv3x3 (depth-wise 3x3 then
 * 1x1 dense); stage entry nodes use stride 2 to downsample. Sink
 * nodes of a stage are averaged into a single stage output.
 */

#include <algorithm>
#include <set>
#include <utility>

#include "models/builder_util.h"
#include "models/models.h"
#include "util/random.h"

namespace cocco {

namespace {

/**
 * Generate an undirected Watts-Strogatz graph on @p n nodes: ring
 * lattice with @p k nearest neighbours, each edge rewired with
 * probability @p p. Returns the edge set (i < j pairs).
 */
std::set<std::pair<int, int>>
wattsStrogatz(int n, int k, double p, Rng &rng)
{
    std::set<std::pair<int, int>> edges;
    auto norm = [](int a, int b) {
        return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    };
    // Ring lattice.
    for (int i = 0; i < n; ++i)
        for (int j = 1; j <= k / 2; ++j)
            edges.insert(norm(i, (i + j) % n));
    // Rewire.
    std::vector<std::pair<int, int>> initial(edges.begin(), edges.end());
    for (auto [a, bnode] : initial) {
        if (!rng.bernoulli(p))
            continue;
        // Rewire the far endpoint to a uniformly random non-self,
        // non-duplicate target.
        for (int attempt = 0; attempt < 32; ++attempt) {
            int t = static_cast<int>(rng.index(static_cast<size_t>(n)));
            if (t == a || t == bnode)
                continue;
            auto candidate = norm(a, t);
            if (edges.count(candidate))
                continue;
            edges.erase(norm(a, bnode));
            edges.insert(candidate);
            break;
        }
    }
    return edges;
}

/** A separable conv: depth-wise k x k then dense 1x1 to @p out_c. */
NodeId
sepConv(ModelBuilder &b, NodeId in, int out_c, int stride,
        const std::string &prefix)
{
    NodeId y = b.dwconv(in, 3, stride, prefix + "_dw");
    return b.conv(y, out_c, 1, 1, prefix + "_pw");
}

/**
 * Emit one random stage: @p n WS nodes of width @p c, entry nodes at
 * stride 2. @p stage_in is the previous stage output.
 */
NodeId
randomStage(ModelBuilder &b, NodeId stage_in, int n, int k, double p, int c,
            Rng &rng, const std::string &prefix)
{
    auto edges = wattsStrogatz(n, k, p, rng);

    std::vector<std::vector<int>> preds(n);
    std::vector<bool> has_succ(n, false);
    for (auto [i, j] : edges) {
        preds[j].push_back(i);
        has_succ[i] = true;
    }

    std::vector<NodeId> node_out(n, -1);
    for (int i = 0; i < n; ++i) {
        std::string name = strprintf("%s_n%d", prefix.c_str(), i);
        NodeId in;
        int stride = 1;
        if (preds[i].empty()) {
            // Stage entry: consumes the previous stage output, stride 2.
            in = stage_in;
            stride = 2;
        } else if (preds[i].size() == 1) {
            in = node_out[preds[i][0]];
        } else {
            std::vector<NodeId> ins;
            for (int u : preds[i])
                ins.push_back(node_out[u]);
            in = b.add(ins, name + "_agg");
        }
        node_out[i] = sepConv(b, in, c, stride, name);
    }

    // Average the sinks into a single stage output.
    std::vector<NodeId> sinks;
    for (int i = 0; i < n; ++i)
        if (!has_succ[i])
            sinks.push_back(node_out[i]);
    if (sinks.size() == 1)
        return sinks[0];
    return b.add(sinks, prefix + "_out");
}

} // namespace

Graph
buildRandWire(char variant, const ModelParams &params)
{
    if (variant != 'A' && variant != 'B')
        fatal("RandWire variant must be 'A' or 'B', got '%c'", variant);

    const bool small = (variant == 'A');
    const int res = paramOr(params.resolution, 224);
    const int c = scaleChannels(small ? 78 : 109, params.widthMult);
    const int head = scaleChannels(1280, params.widthMult);
    const int k = small ? 4 : 8;
    const double p = 0.75;

    Rng rng(params.seed * 7919 + (small ? 1 : 2));
    ModelBuilder b(strprintf("RandWire-%c", variant));

    NodeId x = b.input(res, res, 3);
    // Clamped like scaleChannels: a tiny widthMult must not derive a
    // 0-channel stem.
    x = b.conv(x, std::max(1, c / 2), 3, 2, "stem");

    if (small) {
        // Small regime: conv2 is a plain conv stage; conv3-5 random.
        x = b.conv(x, c, 3, 2, "conv2");
        x = randomStage(b, x, 32, k, p, c, rng, "s3");
        x = randomStage(b, x, 32, k, p, 2 * c, rng, "s4");
        x = randomStage(b, x, 32, k, p, 4 * c, rng, "s5");
        x = b.conv(x, head, 1, 1, "head");
    } else {
        // Regular regime: conv2-5 all random, conv2 halved node count.
        x = randomStage(b, x, 16, k, p, c, rng, "s2");
        x = randomStage(b, x, 32, k, p, 2 * c, rng, "s3");
        x = randomStage(b, x, 32, k, p, 4 * c, rng, "s4");
        x = randomStage(b, x, 32, k, p, 8 * c, rng, "s5");
        x = b.conv(x, head, 1, 1, "head");
    }

    x = b.globalPool(x, "avgpool");
    x = b.fc(x, 1000, "fc1000");
    return b.take();
}

Graph
buildRandWire(char variant, uint64_t seed)
{
    ModelParams params;
    params.seed = seed;
    return buildRandWire(variant, params);
}

namespace {

Graph
buildRandWireA(const ModelParams &params)
{
    return buildRandWire('A', params);
}

Graph
buildRandWireB(const ModelParams &params)
{
    return buildRandWire('B', params);
}

} // namespace

void
registerRandWireModels(ModelRegistry &r)
{
    ModelInfo info;
    info.knobs = kKnobResolution | kKnobWidthMult | kKnobSeed;
    info.defaults.resolution = 224;

    info.name = "RandWire-A";
    info.summary = "Watts-Strogatz random CNN, small regime "
                   "(WS(32,4,0.75), C=78; deterministic per seed)";
    r.add(info, &buildRandWireA, {"RandWire"});

    info.name = "RandWire-B";
    info.summary = "Watts-Strogatz random CNN, regular regime "
                   "(WS(32,8,0.75), C=109; deterministic per seed)";
    r.add(info, &buildRandWireB);
}

} // namespace cocco
