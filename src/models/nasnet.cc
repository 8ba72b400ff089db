/**
 * @file
 * NasNet-A-like network (Zoph et al., CVPR'18) at 331x331x3.
 *
 * Implements the published NasNet-A normal and reduction cell wiring
 * (five blocks combining the two previous cell outputs with separable
 * convolutions, average pools, and identities, concatenated at the
 * end). The stack follows the large model: stem, two stem-reduction
 * cells, then three stages of N normal cells separated by reduction
 * cells, with the filter count doubling per stage.
 *
 * We default to N=4 and base filters F=168 — a faithful topology at a
 * size that keeps search benches laptop-runnable; the graph is the
 * largest and most memory-intensive of the evaluated models, matching
 * its role in the paper's experiments.
 * Knobs: resolution, depth (cells per stage), widthMult (base F).
 */

#include <algorithm>

#include "models/builder_util.h"
#include "models/models.h"

namespace cocco {

namespace {

/** Separable conv: depth-wise k x k then dense 1x1 to @p out_c. */
NodeId
sep(ModelBuilder &b, NodeId in, int out_c, int k, int stride,
    const std::string &name)
{
    NodeId y = b.dwconv(in, k, stride, name + "_dw");
    return b.conv(y, out_c, 1, 1, name + "_pw");
}

/** 1x1 adapter bringing a tensor to @p out_c channels (and stride). */
NodeId
squeeze(ModelBuilder &b, NodeId in, int out_c, int stride,
        const std::string &name)
{
    return b.conv(in, out_c, 1, stride, name);
}

/**
 * NasNet-A normal cell. @p h_prev and @p h_cur are the two previous
 * cell outputs; both are first adapted to @p f channels. Returns the
 * concatenated cell output (5 blocks + adapted h_prev -> 6f channels).
 */
NodeId
normalCell(ModelBuilder &b, NodeId h_prev, NodeId h_cur, int f,
           const std::string &p)
{
    // Adapt spatial mismatch of h_prev (after a reduction) via stride.
    int stride_prev = static_cast<int>(
        ceilDiv(b.graph().layer(h_prev).outH, b.graph().layer(h_cur).outH));
    if (stride_prev < 1)
        stride_prev = 1;
    NodeId hp = squeeze(b, h_prev, f, stride_prev, p + "_adj_prev");
    NodeId hc = squeeze(b, h_cur, f, 1, p + "_adj_cur");

    NodeId b1 = b.add({sep(b, hc, f, 3, 1, p + "_b1s3"), hc}, p + "_b1");
    NodeId b2 = b.add({sep(b, hp, f, 3, 1, p + "_b2s3"),
                       sep(b, hc, f, 5, 1, p + "_b2s5")}, p + "_b2");
    NodeId b3 = b.add({b.pool(hc, 3, 1, p + "_b3avg"), hp}, p + "_b3");
    NodeId b4 = b.add({b.pool(hp, 3, 1, p + "_b4avg1"),
                       b.pool(hp, 3, 1, p + "_b4avg2")}, p + "_b4");
    NodeId b5 = b.add({sep(b, hp, f, 5, 1, p + "_b5s5"),
                       sep(b, hp, f, 3, 1, p + "_b5s3")}, p + "_b5");

    return b.concat({hp, b1, b2, b3, b4, b5}, p + "_out");
}

/**
 * NasNet-A reduction cell: blocks stride the current input by 2.
 * Returns the concatenated output (4f channels at half resolution).
 */
NodeId
reductionCell(ModelBuilder &b, NodeId h_prev, NodeId h_cur, int f,
              const std::string &p)
{
    int stride_prev = static_cast<int>(
        ceilDiv(b.graph().layer(h_prev).outH, b.graph().layer(h_cur).outH));
    if (stride_prev < 1)
        stride_prev = 1;
    NodeId hp = squeeze(b, h_prev, f, stride_prev, p + "_adj_prev");
    NodeId hc = squeeze(b, h_cur, f, 1, p + "_adj_cur");

    NodeId b1 = b.add({sep(b, hc, f, 5, 2, p + "_b1s5"),
                       sep(b, hp, f, 7, 2, p + "_b1s7")}, p + "_b1");
    NodeId b2 = b.add({b.pool(hc, 3, 2, p + "_b2max"),
                       sep(b, hp, f, 7, 2, p + "_b2s7")}, p + "_b2");
    NodeId b3 = b.add({b.pool(hc, 3, 2, p + "_b3avg"),
                       sep(b, hp, f, 5, 2, p + "_b3s5")}, p + "_b3");
    NodeId b4 = b.add({b.pool(b1, 3, 1, p + "_b4max"),
                       sep(b, b1, f, 3, 1, p + "_b4s3")}, p + "_b4");
    NodeId b5 = b.add({b.pool(b1, 3, 1, p + "_b5avg"), b2}, p + "_b5");

    return b.concat({b3, b4, b5, b2}, p + "_out");
}

} // namespace

Graph
buildNasNet(const ModelParams &params)
{
    const int n_cells = paramOr(params.depth, 4); // normal cells per stage
    const int f0 = scaleChannels(168, params.widthMult); // base filters
    const int res = paramOr(params.resolution, 331);

    ModelBuilder b("NasNet");
    NodeId stem = b.input(res, res, 3);
    stem = b.conv(stem, 96, 3, 2, "stem");

    // Two stem reduction cells bring 166x166 down to 42x42.
    NodeId prev = stem;
    // Clamped like scaleChannels: a tiny widthMult must not derive a
    // 0-channel layer.
    NodeId cur =
        reductionCell(b, stem, stem, std::max(1, f0 / 4), "stem_r1");
    NodeId nxt =
        reductionCell(b, prev, cur, std::max(1, f0 / 2), "stem_r2");
    prev = cur;
    cur = nxt;

    int f = f0;
    for (int stage = 0; stage < 3; ++stage) {
        for (int i = 0; i < n_cells; ++i) {
            NodeId out = normalCell(b, prev, cur, f,
                                    strprintf("s%d_n%d", stage + 1, i + 1));
            prev = cur;
            cur = out;
        }
        if (stage < 2) {
            f *= 2;
            NodeId out = reductionCell(b, prev, cur, f,
                                       strprintf("s%d_r", stage + 1));
            prev = cur;
            cur = out;
        }
    }

    cur = b.globalPool(cur, "avgpool");
    cur = b.fc(cur, 1000, "fc1000");
    return b.take();
}

void
registerNasNetModels(ModelRegistry &r)
{
    ModelInfo info;
    info.name = "NasNet";
    info.summary = "NasNet-A cell stack (4 normal cells/stage, F=168)";
    info.knobs = kKnobResolution | kKnobDepth | kKnobWidthMult;
    info.defaults.resolution = 331;
    info.defaults.depth = 4;
    r.add(info, &buildNasNet);
}

} // namespace cocco
