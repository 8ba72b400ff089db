#include "partition/dp.h"

#include <algorithm>
#include <limits>

#include "graph/algorithms.h"
#include "partition/repair.h"
#include "util/logging.h"

namespace cocco {

namespace {

double
metricOf(const SubgraphCost &c, Metric m)
{
    return m == Metric::EMA ? static_cast<double>(c.emaBytes) : c.energyPj;
}

} // namespace

Partition
dpPartition(const Graph &g, CostModel &model, const BufferConfig &buf,
            Metric metric, int max_run)
{
    const int n = g.size();
    std::vector<NodeId> order = depthOrder(g);

    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dp(n + 1, kInf);
    std::vector<int> from(n + 1, -1);
    dp[0] = 0.0;

    for (int i = 1; i <= n; ++i) {
        // Consider blocks order[j..i) for j in [i - max_run, i).
        int j_lo = std::max(0, i - max_run);
        for (int j = i - 1; j >= j_lo; --j) {
            if (dp[j] == kInf)
                continue;
            std::vector<NodeId> blk(order.begin() + j, order.begin() + i);
            SubgraphCost c = model.subgraphCost(blk, buf);
            if (!c.feasible)
                continue;
            double cand = dp[j] + metricOf(c, metric);
            if (cand < dp[i]) {
                dp[i] = cand;
                from[i] = j;
            }
        }
        // Every singleton is feasible, so dp[i] is always reachable.
        if (dp[i] == kInf)
            panic("DP dead end at position %d", i);
    }

    // Reconstruct the segmentation.
    Partition p;
    p.block.assign(n, 0);
    std::vector<std::pair<int, int>> segs;
    for (int i = n; i > 0; i = from[i])
        segs.emplace_back(from[i], i);
    std::reverse(segs.begin(), segs.end());
    int b = 0;
    for (auto [j, i] : segs) {
        for (int k = j; k < i; ++k)
            p.block[order[k]] = b;
        ++b;
    }

    // Depth-contiguous blocks always respect precedence but may be
    // disconnected; structural repair splits them into their components
    // (costs only get more accurate: a disconnected "block" behaves
    // exactly like its components) and canonicalizes the numbering.
    return repairStructure(g, std::move(p));
}

} // namespace cocco
