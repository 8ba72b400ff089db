#include "tileflow/footprint.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace cocco {

const std::vector<int> &
defaultTileCandidates()
{
    static const std::vector<int> candidates{1, 2, 4, 8};
    return candidates;
}

FlowFootprint
bestFootprint(const Graph &g, const std::vector<NodeId> &nodes,
              const std::vector<int> &candidates, bool prune,
              uint64_t *schemes_pruned)
{
    if (candidates.empty())
        panic("bestScheme needs at least one tile candidate");
    thread_local std::vector<int> order;
    order.assign(candidates.begin(), candidates.end());
    std::sort(order.begin(), order.end(), std::greater<int>());

    TileFlow &flow = TileFlow::local();
    flow.index(g, nodes);
    FlowFootprint best;
    bool have = false;
    for (int t : order) {
        FlowFootprint f = flow.derive(
            t, prune && have ? best.actFootprintBytes : -1);
        if (f.aborted) {
            if (schemes_pruned)
                ++*schemes_pruned;
            continue;
        }
        if (!have || f.actFootprintBytes < best.actFootprintBytes) {
            best = f;
            have = true;
        }
    }
    return best;
}

ExecutionScheme
bestScheme(const Graph &g, const std::vector<NodeId> &nodes,
           const std::vector<int> &candidates, bool prune,
           uint64_t *schemes_pruned)
{
    int t = bestFootprint(g, nodes, candidates, prune, schemes_pruned).outTile;
    return deriveConsumptionScheme(g, nodes, t);
}

} // namespace cocco
