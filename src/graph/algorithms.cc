#include "graph/algorithms.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_set>

#include "util/logging.h"

namespace cocco {

std::vector<NodeId>
topoOrder(const Graph &g)
{
    std::vector<NodeId> order(g.size());
    std::iota(order.begin(), order.end(), 0);
    return order;
}

std::vector<int>
nodeDepths(const Graph &g)
{
    std::vector<int> depth(g.size(), 0);
    for (NodeId v = 0; v < g.size(); ++v) {
        int d = 0;
        for (NodeId u : g.preds(v))
            d = std::max(d, depth[u] + 1);
        depth[v] = d;
    }
    return depth;
}

std::vector<NodeId>
depthOrder(const Graph &g)
{
    std::vector<int> depth = nodeDepths(g);
    std::vector<NodeId> order(g.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return depth[a] < depth[b];
    });
    return order;
}

bool
isWeaklyConnected(const Graph &g, const std::vector<NodeId> &nodes)
{
    if (nodes.size() <= 1)
        return true;
    return weakComponents(g, nodes).size() == 1;
}

std::vector<std::vector<NodeId>>
weakComponents(const Graph &g, const std::vector<NodeId> &nodes)
{
    // Per node: 0 outside the subset, 1 in it, 2 visited. Only the
    // subset's entries are ever set, and they are cleared on return.
    thread_local std::vector<char> state;
    thread_local std::vector<NodeId> sorted, stack;
    if (static_cast<int>(state.size()) < g.size())
        state.resize(g.size(), 0);
    for (NodeId v : nodes)
        state[v] = 1;
    sorted.assign(nodes.begin(), nodes.end());
    std::sort(sorted.begin(), sorted.end());

    std::vector<std::vector<NodeId>> comps;
    for (NodeId seed : sorted) {
        if (state[seed] != 1)
            continue;
        std::vector<NodeId> comp;
        stack.assign(1, seed);
        state[seed] = 2;
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            comp.push_back(v);
            for (const auto *adj : {&g.preds(v), &g.succs(v)})
                for (NodeId w : *adj)
                    if (state[w] == 1) {
                        state[w] = 2;
                        stack.push_back(w);
                    }
        }
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
    }
    for (NodeId v : nodes)
        state[v] = 0;
    return comps;
}

bool
quotientRespectsPrecedence(const Graph &g, const std::vector<int> &block)
{
    if (static_cast<int>(block.size()) != g.size())
        panic("block assignment size mismatch");
    for (NodeId v = 0; v < g.size(); ++v)
        for (NodeId u : g.preds(v))
            if (block[u] > block[v])
                return false;
    return true;
}

bool
quotientIsAcyclic(const Graph &g, const std::vector<int> &block)
{
    thread_local QuotientGraph q;
    q.build(g, block);
    return q.drain() == q.numBlocks;
}

void
QuotientGraph::build(const Graph &g, const std::vector<int> &block)
{
    const int n = g.size();
    if (static_cast<int>(block.size()) != n)
        panic("block assignment size mismatch");

    // Dense indices in ascending id order, through a table with one slot
    // per id in [min, max].
    int lo = 0, hi = -1;
    if (n > 0) {
        auto [mn, mx] = std::minmax_element(block.begin(), block.end());
        lo = *mn;
        hi = *mx;
    }
    const int64_t range = static_cast<int64_t>(hi) - lo + 1;
    scratch.assign(range, -1);
    for (int b : block)
        scratch[b - lo] = 0;
    ids.clear();
    for (int64_t i = 0; i < range; ++i)
        if (scratch[i] == 0) {
            scratch[i] = static_cast<int>(ids.size());
            ids.push_back(static_cast<int>(lo + i));
        }
    dense.resize(n);
    for (NodeId v = 0; v < n; ++v)
        dense[v] = scratch[block[v] - lo];
    numBlocks = static_cast<int>(ids.size());

    size.assign(numBlocks, 0);
    minNode.resize(numBlocks);
    for (NodeId v = 0; v < n; ++v)
        if (size[dense[v]]++ == 0)
            minNode[dense[v]] = v;

    // Inter-block edges in CSR: count per source, prefix-sum, fill.
    edgeStart.assign(numBlocks + 1, 0);
    indeg.assign(numBlocks, 0);
    for (NodeId v = 0; v < n; ++v)
        for (NodeId u : g.preds(v))
            if (dense[u] != dense[v]) {
                ++edgeStart[dense[u] + 1];
                ++indeg[dense[v]];
            }
    for (int b = 0; b < numBlocks; ++b)
        edgeStart[b + 1] += edgeStart[b];
    edgeDst.resize(edgeStart[numBlocks]);
    scratch.assign(edgeStart.begin(), edgeStart.end() - 1);
    for (NodeId v = 0; v < n; ++v)
        for (NodeId u : g.preds(v))
            if (dense[u] != dense[v])
                edgeDst[scratch[dense[u]]++] = dense[v];
}

int
QuotientGraph::drain()
{
    // Min-heap on minNode (unique per block, so the order is total).
    auto later = [&](int a, int b) { return minNode[a] > minNode[b]; };
    std::vector<int> &heap = scratch;
    heap.clear();
    for (int b = 0; b < numBlocks; ++b)
        if (indeg[b] == 0)
            heap.push_back(b);
    std::make_heap(heap.begin(), heap.end(), later);
    rank.assign(numBlocks, -1);
    int next = 0;
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        int b = heap.back();
        heap.pop_back();
        rank[b] = next++;
        for (int e = edgeStart[b]; e < edgeStart[b + 1]; ++e)
            if (--indeg[edgeDst[e]] == 0) {
                heap.push_back(edgeDst[e]);
                std::push_heap(heap.begin(), heap.end(), later);
            }
    }
    return next;
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

} // namespace cocco
