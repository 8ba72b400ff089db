#include "partition/partition.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "util/logging.h"

namespace cocco {

Partition
Partition::singletons(const Graph &g)
{
    Partition p;
    p.block.resize(g.size());
    for (NodeId v = 0; v < g.size(); ++v)
        p.block[v] = v;
    p.numBlocks = g.size();
    p.markCanonical(); // node ids are topological
    return p;
}

Partition
Partition::fixedRuns(const Graph &g, int run_length)
{
    if (run_length < 1)
        fatal("fixedRuns needs run_length >= 1, got %d", run_length);
    Partition p;
    p.block.resize(g.size());
    for (NodeId v = 0; v < g.size(); ++v)
        p.block[v] = v / run_length;
    p.numBlocks = (g.size() + run_length - 1) / run_length;
    return p;
}

std::vector<std::vector<NodeId>>
Partition::blocks() const
{
    BlockLists lists;
    lists.build(*this);
    lists.dropEmpty();
    std::vector<std::vector<NodeId>> out(lists.count());
    for (int b = 0; b < lists.count(); ++b)
        out[b].assign(lists.begin(b), lists.end(b));
    return out;
}

void
BlockLists::build(const Partition &p)
{
    int nb = 0;
    if (p.canonical())
        nb = p.numBlocks; // ids are exactly [0, numBlocks)
    else
        for (int b : p.block)
            nb = std::max(nb, b + 1);
    start.assign(nb + 1, 0);
    for (int b : p.block)
        ++start[b + 1];
    for (int b = 0; b < nb; ++b)
        start[b + 1] += start[b];
    members.resize(p.block.size());
    for (NodeId v = 0; v < static_cast<NodeId>(p.block.size()); ++v)
        members[start[p.block[v]]++] = v;
    // Filling advanced start[b] to block b's end; shift back.
    for (int b = nb; b > 0; --b)
        start[b] = start[b - 1];
    start[0] = 0;
}

void
BlockLists::dropEmpty()
{
    // start is non-decreasing and an empty range repeats its start.
    start.erase(std::unique(start.begin(), start.end()), start.end());
}

std::vector<NodeId>
Partition::blockNodes(int b) const
{
    std::vector<NodeId> out;
    for (NodeId v = 0; v < static_cast<NodeId>(block.size()); ++v)
        if (block[v] == b)
            out.push_back(v);
    return out;
}

namespace {

/** Whether each of the @p num_blocks ids of a dense assignment holds
 *  one weak component: a union-find over same-block edges leaves one
 *  root per id. */
bool
blocksConnected(const Graph &g, const std::vector<int> &block,
                int num_blocks)
{
    thread_local std::vector<int> root;
    const int n = g.size();
    root.resize(n);
    auto find = [&](int v) {
        while (root[v] != v)
            v = root[v] = root[root[v]];
        return v;
    };
    int roots = n;
    for (NodeId v = 0; v < n; ++v) {
        root[v] = v;
        for (NodeId u : g.preds(v))
            if (block[u] == block[v]) {
                const int ru = find(u), rv = find(v);
                if (ru != rv) {
                    root[std::max(ru, rv)] = std::min(ru, rv);
                    --roots;
                }
            }
    }
    return roots == num_blocks;
}

} // namespace

void
Partition::canonicalize(const Graph &g)
{
    renumber(g);
    if (blocksConnected(g, block, numBlocks))
        markCanonical();
}

void
Partition::renumber(const Graph &g)
{
    if (static_cast<int>(block.size()) != g.size())
        panic("partition size %zu != graph size %d", block.size(), g.size());

    // Kahn topological order of the quotient, smallest-min-node first
    // for determinism.
    thread_local QuotientGraph q;
    q.build(g, block);
    if (q.drain() != q.numBlocks)
        panic("canonicalize on a cyclic quotient graph");
    int *ids = block.data();
    for (NodeId v = 0; v < g.size(); ++v)
        ids[v] = q.rank[q.dense[v]];
    numBlocks = q.numBlocks;
}

bool
Partition::valid(const Graph &g) const
{
    if (static_cast<int>(block.size()) != g.size())
        return false;
    if (!quotientRespectsPrecedence(g, block))
        return false;
    for (const auto &blk : blocks())
        if (!isWeaklyConnected(g, blk))
            return false;
    return true;
}

bool
Partition::isCanonical(const Graph &g) const
{
    return isCanonical(g, block, numBlocks);
}

bool
Partition::checkCanonical(const Graph &g)
{
    if (isCanonical(g))
        markCanonical();
    else
        block.drop();
    return canonical();
}

bool
Partition::isCanonical(const Graph &g, const std::vector<int> &block,
                       int numBlocks)
{
    const int n = g.size();
    if (static_cast<int>(block.size()) != n || numBlocks < 0 ||
        numBlocks > n)
        return false;

    // One pass in ascending node order (producers precede consumers):
    // ids in range, precedence (a, b), each block's smallest node and
    // ready time, and a union-find over same-block edges whose roots
    // are the smallest node of their component.
    thread_local std::vector<int> minNode, readyAt, root, stack;
    minNode.assign(numBlocks, -1);
    readyAt.assign(numBlocks, 0);
    root.resize(n);
    auto find = [&](int v) {
        while (root[v] != v)
            v = root[v] = root[root[v]];
        return v;
    };
    for (NodeId v = 0; v < n; ++v) {
        const int b = block[v];
        if (b < 0 || b >= numBlocks)
            return false;
        if (minNode[b] < 0)
            minNode[b] = v;
        root[v] = v;
        for (NodeId u : g.preds(v)) {
            const int a = block[u];
            if (a > b)
                return false;
            if (a < b) {
                readyAt[b] = std::max(readyAt[b], a + 1);
            } else {
                int ru = find(u), rv = find(v);
                root[std::max(ru, rv)] = std::min(ru, rv);
            }
        }
    }

    // (c): one component per block, rooted at the block's smallest
    // node.
    for (NodeId v = 0; v < n; ++v)
        if (find(v) != minNode[block[v]])
            return false;

    // (a) used ids and (d). The stack holds the suffix maxima of
    // minNode over [0, b): the first entry at or past readyAt(b) is
    // the largest minNode in b's window, and every entry popped here
    // is dominated by b for all later windows too.
    stack.clear();
    for (int b = 0; b < numBlocks; ++b) {
        if (minNode[b] < 0)
            return false;
        while (!stack.empty() && minNode[stack.back()] < minNode[b])
            stack.pop_back();
        if (!stack.empty() && stack.back() >= readyAt[b])
            return false;
        stack.push_back(b);
    }
    return true;
}

std::string
Partition::str() const
{
    std::string s;
    for (const auto &blk : blocks()) {
        s += "{";
        for (size_t i = 0; i < blk.size(); ++i)
            s += (i ? "," : "") + strprintf("%d", blk[i]);
        s += "}";
    }
    return s;
}

} // namespace cocco
