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
    // Count nodes per id, then turn each non-empty id's count into its
    // index among the non-empty ids (empty ids of non-canonical input
    // get no list; id order is kept).
    thread_local std::vector<int> slot;
    int nb = 0;
    for (int b : block)
        nb = std::max(nb, b + 1);
    slot.assign(nb, 0);
    for (int b : block)
        ++slot[b];
    std::vector<std::vector<NodeId>> out;
    for (int &s : slot)
        if (s > 0) {
            out.emplace_back().reserve(s);
            s = static_cast<int>(out.size()) - 1;
        }
    for (NodeId v = 0; v < static_cast<NodeId>(block.size()); ++v)
        out[slot[block[v]]].push_back(v);
    return out;
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

void
Partition::canonicalize(const Graph &g)
{
    if (static_cast<int>(block.size()) != g.size())
        panic("partition size %zu != graph size %d", block.size(), g.size());

    // Kahn topological order of the quotient, smallest-min-node first
    // for determinism.
    thread_local QuotientGraph q;
    q.build(g, block);
    if (q.drain() != q.numBlocks)
        panic("canonicalize on a cyclic quotient graph");
    for (NodeId v = 0; v < g.size(); ++v)
        block[v] = q.rank[q.dense[v]];
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
