#include "search/operators.h"

#include <algorithm>
#include <cmath>

#include "partition/repair.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** Clamp a grid index. */
int
clampIdx(int idx, const CapacityGrid &grid)
{
    return std::clamp(idx, 0, grid.count - 1);
}

/** Gaussian integer step on a grid index. */
int
gaussStep(int idx, const CapacityGrid &grid, Rng &rng, double sigma)
{
    int step = static_cast<int>(std::lround(rng.gaussian() * sigma));
    if (step == 0)
        step = rng.bernoulli(0.5) ? 1 : -1;
    return clampIdx(idx + step, grid);
}

/** One past the largest block id of @p p (a fresh id). */
int
freshBlock(const Partition &p)
{
    int fresh = 0;
    for (int b : p.block)
        fresh = std::max(fresh, b + 1);
    return fresh;
}

/**
 * Node lists of every block id of a partition in CSR form: block b's
 * nodes, ascending, are members[start[b] .. start[b + 1]). Ids with no
 * nodes get empty ranges.
 */
struct BlockLists
{
    std::vector<int> start;
    std::vector<NodeId> members;

    void
    build(const Partition &p)
    {
        const int nb = freshBlock(p);
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

    int size(int b) const { return start[b + 1] - start[b]; }
    const NodeId *begin(int b) const { return members.data() + start[b]; }
    const NodeId *end(int b) const { return members.data() + start[b + 1]; }
};

} // namespace

Genome
randomGenome(const Graph &g, const DseSpace &space, Rng &rng)
{
    Genome genome;
    genome.part.block.assign(g.size(), 0);

    // Topological sweep; each node joins a block in
    // [max(pred blocks), next fresh block].
    int next_block = 0;
    for (NodeId v = 0; v < g.size(); ++v) {
        int lo = 0;
        for (NodeId u : g.preds(v))
            lo = std::max(lo, genome.part.block[u]);
        int hi = next_block; // == fresh block id
        int pick = static_cast<int>(rng.uniformInt(lo, hi));
        genome.part.block[v] = pick;
        next_block = std::max(next_block, pick + 1);
    }
    genome.part = repairStructure(g, std::move(genome.part));

    if (space.searchHw) {
        genome.actIdx =
            static_cast<int>(rng.uniformInt(0, space.actGrid.count - 1));
        genome.weightIdx =
            static_cast<int>(rng.uniformInt(0, space.weightGrid.count - 1));
        genome.sharedIdx =
            static_cast<int>(rng.uniformInt(0, space.sharedGrid.count - 1));
    }
    return genome;
}

Genome
crossover(const Graph &g, const DseSpace &space, const Genome &dad,
          const Genome &mom, Rng &rng, GeneDelta *delta)
{
    if (delta) {
        // The child partition is written from scratch; an empty node
        // list with the flag set encodes the global rewrite.
        delta->partitionChanged = true;
        if (space.searchHw)
            delta->noteHw();
    }
    thread_local BlockLists dad_blocks, mom_blocks;
    thread_local std::vector<NodeId> undecided;
    thread_local std::vector<int> decided_blocks;
    dad_blocks.build(dad.part);
    mom_blocks.build(mom.part);

    Genome child;
    std::vector<int> &block = child.part.block;
    block.assign(g.size(), -1);
    int next_block = 0;

    for (NodeId v = 0; v < g.size(); ++v) {
        if (block[v] >= 0)
            continue;
        const bool from_dad = rng.bernoulli(0.5);
        const BlockLists &lists = from_dad ? dad_blocks : mom_blocks;
        const int sub = (from_dad ? dad.part : mom.part).block[v];

        // Partition the reproduced subgraph into decided/undecided
        // (v itself is undecided, so the latter is never empty).
        undecided.clear();
        decided_blocks.clear();
        for (const NodeId *u = lists.begin(sub); u != lists.end(sub); ++u) {
            if (block[*u] >= 0)
                decided_blocks.push_back(block[*u]);
            else
                undecided.push_back(*u);
        }
        std::sort(decided_blocks.begin(), decided_blocks.end());
        decided_blocks.erase(
            std::unique(decided_blocks.begin(), decided_blocks.end()),
            decided_blocks.end());

        int target;
        if (!decided_blocks.empty() && rng.bernoulli(0.5)) {
            // Merge with one of the subgraphs the decided layers
            // belong to (Figure 9(b), Child-2).
            target = decided_blocks[rng.index(decided_blocks.size())];
        } else {
            // Split out a new subgraph (Child-1).
            target = next_block++;
        }
        for (NodeId u : undecided)
            block[u] = target;
    }

    child.part = repairStructure(g, std::move(child.part));

    if (space.searchHw) {
        child.actIdx = clampIdx((dad.actIdx + mom.actIdx + 1) / 2,
                                space.actGrid);
        child.weightIdx = clampIdx((dad.weightIdx + mom.weightIdx + 1) / 2,
                                   space.weightGrid);
        child.sharedIdx = clampIdx((dad.sharedIdx + mom.sharedIdx + 1) / 2,
                                   space.sharedGrid);
    }
    return child;
}

void
mutateModifyNode(const Graph &g, Genome &genome, Rng &rng, GeneDelta *delta)
{
    NodeId v = static_cast<NodeId>(rng.index(g.size()));

    // Candidate targets, in draw order: blocks of predecessors, blocks
    // of successors, a fresh block.
    const auto &preds = g.preds(v);
    const auto &succs = g.succs(v);
    size_t pick = rng.index(preds.size() + succs.size() + 1);
    int target;
    if (pick < preds.size())
        target = genome.part.block[preds[pick]];
    else if (pick < preds.size() + succs.size())
        target = genome.part.block[succs[pick - preds.size()]];
    else
        target = freshBlock(genome.part);
    if (target == genome.part.block[v])
        return; // node keeps its block: genome unchanged
    if (delta)
        delta->noteNode(v);
    genome.part.block[v] = target;
    genome.part = repairStructure(g, std::move(genome.part));
}

void
mutateSplitSubgraph(const Graph &g, Genome &genome, Rng &rng,
                    GeneDelta *delta)
{
    thread_local BlockLists lists;
    lists.build(genome.part);
    const int nb = static_cast<int>(lists.start.size()) - 1; // fresh id
    size_t multi = 0;
    for (int b = 0; b < nb; ++b)
        multi += lists.size(b) >= 2;
    if (multi == 0)
        return;

    // The k-th multi-node block in id order.
    size_t k = rng.index(multi);
    int b = 0;
    while (lists.size(b) < 2 || k-- > 0)
        ++b;
    // Split at a random interior point of the id-sorted node list.
    size_t cut = 1 + rng.index(lists.size(b) - 1);
    for (const NodeId *v = lists.begin(b) + cut; v != lists.end(b); ++v) {
        if (delta)
            delta->noteNode(*v);
        genome.part.block[*v] = nb;
    }
    genome.part = repairStructure(g, std::move(genome.part));
}

void
mutateMergeSubgraph(const Graph &g, Genome &genome, Rng &rng,
                    GeneDelta *delta)
{
    // Pick an inter-block edge (in node, then pred order); merging
    // adjacent blocks keeps the result connected (structural repair
    // handles any cycle fallout).
    const std::vector<int> &block = genome.part.block;
    size_t edges = 0;
    for (NodeId v = 0; v < g.size(); ++v)
        for (NodeId u : g.preds(v))
            edges += block[u] != block[v];
    if (edges == 0)
        return;
    size_t k = rng.index(edges);
    int a = -1, b = -1;
    for (NodeId v = 0; v < g.size() && a < 0; ++v)
        for (NodeId u : g.preds(v))
            if (block[u] != block[v] && k-- == 0) {
                a = block[u];
                b = block[v];
                break;
            }
    for (NodeId v = 0; v < g.size(); ++v)
        if (genome.part.block[v] == b) {
            if (delta)
                delta->noteNode(v);
            genome.part.block[v] = a;
        }
    genome.part = repairStructure(g, std::move(genome.part));
}

void
mutateDse(const DseSpace &space, Genome &genome, Rng &rng, double sigma,
          GeneDelta *delta)
{
    if (!space.searchHw)
        return;
    if (space.style == BufferStyle::Shared) {
        int idx = gaussStep(genome.sharedIdx, space.sharedGrid, rng, sigma);
        if (delta && idx != genome.sharedIdx)
            delta->noteHw();
        genome.sharedIdx = idx;
    } else if (rng.bernoulli(0.5)) {
        int idx = gaussStep(genome.actIdx, space.actGrid, rng, sigma);
        if (delta && idx != genome.actIdx)
            delta->noteHw();
        genome.actIdx = idx;
    } else {
        int idx = gaussStep(genome.weightIdx, space.weightGrid, rng, sigma);
        if (delta && idx != genome.weightIdx)
            delta->noteHw();
        genome.weightIdx = idx;
    }
}

} // namespace cocco
