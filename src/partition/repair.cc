#include "partition/repair.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace cocco {

namespace {

/**
 * Reassign every block to the weak components it decomposes into. The
 * component holding a block's smallest node keeps the block's id; the
 * others take fresh ids max+1, max+2, ... in (block id, smallest node)
 * order.
 */
void
splitComponents(const Graph &g, Partition &p)
{
    thread_local std::vector<int> comp, compBlock, moved;
    thread_local std::vector<NodeId> stack;
    thread_local std::vector<char> kept;

    // One DFS over same-block edges, seeded in ascending node order,
    // so components are numbered by their smallest node.
    const int n = g.size();
    comp.assign(n, -1);
    compBlock.clear();
    for (NodeId s = 0; s < n; ++s) {
        if (comp[s] >= 0)
            continue;
        const int c = static_cast<int>(compBlock.size());
        const int b = p.block[s];
        compBlock.push_back(b);
        comp[s] = c;
        stack.assign(1, s);
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            for (const auto *adj : {&g.preds(v), &g.succs(v)})
                for (NodeId w : *adj)
                    if (comp[w] < 0 && p.block[w] == b) {
                        comp[w] = c;
                        stack.push_back(w);
                    }
        }
    }

    int next = 0;
    for (int b : p.block) {
        if (b < 0)
            panic("repairStructure: negative block id %d", b);
        next = std::max(next, b + 1);
    }
    kept.assign(next, 0);
    moved.clear();
    for (int c = 0; c < static_cast<int>(compBlock.size()); ++c) {
        if (kept[compBlock[c]])
            moved.push_back(c);
        else
            kept[compBlock[c]] = 1;
    }
    if (moved.empty())
        return;
    std::sort(moved.begin(), moved.end(), [&](int a, int c) {
        return compBlock[a] != compBlock[c] ? compBlock[a] < compBlock[c]
                                            : a < c;
    });
    for (int c : moved)
        compBlock[c] = next++;
    for (NodeId v = 0; v < n; ++v)
        p.block[v] = compBlock[comp[v]];
}

/** Split block @p b of @p p at its median node id into two blocks. */
void
splitAtMedian(Partition &p, int b)
{
    int count = 0, next = 0;
    for (int x : p.block) {
        count += x == b;
        next = std::max(next, x + 1);
    }
    if (count < 2)
        panic("splitAtMedian on a singleton block");
    // Node ids are topologically ordered; move the upper half out.
    int rank = 0;
    for (int &x : p.block)
        if (x == b && rank++ >= count / 2)
            x = next;
}

/**
 * Split every multi-node block that does not fit @p buf until each
 * piece fits or is a singleton, touching each block once. A block
 * splits as splitAtMedian splits it (its first floor(k/2) nodes stay),
 * and each half into its weak components. Node ids are topological,
 * so every edge between the halves runs from the lower to the upper
 * one and a split of an acyclic partition never closes a quotient
 * cycle; fits is pure and a block's pieces depend only on the block.
 * So the result equals splitting one block at a time with a full
 * structural repair and a fresh sweep after each split.
 */
void
refineToFit(const Graph &g, Partition &p, CostModel &model,
            const BufferConfig &buf)
{
    // Worklist: the blocks, then the pieces of each split entry, which
    // is left empty.
    std::vector<std::vector<NodeId>> work = p.blocks();
    bool split = false;
    for (size_t i = 0; i < work.size(); ++i) {
        if (work[i].size() < 2 || model.fits(work[i], buf))
            continue;
        std::vector<NodeId> lower = std::move(work[i]);
        work[i].clear();
        std::vector<NodeId> upper(lower.begin() + lower.size() / 2,
                                  lower.end());
        lower.resize(lower.size() / 2);
        for (const auto *half : {&lower, &upper})
            for (auto &piece : weakComponents(g, *half))
                work.push_back(std::move(piece));
        split = true;
    }
    if (!split)
        return;
    int next = 0;
    for (const auto &piece : work) {
        if (piece.empty())
            continue;
        for (NodeId v : piece)
            p.block[v] = next;
        ++next;
    }
    p.canonicalize(g);
}

/**
 * Double-buffered weight prefetch: adjacent blocks' weights must
 * co-reside. Split the heavier multi-node block of the first violating
 * pair (else the lighter one) at its median and repair; singleton
 * pairs cannot be repaired here and stay penalized at evaluation.
 * @return whether a block was split.
 */
bool
splitPrefetchVictim(const Graph &g, Partition &p, CostModel &model,
                    const BufferConfig &buf)
{
    int64_t cap = buf.style == BufferStyle::Shared ? buf.sharedBytes
                                                   : buf.weightBytes;
    auto blocks = p.blocks();
    for (size_t i = 0; i + 1 < blocks.size(); ++i) {
        int64_t wa = model.profile(blocks[i]).weightBytes;
        int64_t wb = model.profile(blocks[i + 1]).weightBytes;
        wa = ceilDiv(wa, model.accel().cores);
        wb = ceilDiv(wb, model.accel().cores);
        // Oversized singletons stream in tiles and are exempt
        // (matching the cost model's feasibility rule).
        if (wa > cap || wb > cap || wa + wb <= cap)
            continue;
        const auto &heavy = (wa >= wb ? blocks[i] : blocks[i + 1]);
        const auto &light = (wa >= wb ? blocks[i + 1] : blocks[i]);
        const auto *victim =
            heavy.size() >= 2 ? &heavy
                              : (light.size() >= 2 ? &light : nullptr);
        if (!victim)
            continue;
        splitAtMedian(p, p.block[victim->front()]);
        p = repairStructure(g, std::move(p));
        return true;
    }
    return false;
}

} // namespace

Partition
repairStructure(const Graph &g, Partition p)
{
    if (static_cast<int>(p.block.size()) != g.size())
        panic("repairStructure: assignment size mismatch");

    thread_local QuotientGraph q;
    splitComponents(g, p);
    while (true) {
        q.build(g, p.block);
        if (q.drain() == q.numBlocks)
            break;
        // Split the largest block Kahn's algorithm could not drain
        // (ties to the smallest id); component-split the result so
        // connectivity is restored before the next check.
        int pick = -1, best = 0;
        for (int b = 0; b < q.numBlocks; ++b)
            if (q.rank[b] < 0 && q.size[b] > best) {
                best = q.size[b];
                pick = b;
            }
        if (best < 2)
            panic("quotient cycle among singleton blocks");
        splitAtMedian(p, q.ids[pick]);
        splitComponents(g, p);
    }
    // The drain ran in canonicalize()'s order, so its ranks are the
    // canonical ids.
    for (NodeId v = 0; v < g.size(); ++v)
        p.block[v] = q.rank[q.dense[v]];
    p.numBlocks = q.numBlocks;
    return p;
}

Partition
repairToCapacity(const Graph &g, Partition p, CostModel &model,
                 const BufferConfig &buf)
{
    // Genomes from the operators, randomGenome and cache hits are
    // already canonical; only other input pays for the full repair.
    if (!p.isCanonical(g))
        p = repairStructure(g, std::move(p));
    do
        refineToFit(g, p, model, buf);
    while (model.accel().doubleBufferWeights &&
           splitPrefetchVictim(g, p, model, buf));
    return p;
}

} // namespace cocco
