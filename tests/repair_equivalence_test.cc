/**
 * @file
 * Old-vs-new equivalence of the structural-repair path. The flat-array
 * implementations of repairStructure, Partition::canonicalize,
 * weakComponents, quotientIsAcyclic and the variation operators must
 * reproduce the original map/set implementations kept here as
 * test-only references: the same block vectors, the same numBlocks,
 * and the same RNG draws, on every registered model. Any change to the
 * canonical numbering has to pass this suite. The capacity refinement
 * of repairToCapacity is held to the split-one-block-and-re-sweep loop
 * it replaced, and Partition::isCanonical to "repairStructure leaves
 * it unchanged".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.h"
#include "models/models.h"
#include "models/random_dag.h"
#include "partition/repair.h"
#include "search/operators.h"
#include "sim/deployment.h"
#include "sim/platform.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/random.h"

using namespace cocco;

namespace ref {

std::vector<std::vector<NodeId>>
blocks(const Partition &p)
{
    int nb = 0;
    for (int b : p.block)
        nb = std::max(nb, b + 1);
    std::vector<std::vector<NodeId>> out(nb);
    for (NodeId v = 0; v < static_cast<NodeId>(p.block.size()); ++v)
        out[p.block[v]].push_back(v);
    std::vector<std::vector<NodeId>> packed;
    for (auto &blk : out)
        if (!blk.empty())
            packed.push_back(std::move(blk));
    return packed;
}

std::vector<std::vector<NodeId>>
weakComponents(const Graph &g, const std::vector<NodeId> &nodes)
{
    std::unordered_set<NodeId> in_set(nodes.begin(), nodes.end());
    std::unordered_set<NodeId> visited;
    std::vector<std::vector<NodeId>> comps;
    std::vector<NodeId> sorted = nodes;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId seed : sorted) {
        if (visited.count(seed))
            continue;
        std::vector<NodeId> comp;
        std::vector<NodeId> stack{seed};
        visited.insert(seed);
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            comp.push_back(v);
            auto visit = [&](NodeId w) {
                if (in_set.count(w) && !visited.count(w)) {
                    visited.insert(w);
                    stack.push_back(w);
                }
            };
            for (NodeId u : g.preds(v))
                visit(u);
            for (NodeId u : g.succs(v))
                visit(u);
        }
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
    }
    return comps;
}

bool
quotientIsAcyclic(const Graph &g, const std::vector<int> &block)
{
    std::unordered_map<int, int> idx;
    for (int b : block)
        if (!idx.count(b)) {
            int next = static_cast<int>(idx.size());
            idx[b] = next;
        }
    int nb = static_cast<int>(idx.size());
    std::vector<std::unordered_set<int>> adj(nb);
    std::vector<int> indeg(nb, 0);
    for (NodeId v = 0; v < g.size(); ++v) {
        int bv = idx[block[v]];
        for (NodeId u : g.preds(v)) {
            int bu = idx[block[u]];
            if (bu != bv && adj[bu].insert(bv).second)
                ++indeg[bv];
        }
    }
    std::vector<int> queue;
    for (int b = 0; b < nb; ++b)
        if (indeg[b] == 0)
            queue.push_back(b);
    int seen = 0;
    while (!queue.empty()) {
        int b = queue.back();
        queue.pop_back();
        ++seen;
        for (int w : adj[b])
            if (--indeg[w] == 0)
                queue.push_back(w);
    }
    return seen == nb;
}

void
canonicalize(const Graph &g, Partition &p)
{
    std::map<int, int> idx;
    for (int b : p.block)
        idx.emplace(b, 0);
    int nb = 0;
    for (auto &kv : idx)
        kv.second = nb++;
    std::vector<std::set<int>> adj(nb);
    std::vector<int> indeg(nb, 0);
    std::vector<NodeId> min_node(nb, g.size());
    for (NodeId v = 0; v < g.size(); ++v) {
        int bv = idx[p.block[v]];
        min_node[bv] = std::min(min_node[bv], v);
        for (NodeId u : g.preds(v)) {
            int bu = idx[p.block[u]];
            if (bu != bv && adj[bu].insert(bv).second)
                ++indeg[bv];
        }
    }
    auto cmp = [&](int a, int b2) {
        return min_node[a] != min_node[b2] ? min_node[a] < min_node[b2]
                                           : a < b2;
    };
    std::set<int, decltype(cmp)> ready(cmp);
    for (int b = 0; b < nb; ++b)
        if (indeg[b] == 0)
            ready.insert(b);
    std::vector<int> new_id(nb, -1);
    int next = 0;
    while (!ready.empty()) {
        int b = *ready.begin();
        ready.erase(ready.begin());
        new_id[b] = next++;
        for (int w : adj[b])
            if (--indeg[w] == 0)
                ready.insert(w);
    }
    if (next != nb)
        panic("canonicalize on a cyclic quotient graph");
    for (NodeId v = 0; v < g.size(); ++v)
        p.block[v] = new_id[idx[p.block[v]]];
    p.numBlocks = nb;
}

void
splitComponents(const Graph &g, Partition &p)
{
    int next = 0;
    for (int &b : p.block)
        next = std::max(next, b + 1);
    for (const auto &blk : blocks(p)) {
        auto comps = ref::weakComponents(g, blk);
        for (size_t c = 1; c < comps.size(); ++c) {
            for (NodeId v : comps[c])
                p.block[v] = next;
            ++next;
        }
    }
}

std::vector<int>
cyclicBlocks(const Graph &g, const Partition &p)
{
    std::unordered_map<int, int> idx;
    for (int b : p.block)
        if (!idx.count(b)) {
            int n = static_cast<int>(idx.size());
            idx[b] = n;
        }
    int nb = static_cast<int>(idx.size());
    std::vector<std::unordered_set<int>> adj(nb);
    std::vector<int> indeg(nb, 0);
    for (NodeId v = 0; v < g.size(); ++v) {
        int bv = idx[p.block[v]];
        for (NodeId u : g.preds(v)) {
            int bu = idx[p.block[u]];
            if (bu != bv && adj[bu].insert(bv).second)
                ++indeg[bv];
        }
    }
    std::deque<int> q;
    for (int b = 0; b < nb; ++b)
        if (indeg[b] == 0)
            q.push_back(b);
    std::vector<bool> drained(nb, false);
    while (!q.empty()) {
        int b = q.front();
        q.pop_front();
        drained[b] = true;
        for (int w : adj[b])
            if (--indeg[w] == 0)
                q.push_back(w);
    }
    std::vector<int> out;
    for (auto &[orig, dense] : idx)
        if (!drained[dense])
            out.push_back(orig);
    std::sort(out.begin(), out.end());
    return out;
}

void
splitAtMedian(Partition &p, int b)
{
    std::vector<NodeId> nodes = p.blockNodes(b);
    int next = 0;
    for (int x : p.block)
        next = std::max(next, x + 1);
    for (size_t i = nodes.size() / 2; i < nodes.size(); ++i)
        p.block[nodes[i]] = next;
}

Partition
repairStructure(const Graph &g, Partition p)
{
    splitComponents(g, p);
    while (true) {
        std::vector<int> cyc = cyclicBlocks(g, p);
        if (cyc.empty())
            break;
        int pick = cyc.front();
        size_t best_size = 0;
        for (int b : cyc) {
            size_t sz = p.blockNodes(b).size();
            if (sz > best_size) {
                best_size = sz;
                pick = b;
            }
        }
        if (best_size < 2)
            panic("quotient cycle among singleton blocks");
        splitAtMedian(p, pick);
        splitComponents(g, p);
    }
    canonicalize(g, p);
    return p;
}

/**
 * Capacity repair as a sweep: split the first multi-node block that
 * does not fit at its median, run the full structural repair, and
 * sweep again from the start; then the double-buffer pass, restarting
 * the sweep after each of its splits.
 */
Partition
repairToCapacity(const Graph &g, Partition p, CostModel &model,
                 const BufferConfig &buf)
{
    p = cocco::repairStructure(g, std::move(p));
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &blk : p.blocks()) {
            if (blk.size() < 2 || model.fits(blk, buf))
                continue;
            splitAtMedian(p, p.block[blk.front()]);
            p = cocco::repairStructure(g, std::move(p));
            changed = true;
            break;
        }
        if (!changed && model.accel().doubleBufferWeights) {
            int64_t cap = buf.style == BufferStyle::Shared
                              ? buf.sharedBytes
                              : buf.weightBytes;
            auto blocks = p.blocks();
            for (size_t i = 0; i + 1 < blocks.size(); ++i) {
                int64_t wa = ceilDiv(model.profile(blocks[i]).weightBytes,
                                     model.cores());
                int64_t wb =
                    ceilDiv(model.profile(blocks[i + 1]).weightBytes,
                            model.cores());
                if (wa > cap || wb > cap || wa + wb <= cap)
                    continue;
                const auto &heavy = wa >= wb ? blocks[i] : blocks[i + 1];
                const auto &light = wa >= wb ? blocks[i + 1] : blocks[i];
                const auto *victim =
                    heavy.size() >= 2
                        ? &heavy
                        : (light.size() >= 2 ? &light : nullptr);
                if (!victim)
                    continue;
                splitAtMedian(p, p.block[victim->front()]);
                p = cocco::repairStructure(g, std::move(p));
                changed = true;
                break;
            }
        }
    }
    return p;
}

/** The partition half of crossover (hardware genes draw no RNG). */
Genome
crossover(const Graph &g, const Genome &dad, const Genome &mom, Rng &rng)
{
    Genome child;
    child.part.block.assign(g.size(), -1);
    int next_block = 0;
    for (NodeId v = 0; v < g.size(); ++v) {
        if (child.part.block[v] >= 0)
            continue;
        const Partition &parent =
            rng.bernoulli(0.5) ? dad.part : mom.part;
        std::vector<NodeId> sub = parent.blockNodes(parent.block[v]);
        std::vector<NodeId> undecided;
        std::set<int> decided_blocks;
        for (NodeId u : sub) {
            if (child.part.block[u] >= 0)
                decided_blocks.insert(child.part.block[u]);
            else
                undecided.push_back(u);
        }
        if (undecided.empty())
            continue;
        int target;
        if (!decided_blocks.empty() && rng.bernoulli(0.5)) {
            std::vector<int> opts(decided_blocks.begin(),
                                  decided_blocks.end());
            target = opts[rng.index(opts.size())];
        } else {
            target = next_block++;
        }
        for (NodeId u : undecided)
            child.part.block[u] = target;
    }
    child.part = ref::repairStructure(g, std::move(child.part));
    return child;
}

void
mutateModifyNode(const Graph &g, Genome &genome, Rng &rng, GeneDelta *delta)
{
    NodeId v = static_cast<NodeId>(rng.index(g.size()));
    std::vector<int> targets;
    for (NodeId u : g.preds(v))
        targets.push_back(genome.part.block[u]);
    for (NodeId u : g.succs(v))
        targets.push_back(genome.part.block[u]);
    int fresh = 0;
    for (int b : genome.part.block)
        fresh = std::max(fresh, b + 1);
    targets.push_back(fresh);
    int target = targets[rng.index(targets.size())];
    if (target == genome.part.block[v])
        return;
    delta->noteNode(v);
    genome.part.block[v] = target;
    genome.part = ref::repairStructure(g, std::move(genome.part));
}

void
mutateSplitSubgraph(const Graph &g, Genome &genome, Rng &rng,
                    GeneDelta *delta)
{
    auto blks = blocks(genome.part);
    std::vector<int> multi;
    for (size_t b = 0; b < blks.size(); ++b)
        if (blks[b].size() >= 2)
            multi.push_back(static_cast<int>(b));
    if (multi.empty())
        return;
    const auto &blk = blks[multi[rng.index(multi.size())]];
    size_t cut = 1 + rng.index(blk.size() - 1);
    int fresh = 0;
    for (int b : genome.part.block)
        fresh = std::max(fresh, b + 1);
    for (size_t i = cut; i < blk.size(); ++i) {
        delta->noteNode(blk[i]);
        genome.part.block[blk[i]] = fresh;
    }
    genome.part = ref::repairStructure(g, std::move(genome.part));
}

void
mutateMergeSubgraph(const Graph &g, Genome &genome, Rng &rng,
                    GeneDelta *delta)
{
    std::vector<std::pair<int, int>> pairs;
    for (NodeId v = 0; v < g.size(); ++v)
        for (NodeId u : g.preds(v))
            if (genome.part.block[u] != genome.part.block[v])
                pairs.emplace_back(genome.part.block[u],
                                   genome.part.block[v]);
    if (pairs.empty())
        return;
    auto [a, b] = pairs[rng.index(pairs.size())];
    for (NodeId v = 0; v < g.size(); ++v)
        if (genome.part.block[v] == b) {
            delta->noteNode(v);
            genome.part.block[v] = a;
        }
    genome.part = ref::repairStructure(g, std::move(genome.part));
}

} // namespace ref

namespace {

/** Inputs per kind and model: enough to hit every repair branch on
 *  each model while keeping the suite fast enough for the sanitizer
 *  lane. */
constexpr int kRounds = 8;

class RepairEquivalence : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { g_ = buildModel(GetParam()); }

    /** An assignment drawing each node's id uniformly from [0, ids). */
    Partition
    randomAssignment(Rng &rng, size_t ids) const
    {
        Partition p;
        p.block.resize(g_.size());
        for (int &b : p.block)
            b = static_cast<int>(rng.index(ids));
        return p;
    }

    /** Check the new repair against the reference on @p p. */
    void
    expectSameRepair(const Partition &p, const char *kind)
    {
        Partition got = repairStructure(g_, p);
        Partition want = ref::repairStructure(g_, p);
        ASSERT_EQ(got.block, want.block) << kind << " " << p.str();
        ASSERT_EQ(got.numBlocks, want.numBlocks) << kind;
        ASSERT_TRUE(got.valid(g_)) << kind;
    }

    Graph g_;
};

TEST_P(RepairEquivalence, RepairStructureMatchesReference)
{
    const int n = g_.size();
    Rng rng(0x5eed + n);
    // Few ids make large blocks on long quotient cycles: hundreds of
    // split rounds, the reference's slowest case, so fewer of them.
    for (int i = 0; i < kRounds / 4; ++i)
        expectSameRepair(randomAssignment(rng, 1 + rng.index(8)), "few");
    for (int i = 0; i < kRounds; ++i) {
        expectSameRepair(randomAssignment(rng, n / 2 + 1 + rng.index(n / 2)),
                         "many");
        expectSameRepair(randomAssignment(rng, 2 * n), "sparse");
    }
}

TEST_P(RepairEquivalence, CrossoverStyleMixesMatchReference)
{
    // Every node takes its block from one of two repaired parents, as
    // crossover children do: blocks come apart and quotients go cyclic.
    const int n = g_.size();
    Rng rng(0xc0ffee + n);
    for (int i = 0; i < kRounds; ++i) {
        Partition a = repairStructure(g_, randomAssignment(rng, n));
        Partition b =
            repairStructure(g_, randomAssignment(rng, 1 + rng.index(12)));
        Partition mixed;
        mixed.block.resize(n);
        for (int v = 0; v < n; ++v)
            mixed.block[v] = rng.bernoulli(0.5)
                                 ? a.block[v]
                                 : a.numBlocks + b.block[v];
        expectSameRepair(mixed, "mix");
    }
}

TEST_P(RepairEquivalence, CanonicalizeMatchesReference)
{
    // Relabel repaired partitions with random distinct ids — shuffled,
    // sparse, or shifted negative — and canonicalize both ways.
    const int n = g_.size();
    Rng rng(0xca11 + n);
    for (int i = 0; i < kRounds; ++i) {
        Partition p =
            repairStructure(g_, randomAssignment(rng, 1 + rng.index(n)));
        std::vector<int> ids(p.numBlocks);
        for (int b = 0; b < p.numBlocks; ++b)
            ids[b] = b * (1 + i % 3) - (i % 2 ? n : 0);
        rng.shuffle(ids);
        for (int &b : p.block)
            b = ids[b];
        Partition got = p, want = p;
        got.canonicalize(g_);
        ref::canonicalize(g_, want);
        ASSERT_EQ(got.block, want.block);
        ASSERT_EQ(got.numBlocks, want.numBlocks);
    }
}

TEST_P(RepairEquivalence, QuotientAndComponentQueriesMatchReference)
{
    const int n = g_.size();
    Rng rng(0xacc + n);
    for (int i = 0; i < kRounds; ++i) {
        Partition p = randomAssignment(rng, 1 + rng.index(2 * n));
        EXPECT_EQ(quotientIsAcyclic(g_, p.block),
                  ref::quotientIsAcyclic(g_, p.block));
        Partition r = repairStructure(g_, p);
        EXPECT_TRUE(quotientIsAcyclic(g_, r.block));

        std::vector<NodeId> subset;
        for (NodeId v = 0; v < n; ++v)
            if (rng.bernoulli(0.3))
                subset.push_back(v);
        rng.shuffle(subset);
        EXPECT_EQ(weakComponents(g_, subset),
                  ref::weakComponents(g_, subset));
        EXPECT_EQ(p.blocks(), ref::blocks(p));
    }
}

TEST_P(RepairEquivalence, OperatorsMatchReferenceDrawForDraw)
{
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(0x0be + g_.size());
    std::vector<Genome> pool;
    for (int i = 0; i < 6; ++i)
        pool.push_back(randomGenome(g_, space, rng));

    for (int i = 0; i < kRounds; ++i) {
        const Genome &dad = pool[rng.index(pool.size())];
        const Genome &mom = pool[rng.index(pool.size())];
        Rng r_new = rng, r_ref = rng;
        Genome child = crossover(g_, space, dad, mom, r_new);
        Genome want = ref::crossover(g_, dad, mom, r_ref);
        ASSERT_EQ(child.part.block, want.part.block) << "crossover";
        ASSERT_EQ(child.part.numBlocks, want.part.numBlocks);
        ASSERT_EQ(r_new.state(), r_ref.state()) << "crossover draws";

        using Op = void (*)(const Graph &, Genome &, Rng &, GeneDelta *);
        const std::pair<Op, Op> ops[] = {
            {mutateModifyNode, ref::mutateModifyNode},
            {mutateSplitSubgraph, ref::mutateSplitSubgraph},
            {mutateMergeSubgraph, ref::mutateMergeSubgraph},
        };
        for (const auto &[op, ref_op] : ops) {
            Genome a = child, b = child;
            GeneDelta da, db;
            op(g_, a, r_new, &da);
            ref_op(g_, b, r_ref, &db);
            ASSERT_EQ(a.part.block, b.part.block) << "mutation";
            ASSERT_EQ(a.part.numBlocks, b.part.numBlocks);
            ASSERT_EQ(da.nodes, db.nodes);
            ASSERT_EQ(r_new.state(), r_ref.state()) << "mutation draws";
            child = std::move(a);
        }
        rng = r_new;
        pool[rng.index(pool.size())] = std::move(child);
    }
}

/** Moves per SA chain: the irregular models that meet cyclic merges
 *  run longer chains. */
int
saChainMoves(const std::string &model)
{
    return model == "NasNet" || model == "GoogleNet" ? 1000 : 300;
}

TEST_P(RepairEquivalence, SaMoveChainsMatchReference)
{
    // Consecutive moves drawn as simulatedAnnealing draws them, each
    // applied to the previous result: merges of adjacent blocks of a
    // canonical partition that close a quotient cycle make the repair
    // split a block and resume its drain. Every input after the first
    // carries the canonical flag, so the live operators repair
    // locally, falling back to the full repair on a cycle.
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(0x5a + g_.size());
    Genome cur = randomGenome(g_, space, rng);
    Rng r_new = rng, r_ref = rng;
    int cyclic_merges = 0;
    for (int i = 0; i < saChainMoves(GetParam()); ++i) {
        const size_t move = r_new.index(3);
        ASSERT_EQ(move, r_ref.index(3));
        Genome a = cur, b = cur;
        GeneDelta da, db;
        switch (move) {
          case 0:
            mutateModifyNode(g_, a, r_new, &da);
            ref::mutateModifyNode(g_, b, r_ref, &db);
            break;
          case 1:
            mutateSplitSubgraph(g_, a, r_new, &da);
            ref::mutateSplitSubgraph(g_, b, r_ref, &db);
            break;
          default:
            mutateMergeSubgraph(g_, a, r_new, &da);
            ref::mutateMergeSubgraph(g_, b, r_ref, &db);
        }
        ASSERT_EQ(a.part.block, b.part.block) << "move " << i << " kind "
                                              << move;
        ASSERT_EQ(a.part.numBlocks, b.part.numBlocks) << "move " << i;
        ASSERT_EQ(da.nodes, db.nodes) << "move " << i;
        ASSERT_EQ(r_new.state(), r_ref.state()) << "move " << i;
        // A merge that closes no cycle leaves numBlocks - 1 blocks.
        cyclic_merges += move == 2 && cur.part.numBlocks >= 2 &&
                         a.part.numBlocks >= cur.part.numBlocks;
        cur = std::move(a);
    }
    if (GetParam() == "NasNet" || GetParam() == "GoogleNet") {
        EXPECT_GT(cyclic_merges, 0) << "no merge made the repair split";
    }
}

TEST_P(RepairEquivalence, SaMovesRepairLocally)
{
    // The chain of SaMoveChainsMatchReference (same seed and draws),
    // counted by repair path: every move that edits a flagged
    // partition goes through repairLocally, which repairs most of them
    // itself (at least 80% on NasNet and GoogleNet); the rest close a
    // quotient cycle and take the full repair.
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(0x5a + g_.size());
    Genome cur = randomGenome(g_, space, rng);
    const RepairPathCounts start = repairPathCounts();
    int edits = 0;
    for (int i = 0; i < saChainMoves(GetParam()); ++i) {
        ASSERT_TRUE(cur.part.canonical()) << "move " << i;
        GeneDelta delta;
        switch (rng.index(3)) {
          case 0:
            mutateModifyNode(g_, cur, rng, &delta);
            break;
          case 1:
            mutateSplitSubgraph(g_, cur, rng, &delta);
            break;
          default:
            mutateMergeSubgraph(g_, cur, rng, &delta);
        }
        edits += !delta.nodes.empty();
    }
    ASSERT_TRUE(cur.part.canonical());
    const uint64_t local = repairPathCounts().local - start.local;
    const uint64_t cyclic = repairPathCounts().cyclic - start.cyclic;
    EXPECT_EQ(local + cyclic, static_cast<uint64_t>(edits));
    EXPECT_GT(local * 2, static_cast<uint64_t>(edits))
        << local << " of " << edits << " moves repaired locally";
    if (GetParam() == "NasNet" || GetParam() == "GoogleNet") {
        EXPECT_GE(local * 10, static_cast<uint64_t>(edits) * 8)
            << local << " of " << edits << " moves repaired locally";
        EXPECT_GT(cyclic, 0u) << "no merge closed a quotient cycle";
    }
}

TEST_P(RepairEquivalence, IdenticalParentCrossoverMatchesReference)
{
    // Equal canonical parents take crossover's copy path; equal but
    // non-canonical ones (swapped ids, fixed runs) take the general
    // one. Either way the child, numBlocks and draws match the
    // reference, and the report matches a distinct-parent crossover's.
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(0x1dea + g_.size());
    auto expectSame = [&](const Genome &dad, const Genome &mom,
                          const char *kind) {
        Rng r_new = rng, r_ref = rng;
        GeneDelta got;
        Genome child = crossover(g_, space, dad, mom, r_new, &got);
        Genome want = ref::crossover(g_, dad, mom, r_ref);
        ASSERT_EQ(child.part.block, want.part.block) << kind;
        ASSERT_EQ(child.part.numBlocks, want.part.numBlocks) << kind;
        ASSERT_EQ(r_new.state(), r_ref.state()) << kind << " draws";
        EXPECT_EQ(child.sharedIdx, (dad.sharedIdx + mom.sharedIdx + 1) / 2)
            << kind;

        GeneDelta distinct;
        Genome other = randomGenome(g_, space, r_ref);
        crossover(g_, space, dad, other, r_ref, &distinct);
        EXPECT_EQ(got.nodes, distinct.nodes) << kind;
        EXPECT_EQ(got.partitionChanged, distinct.partitionChanged) << kind;
        EXPECT_EQ(got.hwChanged, distinct.hwChanged) << kind;
        EXPECT_EQ(got.rewrite, distinct.rewrite) << kind;
        rng = r_new;
    };

    for (int i = 0; i < kRounds; ++i) {
        Genome dad = randomGenome(g_, space, rng);
        expectSame(dad, dad, "same genome");
        Genome hw = dad;
        hw.sharedIdx = (dad.sharedIdx + 1 + i) % space.sharedGrid.count;
        expectSame(dad, hw, "other hardware genes");

        const int k = dad.part.numBlocks;
        if (k < 2)
            continue;
        const int x = static_cast<int>(rng.index(k));
        const int y = (x + 1 + static_cast<int>(rng.index(k - 1))) % k;
        Genome swapped = dad;
        for (int &id : swapped.part.block)
            id = id == x ? y : id == y ? x : id;
        ASSERT_FALSE(swapped.part.isCanonical(g_));
        expectSame(swapped, swapped, "swapped ids");
    }
    Genome runs;
    runs.part = Partition::fixedRuns(g_, 3);
    expectSame(runs, runs, "fixed runs");
}

BufferConfig
sharedBuffer(int64_t kib)
{
    BufferConfig b;
    b.style = BufferStyle::Shared;
    b.sharedBytes = kib * 1024;
    return b;
}

BufferConfig
separateBuffer(int64_t act_kib, int64_t weight_kib)
{
    BufferConfig b;
    b.style = BufferStyle::Separate;
    b.actBytes = act_kib * 1024;
    b.weightBytes = weight_kib * 1024;
    return b;
}

TEST_P(RepairEquivalence, CapacityRefinementMatchesSweep)
{
    // Inputs: crossover children, each mutation's output, and
    // two-parent mixes both raw and structurally repaired.
    const int n = g_.size();
    Rng rng(0xcab + n);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    std::vector<Genome> pool;
    for (int i = 0; i < 4; ++i)
        pool.push_back(randomGenome(g_, space, rng));
    // The reference re-runs the full structural repair after every
    // split, which makes it slow under the sanitizers: few rounds.
    std::vector<Partition> inputs;
    for (int i = 0; i < kRounds / 8; ++i) {
        const Genome &dad = pool[rng.index(pool.size())];
        const Genome &mom = pool[rng.index(pool.size())];
        Genome child = crossover(g_, space, dad, mom, rng);
        inputs.push_back(child.part);
        for (auto op :
             {mutateModifyNode, mutateSplitSubgraph, mutateMergeSubgraph}) {
            Genome m = child;
            op(g_, m, rng, nullptr);
            inputs.push_back(m.part);
        }
        Partition mixed;
        mixed.block.resize(n);
        for (int v = 0; v < n; ++v)
            mixed.block[v] = rng.bernoulli(0.5)
                                 ? dad.part.block[v]
                                 : dad.part.numBlocks + mom.part.block[v];
        inputs.push_back(mixed);
        inputs.push_back(repairStructure(g_, mixed));
        pool[rng.index(pool.size())] = std::move(child);
    }

    // Tight to roomy, both buffer styles.
    const BufferConfig buffers[] = {
        sharedBuffer(64),        sharedBuffer(512),
        sharedBuffer(4096),      separateBuffer(32, 64),
        separateBuffer(512, 1024),
    };

    AcceleratorConfig simba;
    AcceleratorConfig prefetch = simba;
    prefetch.doubleBufferWeights = true;
    DeploymentConfig big_little;
    big_little.coreConfigs = {simba, simba, platformPreset("edge"),
                              platformPreset("edge")};
    struct Variant
    {
        const char *name;
        std::function<std::unique_ptr<CostModel>()> make;
        bool pruning;
    };
    const Variant variants[] = {
        {"pruned", [&] { return std::make_unique<CostModel>(g_, simba); },
         true},
        {"unpruned", [&] { return std::make_unique<CostModel>(g_, simba); },
         false},
        {"double-buffer",
         [&] { return std::make_unique<CostModel>(g_, prefetch); }, true},
        {"big-little",
         [&] {
             return std::make_unique<DeploymentCostModel>(g_, big_little);
         },
         true},
    };

    int refined = 0;
    for (const Variant &var : variants) {
        // One model per variant (fits is pure); the two paths take
        // turns going first, so the live one meets both cold and warm
        // profile memos.
        std::unique_ptr<CostModel> model = var.make();
        model->setPruning(var.pruning);
        for (size_t i = 0; i < inputs.size(); ++i)
            for (const BufferConfig &buf : buffers) {
                Partition got, want;
                if (i % 2)
                    want = ref::repairToCapacity(g_, inputs[i], *model, buf);
                got = repairToCapacity(g_, inputs[i], *model, buf);
                if (i % 2 == 0)
                    want = ref::repairToCapacity(g_, inputs[i], *model, buf);
                ASSERT_EQ(got.block, want.block)
                    << var.name << " input " << i << " "
                    << inputs[i].str();
                ASSERT_EQ(got.numBlocks, want.numBlocks) << var.name;
                refined += got.numBlocks >
                           repairStructure(g_, inputs[i]).numBlocks;
            }
    }
    EXPECT_GT(refined, 0) << "no input needed a capacity split";
}

/** Whether repairStructure leaves @p p exactly as it is. */
bool
repairKeeps(const Graph &g, const Partition &p)
{
    Partition r = repairStructure(g, p);
    return r.block == p.block && r.numBlocks == p.numBlocks;
}

TEST_P(RepairEquivalence, IsCanonicalIffRepairKeepsThePartition)
{
    const int n = g_.size();
    Rng rng(0xca90 + n);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    std::vector<Genome> pool;
    for (int i = 0; i < 4; ++i)
        pool.push_back(randomGenome(g_, space, rng));

    int canonical = 0, total = 0;
    auto expectAgrees = [&](const Partition &p, const char *kind) {
        bool want = repairKeeps(g_, p);
        EXPECT_EQ(p.isCanonical(g_), want) << kind << " " << p.str();
        canonical += want;
        ++total;
    };
    for (int i = 0; i < kRounds; ++i) {
        const Genome &dad = pool[rng.index(pool.size())];
        const Genome &mom = pool[rng.index(pool.size())];
        Genome child = crossover(g_, space, dad, mom, rng);
        expectAgrees(child.part, "crossover");
        for (auto op :
             {mutateModifyNode, mutateSplitSubgraph, mutateMergeSubgraph}) {
            Genome m = child;
            op(g_, m, rng, nullptr);
            expectAgrees(m.part, "mutation");
        }
        const Partition &p = child.part;
        const int k = p.numBlocks;

        Partition mixed = p;
        for (int v = 0; v < n; ++v)
            if (rng.bernoulli(0.5))
                mixed.block[v] = mom.part.block[v];
        mixed.numBlocks = std::max(p.numBlocks, mom.part.numBlocks);
        expectAgrees(mixed, "two-parent mix");

        if (k >= 2) {
            // Swapped ids: any pair, and an adjacent pair (which keeps
            // precedence whenever the two blocks are independent).
            int a = static_cast<int>(rng.index(k));
            int b = static_cast<int>(rng.index(k));
            int c = static_cast<int>(rng.index(k - 1));
            for (auto [x, y] : {std::pair{a, b}, std::pair{c, c + 1}}) {
                Partition q = p;
                for (int &id : q.block)
                    id = id == x ? y : id == y ? x : id;
                expectAgrees(q, "swapped ids");
            }
            // Two neighbouring ids merged (often disconnected blocks
            // with precedence intact), the later ids shifted down.
            Partition merged = p;
            for (int &id : merged.block)
                if (id > c)
                    --id;
            merged.numBlocks = k - 1;
            expectAgrees(merged, "merged neighbours");
        }

        // One node moved to a neighbour's block or a fresh one.
        Partition moved = p;
        NodeId v = static_cast<NodeId>(rng.index(n));
        std::vector<int> targets{k};
        for (NodeId u : g_.preds(v))
            targets.push_back(p.block[u]);
        for (NodeId u : g_.succs(v))
            targets.push_back(p.block[u]);
        moved.block[v] = targets[rng.index(targets.size())];
        moved.numBlocks = k + (moved.block[v] == k);
        expectAgrees(moved, "moved node");

        for (int delta : {-1, 1}) {
            Partition q = p;
            q.numBlocks += delta;
            expectAgrees(q, "numBlocks off by one");
        }
        // An unused id: the last block renumbered one past the end.
        Partition gap = p;
        for (int &id : gap.block)
            if (id == k - 1)
                id = k;
        gap.numBlocks = k + 1;
        expectAgrees(gap, "unused id");
        // An out-of-range id.
        Partition out = p;
        out.block[rng.index(n)] = k;
        expectAgrees(out, "out-of-range id");

        pool[rng.index(pool.size())] = std::move(child);
    }
    EXPECT_GT(canonical, 0);
    EXPECT_LT(canonical, total);
}

TEST(RepairEquivalenceRandomDags, FewIdRepairsMatchReference)
{
    // Small random DAGs with two to four ids: long chains of splits
    // among equally large blocks, where the pieces' ids break ties.
    Rng rng(0xda6);
    for (int i = 0; i < 400; ++i) {
        RandomDagOptions o;
        o.convNodes = 8 + static_cast<int>(rng.index(40));
        const Graph g = buildRandomDag(i, o);
        Partition p;
        p.block.resize(g.size());
        const size_t ids = 2 + rng.index(3);
        for (int &b : p.block)
            b = static_cast<int>(rng.index(ids));
        Partition got = repairStructure(g, p);
        Partition want = ref::repairStructure(g, p);
        ASSERT_EQ(got.block, want.block) << "dag " << i << " " << p.str();
        ASSERT_EQ(got.numBlocks, want.numBlocks) << "dag " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, RepairEquivalence,
                         ::testing::ValuesIn(ModelRegistry::instance().keys()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
