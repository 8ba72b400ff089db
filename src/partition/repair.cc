#include "partition/repair.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "graph/algorithms.h"
#include "util/epoch_set.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace cocco {

namespace {

/** Nodes members[first .. second) of a member array. */
using Range = std::pair<int, int>;

/**
 * Split ranges[i], an ascending range of @p members, as splitAtMedian
 * splits a block: its first floor(k/2) nodes, then the rest, come
 * apart into weak components, appended to @p ranges in that order,
 * each half's by smallest node. Every piece is a contiguous ascending
 * range of the same slice, which is reordered in place; ranges[i] is
 * left empty. It calls nothing, so callers may hand it their scratch.
 */
void
splitRange(const Graph &g, std::vector<NodeId> &members,
           std::vector<Range> &ranges, size_t i)
{
    // label[v] is -1 while v is an unvisited node of the half being
    // labelled, else the index of its piece in ranges (0 if never
    // labelled).
    thread_local std::vector<int> label;
    thread_local std::vector<NodeId> stack, tmp;
    if (static_cast<int>(label.size()) < g.size())
        label.resize(g.size(), 0);
    const auto [s, e] = ranges[i];
    const int mid = s + (e - s) / 2;
    ranges[i] = {s, s};
    const size_t first = ranges.size();
    for (const auto &[hs, he] : {Range{s, mid}, Range{mid, e}}) {
        for (int j = hs; j < he; ++j)
            label[members[j]] = -1;
        for (int j = hs; j < he; ++j) {
            const NodeId seed = members[j];
            if (label[seed] != -1)
                continue;
            const int c = static_cast<int>(ranges.size());
            ranges.emplace_back(0, 0);
            label[seed] = c;
            stack.assign(1, seed);
            while (!stack.empty()) {
                NodeId v = stack.back();
                stack.pop_back();
                for (const auto *adj : {&g.preds(v), &g.succs(v)})
                    for (NodeId w : *adj)
                        if (label[w] == -1) {
                            label[w] = c;
                            stack.push_back(w);
                        }
            }
        }
    }
    // Counting sort by piece: sizes, then [begin, cursor) ranges.
    tmp.assign(members.begin() + s, members.begin() + e);
    for (NodeId v : tmp)
        ++ranges[label[v]].second;
    int at = s;
    for (size_t c = first; c < ranges.size(); ++c) {
        const int k = ranges[c].second;
        ranges[c] = {at, at};
        at += k;
    }
    for (NodeId v : tmp)
        members[ranges[label[v]].second++] = v;
}

/**
 * Scratch of one structural repair: the assignment's blocks as weak
 * components over flat arrays, with their node ranges, in-degrees and
 * Kahn's drain.
 *
 * A full pass numbers the components by smallest node, which is the
 * drain's own priority (canonicalize()'s order), so the drain runs on
 * component indices and its ranks are the canonical ids. When every
 * quotient edge already ascends in that numbering, the ranks are the
 * indices and nothing is drained at all.
 *
 * When the drain stalls on a quotient cycle, split() cuts one
 * undrained component and resumes the drain where it stopped: drained
 * components are upstream of every cycle, so they stay drained, and
 * only what the pieces free can drain next. Pieces are appended after
 * the existing components, so the ranks then only mark drained ones;
 * one more full pass after the last split renumbers.
 *
 * id[c] is the block id that splitting one block at a time, with a
 * fresh component relabelling after each split, gives component c
 * (see ids() and split()). Ids only break ties between equally large
 * split candidates, so they are computed on the first stall.
 */
struct ComponentDrain
{
    int count = 0;               ///< components
    int drained = 0;             ///< components with rank >= 0
    int maxId = 0;               ///< largest id in use (after ids())
    std::vector<int> comp;       ///< node -> component
    std::vector<int> root;       ///< union-find parent per node
    std::vector<int> origin;     ///< component -> input block id
    std::vector<Range> range;    ///< component -> its nodes in members
    std::vector<NodeId> members; ///< each component's nodes, ascending
    std::vector<int> indeg;      ///< in-edges from undrained components
    std::vector<int> rank;       ///< drain position; -1 undrained
    std::vector<int> id;         ///< split tie-break id, see above
    std::vector<uint64_t> ready; ///< bit c: component c is ready
    int readyCount = 0, readyLow = 0; ///< no ready bit below word readyLow
    std::vector<int> moved;
    std::vector<char> kept;

    int size(int c) const { return range[c].second - range[c].first; }

    /**
     * Label the components of @p block (ids >= 0) by smallest node,
     * list their members, count in-degrees and drain.
     */
    void
    pass(const Graph &g, const std::vector<int> &block)
    {
        const int n = g.size();
        // Union-find over same-block edges in ascending node order; the
        // larger root links under the smaller, so a component's root
        // is its smallest node.
        root.resize(n);
        auto find = [&](int v) {
            while (root[v] != v)
                v = root[v] = root[root[v]];
            return v;
        };
        for (NodeId v = 0; v < n; ++v) {
            if (block[v] < 0)
                panic("repairStructure: negative block id %d", block[v]);
            root[v] = v;
            for (NodeId u : g.preds(v))
                if (block[u] == block[v]) {
                    const int ru = find(u), rv = find(v);
                    root[std::max(ru, rv)] = std::min(ru, rv);
                }
        }
        // Number the components at their roots, which come first; a
        // node's predecessors are numbered before it, so in-degrees
        // count in the same pass. range[c].second counts the nodes.
        comp.resize(n);
        origin.clear();
        range.clear();
        indeg.clear();
        bool sorted = true; // every quotient edge ascends
        for (NodeId v = 0; v < n; ++v) {
            const int r = find(v);
            if (r == v) {
                comp[v] = static_cast<int>(origin.size());
                origin.push_back(block[v]);
                range.emplace_back(0, 0);
                indeg.push_back(0);
            } else {
                comp[v] = comp[r];
            }
            const int c = comp[v];
            ++range[c].second;
            for (NodeId u : g.preds(v)) {
                indeg[c] += comp[u] != c;
                sorted &= comp[u] <= c;
            }
        }
        count = static_cast<int>(origin.size());
        rank.resize(count);
        if (sorted) {
            // Smallest-index-first Kahn takes the components in index
            // order; nothing stalls, so no member lists are needed.
            std::iota(rank.begin(), rank.end(), 0);
            drained = count;
            return;
        }

        // Members by counting sort: sizes become [begin, cursor)
        // ranges, each ascending.
        for (int c = 0, at = 0; c < count; ++c) {
            const int k = range[c].second;
            range[c] = {at, at};
            at += k;
        }
        members.resize(n);
        for (NodeId v = 0; v < n; ++v)
            members[range[comp[v]].second++] = v;

        rank.assign(count, -1);
        drained = 0;
        ready.assign((count + 63) / 64, 0);
        readyCount = readyLow = 0;
        for (int c = 0; c < count; ++c)
            if (indeg[c] == 0)
                markReady(c);
        drain(g);
    }

    void
    markReady(int c)
    {
        ready[c >> 6] |= uint64_t(1) << (c & 63);
        readyLow = std::min(readyLow, c >> 6);
        ++readyCount;
    }

    /** Kahn's algorithm over the ready set, smallest index first. */
    void
    drain(const Graph &g)
    {
        while (readyCount > 0) {
            while (ready[readyLow] == 0)
                ++readyLow;
            uint64_t &word = ready[readyLow];
            const int c = readyLow * 64 + __builtin_ctzll(word);
            word &= word - 1;
            --readyCount;
            rank[c] = drained++;
            for (int i = range[c].first; i < range[c].second; ++i)
                for (NodeId w : g.succs(members[i])) {
                    const int d = comp[w];
                    if (d != c && --indeg[d] == 0)
                        markReady(d);
                }
        }
    }

    /**
     * Ids after relabelling components: the one holding an input
     * block's smallest node keeps the block's id, the others take
     * max+1, max+2, ... in (block id, smallest node) order.
     */
    void
    ids()
    {
        int next = 0;
        for (int b : origin)
            next = std::max(next, b + 1);
        kept.assign(next, 0);
        id.resize(count);
        moved.clear();
        for (int c = 0; c < count; ++c) {
            if (kept[origin[c]]) {
                moved.push_back(c);
            } else {
                kept[origin[c]] = 1;
                id[c] = origin[c];
            }
        }
        std::sort(moved.begin(), moved.end(), [&](int a, int c) {
            return origin[a] != origin[c] ? origin[a] < origin[c] : a < c;
        });
        for (int c : moved)
            id[c] = next++;
        maxId = next - 1;
    }

    /**
     * Split component @p b with splitRange and drain what the pieces
     * free. Ids: the lower half's first piece keeps b's, the upper
     * half's first takes max+1, the other pieces max+2, ... in piece
     * order. b is left empty and counts as drained.
     */
    void
    split(const Graph &g, int b)
    {
        const int mid = range[b].first + size(b) / 2;
        const int first = count;
        splitRange(g, members, range, b);
        count = static_cast<int>(range.size());
        indeg.resize(count);
        rank.resize(count, -1);
        id.resize(count);
        ready.resize((count + 63) / 64, 0);
        rank[b] = drained++;
        int next = maxId + 2;
        for (int c = first; c < count; ++c) {
            for (int i = range[c].first; i < range[c].second; ++i)
                comp[members[i]] = c;
            id[c] = c == first                ? id[b]
                    : range[c].first == mid ? maxId + 1
                                            : next++;
        }
        maxId = next - 1;

        // Resume: each piece waits for its in-edges from undrained
        // components (other pieces included).
        for (int c = first; c < count; ++c) {
            indeg[c] = 0;
            for (int i = range[c].first; i < range[c].second; ++i)
                for (NodeId u : g.preds(members[i]))
                    indeg[c] += comp[u] != c && rank[comp[u]] < 0;
            if (indeg[c] == 0)
                markReady(c);
        }
        drain(g);
    }
};

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
 * Scratch of one local repair (repairLocally): the touched nodes'
 * pieces, and Kahn's smallest-node-first drain over the window of the
 * input's canonical order that the edit can disturb.
 *
 * Items are the input's untouched blocks, indexed by their id, and the
 * pieces, indexed k + piece. The drain starts at the first position a
 * piece could take; every earlier block keeps its id. It "sees" an
 * untouched block (counts its in-edges from unplaced items) when the
 * scan of the input's order reaches it or when a placed item feeds
 * it. A block that nothing placed in the window feeds waits only on
 * blocks before the start, so by the input's Kahn order (readyAt(j) <=
 * start <= scan) it has a larger smallest node than the block at the
 * scan: the ready item with the smallest node is taken only while it
 * is no larger than that block's, and the scan advances otherwise.
 * Once every piece is placed, the scan has passed the touched ids and
 * the placed blocks are exactly the untouched ones before the scan,
 * the rest of the order is the input's, shifted by the change in
 * block count.
 */
struct LocalDrain
{
    enum : uint8_t { kUnseen, kSeen, kPlaced, kTouched };

    EpochSet touched;             ///< nodes of the touched input blocks
    std::vector<NodeId> nodes;    ///< touched nodes, ascending
    std::vector<int> piece;       ///< touched node -> piece
    std::vector<NodeId> members;  ///< each piece's nodes, contiguous
    std::vector<int> start;       ///< piece -> its first slot in members
    std::vector<uint8_t> state;   ///< per item
    std::vector<int> indeg;       ///< in-edges from unplaced items
    std::vector<int> newId;       ///< per placed item
    std::vector<NodeId> heap;     ///< ready items by smallest node

    /**
     * Label the touched nodes' weak components under their (edited)
     * ids, numbered by smallest node. @return the piece count.
     */
    int
    label(const Graph &g, const std::vector<int> &block)
    {
        touched.clear(g.size());
        if (piece.size() < static_cast<size_t>(g.size()))
            piece.resize(g.size());
        for (NodeId v : nodes) {
            touched.insert(v);
            piece[v] = -1;
        }
        members.clear();
        start.clear();
        for (NodeId seed : nodes) {
            if (piece[seed] >= 0)
                continue;
            const int c = static_cast<int>(start.size());
            start.push_back(static_cast<int>(members.size()));
            piece[seed] = c;
            members.push_back(seed);
            for (size_t i = start[c]; i < members.size(); ++i) {
                const NodeId x = members[i];
                for (const auto *adj : {&g.preds(x), &g.succs(x)})
                    for (NodeId w : *adj)
                        if (touched.contains(w) && piece[w] < 0 &&
                            block[w] == block[x]) {
                            piece[w] = c;
                            members.push_back(w);
                        }
            }
        }
        const int pieces = static_cast<int>(start.size());
        start.push_back(static_cast<int>(members.size()));
        return pieces;
    }
};

/**
 * Split every multi-node block of the canonical partition @p p that
 * does not fit @p buf until each piece fits or is a singleton,
 * touching each block once. A block splits as splitAtMedian splits it
 * (its first floor(k/2) nodes stay), and each half into its weak
 * components. Node ids are topological, so every edge between the
 * halves runs from the lower to the upper one and a split of an
 * acyclic partition never closes a quotient cycle; whether a block
 * fits is pure and a block's pieces depend only on the block. So the
 * result equals splitting one block at a time with a full structural
 * repair and a fresh sweep after each split. Each check is a
 * CostModel::blockCost through @p costs.
 *
 * @return whether a block split. The blocks and pieces then hold
 * dense ids out of order, and the caller renumbers them
 * (Partition::renumber); no flag is set.
 */
bool
refineToFit(const Graph &g, Partition &p, CostModel &model,
            const BufferConfig &buf, SubgraphCostCache *costs)
{
    // Worklist of ranges of lists.members: the blocks, then the pieces
    // of each split entry, which is left empty. A piece is a range of
    // its block's slice, so nothing is allocated per block; the cost
    // model reads one reused vector (call-local, as its entry points
    // are virtual).
    BlockLists lists;
    lists.build(p);
    std::vector<Range> work;
    for (int b = 0; b < lists.count(); ++b)
        if (lists.size(b) > 0)
            work.emplace_back(lists.start[b], lists.start[b + 1]);
    std::vector<NodeId> nodes;
    bool split = false;
    for (size_t i = 0; i < work.size(); ++i) {
        const auto [s, e] = work[i];
        if (e - s < 2)
            continue;
        nodes.assign(lists.members.begin() + s, lists.members.begin() + e);
        if (model.blockCost(nodes, buf, costs).feasible)
            continue;
        splitRange(g, lists.members, work, i);
        split = true;
    }
    if (!split)
        return false;
    int *ids = p.block.data();
    int next = 0;
    for (const auto &[s, e] : work) {
        if (s == e)
            continue;
        for (int i = s; i < e; ++i)
            ids[lists.members[i]] = next;
        ++next;
    }
    return true;
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
        wa = ceilDiv(wa, model.cores());
        wb = ceilDiv(wb, model.cores());
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

    thread_local ComponentDrain r;
    r.pass(g, p.block);
    if (r.drained < r.count) {
        r.ids();
        do {
            // Split the largest component the drain could not reach
            // (ties to the smallest id).
            int pick = -1, best = 0;
            for (int c = 0; c < r.count; ++c)
                if (r.rank[c] < 0 &&
                    (r.size(c) > best ||
                     (r.size(c) == best && r.id[c] < r.id[pick]))) {
                    best = r.size(c);
                    pick = c;
                }
            if (best < 2)
                panic("quotient cycle among singleton blocks");
            r.split(g, pick);
        } while (r.drained < r.count);
        // Pieces were numbered after the drained components; number
        // the final blocks by smallest node for the canonical ranks.
        p.block = r.comp;
        r.pass(g, p.block);
    }
    int *ids = p.block.data();
    for (NodeId v = 0; v < g.size(); ++v)
        ids[v] = r.rank[r.comp[v]];
    p.numBlocks = r.count;
    p.markCanonical();
    return p;
}

RepairPathCounts &
repairPathCounts()
{
    thread_local RepairPathCounts counts;
    return counts;
}

bool
repairLocally(const Graph &g, Partition &p, const BlockLists &before,
              std::initializer_list<int> touched)
{
    thread_local LocalDrain d;
    const std::vector<int> &block = p.block;
    const int k = p.numBlocks;
    const int num_touched = static_cast<int>(touched.size());
    int lo = k, hi = -1;
    d.nodes.clear();
    for (int t : touched) {
        lo = std::min(lo, t);
        hi = std::max(hi, t);
        d.nodes.insert(d.nodes.end(), before.begin(t), before.end(t));
    }
    std::sort(d.nodes.begin(), d.nodes.end());
    const int pieces = d.label(g, block);
    d.state.assign(k + pieces, LocalDrain::kUnseen);
    for (int t : touched)
        d.state[t] = LocalDrain::kTouched; // never an item

    auto item_of = [&](NodeId w) {
        return d.touched.contains(w) ? k + d.piece[w] : block[w];
    };
    auto old_min = [&](int b) { return *before.begin(b); };
    auto min_of = [&](int item) {
        return item < k ? old_min(item) : d.members[d.start[item - k]];
    };
    auto for_members = [&](int item, auto &&fn) {
        if (item < k) {
            for (const NodeId *x = before.begin(item); x != before.end(item);
                 ++x)
                fn(*x);
        } else {
            for (int i = d.start[item - k]; i < d.start[item - k + 1]; ++i)
                fn(d.members[i]);
        }
    };

    // The first position a piece could take: past its untouched
    // predecessors' ids and past the blocks with smaller smallest
    // nodes that the input drained after them. Earlier blocks keep
    // their ids.
    int first = lo;
    for (int c = 0; c < pieces; ++c) {
        int r = 0;
        for_members(k + c, [&](NodeId y) {
            for (NodeId u : g.preds(y))
                if (!d.touched.contains(u))
                    r = std::max(r, block[u] + 1);
        });
        const NodeId m = min_of(k + c);
        while (r < first && old_min(r) < m)
            ++r;
        first = std::min(first, r);
    }

    // W: the pieces and the untouched ids in [first, hi]. Their inputs
    // lie in W or before it, so once the scan has passed hi, unplaced
    // W items with none ready are stuck on a quotient cycle.
    auto in_w = [&](int item) { return item >= k || item <= hi; };
    int unplaced_w = pieces + (hi - first + 1) - num_touched;
    int ready_w = 0;
    auto later = std::greater<NodeId>();
    auto push = [&](int item) {
        d.heap.push_back(min_of(item));
        std::push_heap(d.heap.begin(), d.heap.end(), later);
        ready_w += in_w(item);
    };
    auto see = [&](int item) {
        int deg = 0;
        for_members(item, [&](NodeId y) {
            for (NodeId u : g.preds(y)) {
                const int c = item_of(u);
                deg += c != item && d.state[c] != LocalDrain::kPlaced;
            }
        });
        d.indeg[item] = deg;
        d.state[item] = LocalDrain::kSeen;
        if (deg == 0)
            push(item);
    };

    std::fill(d.state.begin(), d.state.begin() + first,
              LocalDrain::kPlaced);
    d.indeg.resize(k + pieces);
    d.newId.resize(k + pieces);
    d.heap.clear();
    for (int c = 0; c < pieces; ++c)
        see(k + c);

    int scan = first, pos = first, placed = 0, max_placed = -1;
    int pieces_left = pieces;
    for (;;) {
        if (scan > hi) {
            if (pieces_left == 0 && max_placed < scan &&
                placed == scan - first - num_touched)
                break;
            if (unplaced_w > 0 && ready_w == 0) {
                ++repairPathCounts().cyclic;
                return false;
            }
        }
        if (scan < k && (d.heap.empty() || d.heap.front() > old_min(scan))) {
            if (d.state[scan] == LocalDrain::kUnseen)
                see(scan);
            ++scan;
            continue;
        }
        if (d.heap.empty())
            panic("repairLocally: the drain stalled");
        std::pop_heap(d.heap.begin(), d.heap.end(), later);
        const int c = item_of(d.heap.back());
        d.heap.pop_back();
        if (in_w(c)) {
            --ready_w;
            --unplaced_w;
        }
        d.newId[c] = pos++;
        for_members(c, [&](NodeId y) {
            for (NodeId w : g.succs(y)) {
                const int e = item_of(w);
                if (e == c)
                    continue;
                if (d.state[e] == LocalDrain::kUnseen)
                    see(e); // counts c's edges too
                if (--d.indeg[e] == 0)
                    push(e);
            }
        });
        d.state[c] = LocalDrain::kPlaced;
        if (c < k) {
            ++placed;
            max_placed = std::max(max_placed, c);
        } else {
            --pieces_left;
        }
    }

    const int shift = pos - scan;
    int *ids = p.block.data();
    for (NodeId v = 0; v < g.size(); ++v) {
        if (d.touched.contains(v))
            ids[v] = d.newId[k + d.piece[v]];
        else if (ids[v] >= first)
            ids[v] = ids[v] < scan ? d.newId[ids[v]] : ids[v] + shift;
    }
    p.numBlocks = k - num_touched + pieces;
    p.markCanonical();
    ++repairPathCounts().local;
    return true;
}

Partition
repairToCapacity(const Graph &g, Partition p, CostModel &model,
                 const BufferConfig &buf, SubgraphCostCache *costs)
{
    // Genomes from the operators, randomGenome and cache hits carry
    // the canonical flag; only other input pays for the full repair.
    if (!p.canonical())
        p = repairStructure(g, std::move(p));
    do {
        // The pieces are weak components of canonical blocks: only
        // their order needs recomputing.
        if (refineToFit(g, p, model, buf, costs))
            p.renumber(g);
    } while (model.accel().doubleBufferWeights &&
             splitPrefetchVictim(g, p, model, buf));
    p.markCanonical();
    return p;
}

} // namespace cocco
