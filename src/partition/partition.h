/**
 * @file
 * The graph-partition scheme P : V -> N of paper Section 4.1.1.
 *
 * A partition assigns each layer to a subgraph (block). Validity:
 *   - precedence: for every edge (u, v), P(u) <= P(v);
 *   - connectivity: every block is weakly connected in G.
 * Blocks execute in increasing index order.
 */

#ifndef COCCO_PARTITION_PARTITION_H
#define COCCO_PARTITION_PARTITION_H

#include <string>
#include <vector>

#include "graph/graph.h"

namespace cocco {

/** A partition of the graph's nodes into ordered subgraphs. */
struct Partition
{
    /** block[v] = index of the subgraph computing node v. */
    std::vector<int> block;

    /** Number of distinct blocks (valid after canonicalize()). */
    int numBlocks = 0;

    /** Every node in its own block (layer-level execution). */
    static Partition singletons(const Graph &g);

    /**
     * Fuse consecutive runs of @p run_length nodes in topological
     * order (the paper's Figure 3 "L = 1/3/5" configurations).
     */
    static Partition fixedRuns(const Graph &g, int run_length);

    /** Node ids of each block, ascending within a block. */
    std::vector<std::vector<NodeId>> blocks() const;

    /** Node ids of block @p b. */
    std::vector<NodeId> blockNodes(int b) const;

    /**
     * Renumber blocks canonically: ids become 0..k-1 in a topological
     * order of the quotient graph (ties broken by smallest node id).
     * Requires an acyclic quotient; panics otherwise (callers must
     * repair first). Ids may be any ints whose span stays within a
     * small multiple of the node count (see QuotientGraph). After
     * canonicalization the precedence property P(u) <= P(v) holds for
     * every edge.
     */
    void canonicalize(const Graph &g);

    /** Full validity: precedence and per-block weak connectivity. */
    bool valid(const Graph &g) const;

    /**
     * Whether repairStructure(g, *this) would return this partition
     * unchanged (block vector and numBlocks). That holds exactly when:
     *  (a) there is one id per node, every id lies in [0, numBlocks)
     *      and every id is used;
     *  (b) block[u] <= block[v] for every edge u -> v;
     *  (c) every block is weakly connected;
     *  (d) the ids are canonicalize()'s Kahn order: with readyAt(b) =
     *      1 + the largest id among b's inter-block predecessors (0 if
     *      none), every block r in [readyAt(b), b) has a smaller
     *      smallest node than b.
     * O(n + E); builds no quotient graph.
     */
    bool isCanonical(const Graph &g) const;

    /** "{0,1,2}{3,4}..." rendering for debugging. */
    std::string str() const;

    bool operator==(const Partition &o) const { return block == o.block; }
};

/**
 * Node lists of every block id of a partition in CSR form: block b's
 * nodes, ascending, are members[start[b] .. start[b + 1]). Ids with no
 * nodes get empty ranges. Two vectors for the whole partition where
 * Partition::blocks() makes one per block; build() reuses their
 * storage.
 */
struct BlockLists
{
    std::vector<int> start;
    std::vector<NodeId> members;

    void build(const Partition &p);

    /** Drop the empty ranges, so ranges are the non-empty ids in id
     *  order (block b is then the b-th non-empty id). */
    void dropEmpty();

    /** Ranges: one past the largest id, or after dropEmpty() the
     *  number of blocks. */
    int count() const { return static_cast<int>(start.size()) - 1; }
    int size(int b) const { return start[b + 1] - start[b]; }
    const NodeId *begin(int b) const { return members.data() + start[b]; }
    const NodeId *end(int b) const { return members.data() + start[b + 1]; }
};

} // namespace cocco

#endif // COCCO_PARTITION_PARTITION_H
