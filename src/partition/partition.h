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

    /** "{0,1,2}{3,4}..." rendering for debugging. */
    std::string str() const;

    bool operator==(const Partition &o) const { return block == o.block; }
};

} // namespace cocco

#endif // COCCO_PARTITION_PARTITION_H
