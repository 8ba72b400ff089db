/**
 * @file
 * Graph algorithms shared by the tile-flow, partitioning, and search
 * layers: topological ordering, depth layering, connectivity of node
 * subsets, and validity of quotient (partition) graphs.
 */

#ifndef COCCO_GRAPH_ALGORITHMS_H
#define COCCO_GRAPH_ALGORITHMS_H

#include <vector>

#include "graph/graph.h"

namespace cocco {

/**
 * Topological order of the whole graph. Node ids are already a valid
 * topological order by construction (producers precede consumers), so
 * this is the identity permutation; provided for clarity at call sites.
 */
std::vector<NodeId> topoOrder(const Graph &g);

/**
 * Depth of each node: Input nodes have depth 0; otherwise
 * 1 + max(depth of producers). Used by the DP baseline's depth-order
 * sequencing (Irregular-NN).
 */
std::vector<int> nodeDepths(const Graph &g);

/**
 * Node ids sorted by (depth, id): the sequential order the DP baseline
 * partitions along.
 */
std::vector<NodeId> depthOrder(const Graph &g);

/**
 * @return true if the node subset @p nodes is weakly connected in @p g
 * (connected when edge direction is ignored). Empty sets and singletons
 * are connected.
 */
bool isWeaklyConnected(const Graph &g, const std::vector<NodeId> &nodes);

/**
 * Split a node subset into weakly-connected components (node ids must
 * lie in [0, g.size())).
 * @return one vector of node ids per component, each sorted ascending;
 * components ordered by their smallest node id.
 */
std::vector<std::vector<NodeId>>
weakComponents(const Graph &g, const std::vector<NodeId> &nodes);

/**
 * Check whether the block assignment @p block (node -> block id) has an
 * acyclic quotient graph with blocks numbered in a valid execution
 * order, i.e. for every edge (u, v): block[u] <= block[v].
 */
bool quotientRespectsPrecedence(const Graph &g,
                                const std::vector<int> &block);

/**
 * @return true if the quotient graph induced by @p block is acyclic
 * (ignoring the numeric order of block ids).
 */
bool quotientIsAcyclic(const Graph &g, const std::vector<int> &block);

/**
 * The quotient graph of a block assignment over flat arrays: each
 * distinct block id gets a dense index (ascending id order), and the
 * inter-block edges are kept in CSR form, one entry per graph edge
 * (duplicates are harmless: each adds and drains the same in-degree).
 * build() and drain() only resize the vectors, so a thread_local
 * instance rebuilds without allocating.
 *
 * Ids may be any ints, but build() sizes a table by their span
 * (max - min + 1), so they must stay within a small multiple of the
 * node count. Partition::blocks() assumes the same, every producer in
 * the library keeps to it, and the file loaders reject ids outside
 * [0, n).
 */
struct QuotientGraph
{
    int numBlocks = 0;
    std::vector<int> ids;        ///< dense index -> block id, ascending
    std::vector<int> dense;      ///< node -> dense index
    std::vector<int> size;       ///< nodes per dense block
    std::vector<NodeId> minNode; ///< smallest node per dense block
    std::vector<int> edgeStart;  ///< CSR offsets into edgeDst
    std::vector<int> edgeDst;    ///< dense successor per inter-block edge
    std::vector<int> indeg;      ///< inter-block in-edges per dense block
    std::vector<int> rank;       ///< topological position (see drain())
    std::vector<int> scratch;    ///< id table, fill cursors, ready heap

    void build(const Graph &g, const std::vector<int> &block);

    /**
     * Kahn's algorithm, taking the ready block with the smallest
     * minNode first (Partition::canonicalize()'s order). Sets rank[b]
     * for every drained block and returns how many drained; rank[b]
     * stays -1 exactly for the blocks on, or downstream of, a quotient
     * cycle. Consumes indeg.
     */
    int drain();
};

/**
 * For each node, the set of graph-input-reachable ancestors is implied;
 * this helper returns, for a node set S, the ids of *boundary inputs*:
 * producers outside S that feed some node in S (deduplicated, sorted).
 */
std::vector<NodeId> boundaryInputs(const Graph &g,
                                   const std::vector<NodeId> &nodes);

/**
 * For a node set S, the ids of nodes in S whose output escapes S
 * (consumed by a node outside S, or a model output). Sorted ascending.
 */
std::vector<NodeId> escapingOutputs(const Graph &g,
                                    const std::vector<NodeId> &nodes);

} // namespace cocco

#endif // COCCO_GRAPH_ALGORITHMS_H
