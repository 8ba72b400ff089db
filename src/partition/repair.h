/**
 * @file
 * Partition repair: turns an arbitrary block assignment into a valid
 * partition (connected blocks, acyclic quotient, canonical numbering)
 * and optionally enforces buffer capacity by the paper's in-situ
 * split-subgraph tuning (Section 4.4.4).
 */

#ifndef COCCO_PARTITION_REPAIR_H
#define COCCO_PARTITION_REPAIR_H

#include <cstdint>
#include <initializer_list>

#include "mem/buffer_config.h"
#include "partition/partition.h"
#include "sim/cost_model.h"

namespace cocco {

/**
 * Structural repair (sets the canonical flag):
 *  1. split every block into weakly-connected components; the one
 *     holding a block's smallest node keeps the block's id, the others
 *     take fresh ids max+1, max+2, ... in (block id, smallest node)
 *     order;
 *  2. while the quotient graph is cyclic, take the largest block that
 *     Kahn's drain cannot reach (it sits on a cycle or downstream of
 *     one; ties go to the smallest id), move its upper half (by node
 *     id) to a fresh id, and split each half into its components as
 *     in step 1. Each round adds a block, so this terminates: all
 *     singletons are trivially acyclic;
 *  3. canonicalize numbering.
 * Input ids must be non-negative but need not be dense. The result
 * always satisfies Partition::valid(). One component pass serves all
 * three steps: after a split the drain resumes instead of restarting.
 */
Partition repairStructure(const Graph &g, Partition p);

/**
 * Structural repair of a mutation of a canonical partition that looks
 * only at what the mutation touched. @p p is the partition as edited:
 * the canonical input with some nodes of the blocks @p touched (input
 * ids, distinct) moved to other touched blocks or to fresh ids (>=
 * p.numBlocks, still the input's count). @p before lists the input's
 * blocks (BlockLists::build before the edit). Untouched blocks keep
 * their nodes; the touched nodes come apart into their weak
 * components under the edited ids (the pieces), and the pieces'
 * acyclicity and the smallest-node Kahn order are decided over the
 * window of the input's order that the pieces can disturb (see
 * LocalDrain in repair.cc); ids before it stay and ids after it shift
 * by the change in block count.
 *
 * @return true with p equal to repairStructure(g, p) and flagged
 *         canonical; false, with p left as edited, when the pieces
 *         close a quotient cycle (the caller then runs repairStructure,
 *         whose split order needs the whole graph).
 */
bool repairLocally(const Graph &g, Partition &p, const BlockLists &before,
                   std::initializer_list<int> touched);

/** Per-thread counts of repairLocally outcomes (for tests). */
struct RepairPathCounts
{
    uint64_t local = 0;  ///< repaired locally
    uint64_t cyclic = 0; ///< a quotient cycle: the caller's full repair
};
RepairPathCounts &repairPathCounts();

/**
 * Structural repair (skipped when @p p carries the canonical flag,
 * see Partition::canonical) followed by capacity enforcement: any
 * multi-node block that does not fit @p buf (activation footprint,
 * resident weights, or region count) is recursively split at its
 * topological median. Singleton blocks are always accepted (they
 * execute with reload penalties). The result carries the canonical
 * flag. Each multi-node block checked is costed through @p costs
 * (CostModel::blockCost), so when the caller then costs the result
 * through the same hook, the blocks that fit are already there.
 */
Partition repairToCapacity(const Graph &g, Partition p, CostModel &model,
                           const BufferConfig &buf,
                           SubgraphCostCache *costs = nullptr);

} // namespace cocco

#endif // COCCO_PARTITION_REPAIR_H
