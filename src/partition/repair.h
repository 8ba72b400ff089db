/**
 * @file
 * Partition repair: turns an arbitrary block assignment into a valid
 * partition (connected blocks, acyclic quotient, canonical numbering)
 * and optionally enforces buffer capacity by the paper's in-situ
 * split-subgraph tuning (Section 4.4.4).
 */

#ifndef COCCO_PARTITION_REPAIR_H
#define COCCO_PARTITION_REPAIR_H

#include "mem/buffer_config.h"
#include "partition/partition.h"
#include "sim/cost_model.h"

namespace cocco {

/**
 * Structural repair:
 *  1. split every block into weakly-connected components;
 *  2. while the quotient graph is cyclic, split a block on a cycle at
 *     its topological median (strictly increases block count, so this
 *     terminates — all singletons are trivially acyclic);
 *  3. canonicalize numbering.
 * Input ids must be non-negative but need not be dense. The result
 * always satisfies Partition::valid().
 */
Partition repairStructure(const Graph &g, Partition p);

/**
 * Structural repair followed by capacity enforcement: any multi-node
 * block that does not fit @p buf (activation footprint, resident
 * weights, or region count) is recursively split at its topological
 * median. Singleton blocks are always accepted (they execute with
 * reload penalties).
 */
Partition repairToCapacity(const Graph &g, Partition p, CostModel &model,
                           const BufferConfig &buf);

} // namespace cocco

#endif // COCCO_PARTITION_REPAIR_H
