/**
 * @file
 * Genome encoding for the co-exploration (paper Section 4.3): a
 * candidate solution is a graph partition plus a memory configuration
 * drawn from the capacity candidate grids. In partition-only mode the
 * hardware part is frozen.
 */

#ifndef COCCO_SEARCH_GENOME_H
#define COCCO_SEARCH_GENOME_H

#include "mem/buffer_config.h"
#include "partition/partition.h"

namespace cocco {

/** The hardware design space being searched. */
struct DseSpace
{
    BufferStyle style = BufferStyle::Separate;
    CapacityGrid actGrid;
    CapacityGrid weightGrid;
    CapacityGrid sharedGrid;
    bool searchHw = true;      ///< false = partition-only (fixed buffer)
    BufferConfig fixed;        ///< used when !searchHw

    /** The paper's search space for @p style. */
    static DseSpace paperSpace(BufferStyle style);

    /** A frozen space around @p fixed (partition-only search). */
    static DseSpace fixedSpace(const BufferConfig &fixed);
};

/** One candidate solution. */
struct Genome
{
    Partition part;
    int actIdx = 0;    ///< global-buffer grid index (Separate)
    int weightIdx = 0; ///< weight-buffer grid index (Separate)
    int sharedIdx = 0; ///< shared-buffer grid index (Shared)

    /** Decode the hardware part into a concrete configuration. */
    BufferConfig buffer(const DseSpace &space) const;
};

/**
 * Change report filled by the variation operators: which genes a
 * crossover/mutation chain touched. The evaluation engine only counts
 * it (DeltaStats); no result depends on it.
 *
 * The report covers the operator's direct reassignments, pre-repair:
 * structural repair may ripple block renumbering further, which is
 * why the cache layers key on content, not on this report. `rewrite`
 * marks a global rewrite (crossover rebuilds the whole child
 * partition); it stays set when a mutation later appends nodes.
 */
struct GeneDelta
{
    std::vector<NodeId> nodes;     ///< nodes the operator reassigned
    bool partitionChanged = false; ///< any partition gene touched
    bool hwChanged = false;        ///< any hardware gene touched
    bool rewrite = false;          ///< crossover rewrote the partition

    /** Record the reassignment of one node. */
    void
    noteNode(NodeId v)
    {
        nodes.push_back(v);
        partitionChanged = true;
    }

    /** Record a global partition rewrite (crossover). */
    void
    noteRewrite()
    {
        rewrite = true;
        partitionChanged = true;
    }

    /** Record a hardware-gene change. */
    void noteHw() { hwChanged = true; }

    /** True when no gene changed (the child equals its parent). */
    bool unchanged() const { return !partitionChanged && !hwChanged; }
};

} // namespace cocco

#endif // COCCO_SEARCH_GENOME_H
