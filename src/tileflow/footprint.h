/**
 * @file
 * Stage-1 mapper policy: pick the output tile size that minimizes the
 * subgraph's activation footprint (the paper notes the tile "tends to
 * be smaller" to hold a larger subgraph), with a utilization-driven
 * tie-break toward larger tiles.
 */

#ifndef COCCO_TILEFLOW_FOOTPRINT_H
#define COCCO_TILEFLOW_FOOTPRINT_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tileflow/scheme.h"

namespace cocco {

/** Default stage-1 candidate output tile sizes. */
const std::vector<int> &defaultTileCandidates();

/**
 * The stage-1 tile choice: run the derivation core for each candidate
 * output tile and return the footprint of the one with the smallest
 * activation footprint, ties broken toward the larger tile (which
 * keeps PE utilization up). Candidates are walked largest tile first
 * with a strict improve-only comparison, which selects exactly that
 * tile. No stage-3 solve runs: this is all the cost model reads.
 *
 * With @p prune set, every derivation after the first aborts as soon
 * as its running footprint reaches the incumbent's (see
 * deriveConsumptionScheme's abort_above). An aborted candidate can at
 * best tie, and a tie keeps the incumbent, which already has the
 * larger tile, so the choice is the same as unpruned. Footprints
 * usually shrink as the tile does, so the abort fires rarely: on 99 of
 * about 6,800 later candidates in a traced 5k-sample SA NasNet run.
 * @p schemes_pruned, when non-null, is incremented per aborted
 * candidate.
 */
FlowFootprint bestFootprint(const Graph &g, const std::vector<NodeId> &nodes,
                            const std::vector<int> &candidates =
                                defaultTileCandidates(),
                            bool prune = false,
                            uint64_t *schemes_pruned = nullptr);

/**
 * The full consumption-centric scheme of the tile bestFootprint
 * chooses (same arguments, same pruned count).
 */
ExecutionScheme bestScheme(const Graph &g, const std::vector<NodeId> &nodes,
                           const std::vector<int> &candidates =
                               defaultTileCandidates(),
                           bool prune = false,
                           uint64_t *schemes_pruned = nullptr);

} // namespace cocco

#endif // COCCO_TILEFLOW_FOOTPRINT_H
