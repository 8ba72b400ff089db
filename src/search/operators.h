/**
 * @file
 * The customized GA operators of paper Section 4.4 and Figure 9:
 * random initialization, the subgraph-reproducing crossover, and the
 * four mutations (modify-node, split-subgraph, merge-subgraph,
 * mutation-DSE). Every operator returns a structurally valid genome
 * flagged canonical (operators call the repair pipeline); capacity
 * enforcement happens at evaluation time (in-situ tuning). On a
 * flagged input the three partition mutations repair only the blocks
 * they touched (repairLocally), and crossover of identical flagged
 * parents copies the partition.
 */

#ifndef COCCO_SEARCH_OPERATORS_H
#define COCCO_SEARCH_OPERATORS_H

#include "search/genome.h"
#include "util/random.h"

namespace cocco {

/**
 * Random initialization (Section 4.4.1): P(v) chosen per node in
 * topological order within its valid range; hardware indices uniform
 * over the grids.
 */
Genome randomGenome(const Graph &g, const DseSpace &space, Rng &rng);

/**
 * Crossover (Section 4.4.2, Figure 9(b)): each undecided layer picks
 * a random parent and reproduces that parent's subgraph; collisions
 * with already-decided layers are resolved by splitting out a new
 * subgraph or merging with a decided one (both choices sampled).
 * Hardware indices average (rounded to the grid).
 *
 * Every operator optionally reports what it touched through @p delta
 * (appended, never cleared, so one report can span an operator
 * chain); crossover reports a global partition rewrite.
 */
Genome crossover(const Graph &g, const DseSpace &space, const Genome &dad,
                 const Genome &mom, Rng &rng, GeneDelta *delta = nullptr);

/** modify-node (Figure 9(c)): reassign one random node. */
void mutateModifyNode(const Graph &g, Genome &genome, Rng &rng,
                      GeneDelta *delta = nullptr);

/** split-subgraph (Figure 9(d)): split one random multi-node block. */
void mutateSplitSubgraph(const Graph &g, Genome &genome, Rng &rng,
                         GeneDelta *delta = nullptr);

/** merge-subgraph (Figure 9(e)): merge two adjacent blocks. */
void mutateMergeSubgraph(const Graph &g, Genome &genome, Rng &rng,
                         GeneDelta *delta = nullptr);

/**
 * mutation-DSE: gaussian step on the capacity grid indices
 * (std deviation @p sigma grid steps).
 */
void mutateDse(const DseSpace &space, Genome &genome, Rng &rng,
               double sigma = 2.0, GeneDelta *delta = nullptr);

} // namespace cocco

#endif // COCCO_SEARCH_OPERATORS_H
