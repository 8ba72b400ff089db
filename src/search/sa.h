/**
 * @file
 * Simulated-annealing baseline (paper Section 4.2.4): single-state
 * optimization using the same customized mutation operators and the
 * same evaluation environment as the GA, with geometric cooling and
 * Metropolis acceptance.
 *
 * Parallelism: each round speculatively generates a batch of
 * neighbors of the current state (per-neighbor RNG streams), submits
 * the batch to the EvalEngine, then sweeps the results in index
 * order with the usual Metropolis rule. With the default
 * neighborBatch == 1 this is the classic serial chain. Results
 * depend on the batch size but never on the thread count, so a
 * fixed (seed, neighborBatch) pair reproduces exactly anywhere.
 */

#ifndef COCCO_SEARCH_SA_H
#define COCCO_SEARCH_SA_H

#include "search/ga.h"

namespace cocco {

/** SA-specific parameters (the shared knobs live in EvalOptions). */
struct SaParams
{
    double tempStartFrac = 0.1;  ///< T0 as a fraction of the initial cost
    double tempEndFrac = 1e-5;   ///< final T as a fraction of T0
    double dseMutationRate = 0.3;

    /** Speculative neighbors per round. The default 1 is the classic
     *  serial chain (threads then gain nothing); raise it to occupy
     *  the pool. Results depend on this value, not on threads. */
    int neighborBatch = 1;
};

/** The SA block's rule: "" when SA can run @p p, else the reason
 *  (neighborBatch >= 1). */
std::string saParamsError(const SaParams &p);

/** SA hyper-parameters: the shared evaluation core + the SA block. */
struct SaOptions : EvalOptions, SaParams
{
};

/** Run simulated annealing over the same genome space as the GA. */
SearchResult simulatedAnnealing(CostModel &model, const DseSpace &space,
                                const SaOptions &opts);

} // namespace cocco

#endif // COCCO_SEARCH_SA_H
