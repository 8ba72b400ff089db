/**
 * @file
 * Two-step DSE baselines (paper Section 5.1.3): sample memory
 * capacity candidates first (random search or grid search), then run
 * a partition-only GA for each candidate with a fixed per-candidate
 * sample budget; the best (capacity, partition) pair wins. Grid
 * search walks the candidates from large to small capacity, matching
 * the paper's setup.
 */

#ifndef COCCO_SEARCH_TWO_STEP_H
#define COCCO_SEARCH_TWO_STEP_H

#include "search/ga.h"

namespace cocco {

/** Two-step-specific parameters (shared knobs live in EvalOptions). */
struct TwoStepParams
{
    int64_t samplesPerCandidate = 5000; ///< paper: 5,000 per capacity
    int population = 100;               ///< inner-GA population
};

/** The two-step block's rule: "" when the drivers can run @p p, else
 *  the reason (population >= 2, samplesPerCandidate >= 1). */
std::string twoStepParamsError(const TwoStepParams &p);

/**
 * Two-step driver options: the shared evaluation core + the two-step
 * block. The cache knobs behave as in GaOptions, with one cache
 * shared across all inner GAs: genome entries are fenced per
 * candidate buffer (the salt covers the frozen space), while the
 * profile memo and the accounting accumulate across the sweep.
 * coExplore selects the outer fold: true scores each candidate with
 * Formula 2 (capacity + alpha * metric, the paper's setup), false
 * folds the raw metric (Formula 1) — useful when the space is frozen.
 */
struct TwoStepOptions : EvalOptions, TwoStepParams
{
};

/** Random-search capacity sampling + GA partition (RS+GA). */
SearchResult twoStepRandom(CostModel &model, const DseSpace &space,
                           const TwoStepOptions &opts);

/** Grid-search capacity sweep (large to small) + GA partition (GS+GA). */
SearchResult twoStepGrid(CostModel &model, const DseSpace &space,
                         const TwoStepOptions &opts);

} // namespace cocco

#endif // COCCO_SEARCH_TWO_STEP_H
