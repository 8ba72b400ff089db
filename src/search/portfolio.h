/**
 * @file
 * Racing searcher portfolio (`algo: "portfolio"`).
 *
 * Runs several registered searchers concurrently over slices of the
 * evaluation-thread budget — JobManager-style ledger semantics: each
 * racer gets an integer thread grant with a floor of one, no nested
 * thread pools — all against the ONE shared EvalCache so racers warm
 * each other at the genome level. A PortfolioMonitor built on the
 * SearchObserver cooperative-cancellation hooks tracks each racer's
 * observed improvement rate, early-stops losers, and re-allocates a
 * stopped racer's thread grant to the smallest surviving racer (a
 * regrant rides the checkpoint/resume machinery: batch-boundary
 * snapshots resume bit-identically at any thread count, so growing a
 * survivor's grant mid-race never changes its results).
 *
 * Determinism contract (tested): with a fixed seed, each racer's
 * results are bit-identical to running that algorithm solo with the
 * same seed; only the race outcome — who wins, when losers stop —
 * depends on wall-clock. With `deterministicRace`, stop decisions are
 * pinned to eval-count milestones through a barrier, making winner
 * and per-racer stop points bit-identical across thread budgets.
 */

#ifndef COCCO_SEARCH_PORTFOLIO_H
#define COCCO_SEARCH_PORTFOLIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace cocco {

class SearcherRegistry; // search/driver.h

/** Portfolio knobs (the `"portfolio"` block of a run spec). */
struct PortfolioParams
{
    /** Registry keys raced against each other. Every key must be
     *  registered and must not itself be "portfolio". */
    std::vector<std::string> racers{"ga", "sa", "ts-random", "ts-grid"};

    /**
     * Pin cull decisions to eval counts: racers rendezvous at
     * checkEvals milestones and losers stop at deterministic sample
     * positions, so the winner is bit-identical across thread
     * budgets (CLI --deterministic-race; used by tests and bench).
     * Off = decisions fire on live stats as milestones are reached,
     * which is faster but makes the race outcome timing-dependent.
     */
    bool deterministicRace = false;

    /** Samples between cull-decision milestones (per racer). */
    int64_t checkEvals = 1000;

    /** No racer is culled before it recorded this many samples. */
    int64_t warmupEvals = 2000;
};

/** The portfolio block's rule: "" when the race can run @p p, else
 *  the reason (a non-empty line-up of registered, distinct racers,
 *  none of them "portfolio"; checkEvals >= 1, warmupEvals >= 0). The
 *  registered "portfolio" rule adds each racer's own rule. */
std::string portfolioParamsError(const PortfolioParams &p);

/** Register the "portfolio" meta-searcher (called by the
 *  SearcherRegistry constructor, like the greedy-place hook). */
void registerPortfolioSearcher(SearcherRegistry &reg);

} // namespace cocco

#endif // COCCO_SEARCH_PORTFOLIO_H
