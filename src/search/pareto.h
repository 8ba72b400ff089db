/**
 * @file
 * Pareto-front machinery in two layers.
 *
 * The 2D helpers (paretoFront/selectByAlpha) extract the undominated
 * (buffer capacity, metric) trade-offs from a finished run's recorded
 * sample points — the analytical content of the paper's Figures 13/14:
 * which capacity/energy points are undominated, and what alpha range
 * of Formula 2 selects each of them.
 *
 * ParetoArchive is the first-class search mode built on top: an
 * NSGA-II-style non-dominated archive over {buffer size, energy,
 * latency} maintained *inside* the evaluation loop (every recorded
 * sample is offered via EvalOptions::pareto), so ONE run emits the
 * whole frontier instead of a scalarized alpha sweep re-running the
 * search once per alpha. Selectable via `"mode": "pareto"` in a run
 * spec; bench_fig14 builds its alpha table from a single archive.
 *
 * Offers arrive on the driver thread in recorded-sample order, so the
 * archive needs no locking and its content is bit-reproducible for a
 * fixed seed at any thread count. Invariants (asserted by tests):
 * no retained entry dominates another, entries stay sorted by
 * (bufferBytes, energyPj, latencyCycles), and capacity overflow
 * truncates by NSGA-II crowding distance (boundary points are
 * infinitely crowded, so the frontier's extremes survive).
 */

#ifndef COCCO_SEARCH_PARETO_H
#define COCCO_SEARCH_PARETO_H

#include <vector>

#include "search/ga.h"

namespace cocco {

/** One undominated (capacity, metric) point. */
struct ParetoPoint
{
    int64_t bufferBytes = 0;
    double metric = 0.0;

    /**
     * The alpha range [alphaLo, alphaHi) of Formula 2 for which this
     * point minimizes BUF + alpha * metric among the front
     * (alphaHi = +inf for the largest-capacity point).
     */
    double alphaLo = 0.0;
    double alphaHi = 0.0;
};

/**
 * Extract the Pareto front (minimal capacity and metric) from sample
 * points. Points with identical capacity keep only the best metric.
 * The result is sorted by ascending capacity (hence descending
 * metric), with the alpha selection ranges filled in.
 */
std::vector<ParetoPoint>
paretoFront(const std::vector<SamplePoint> &points);

/** The front point Formula 2 selects at a given alpha. */
const ParetoPoint &selectByAlpha(const std::vector<ParetoPoint> &front,
                                 double alpha);

/** One archive entry: an undominated point of the 3D objective space
 *  (all minimized), plus the run's scalarization metric value and the
 *  sample index that first produced it. */
struct ParetoEntry
{
    int64_t bufferBytes = 0;
    double energyPj = 0.0;
    double latencyCycles = 0.0;
    double metric = 0.0; ///< metricValue(run metric) — 2D projection
    int64_t sample = 0;  ///< racer-local sample index of discovery
};

/** In-loop non-dominated archive (see file comment). Single-threaded
 *  by contract: offers come from one driver thread in sample order. */
class ParetoArchive
{
  public:
    static constexpr size_t kDefaultCapacity = 512;

    explicit ParetoArchive(size_t capacity = kDefaultCapacity);

    /** Offer one evaluated point. Infeasible points (caller checks
     *  GraphCost::feasible) must not be offered. @return true when
     *  the point entered the archive (it was non-dominated). */
    bool offer(const ParetoEntry &e);

    /** Fold another archive in (deterministic: entry order of @p o).
     *  Used by the portfolio to merge per-racer archives. */
    void merge(const ParetoArchive &o);

    /** The frontier, sorted by (bufferBytes, energyPj, latencyCycles). */
    const std::vector<ParetoEntry> &entries() const { return entries_; }

    size_t size() const { return entries_.size(); }
    size_t capacity() const { return capacity_; }

    /** Total points offered (including dominated rejects). */
    int64_t offered() const { return offered_; }

    /**
     * Normalized 3D hypervolume of the frontier: each objective is
     * scaled to [0, 1] over the frontier's own span and the reference
     * point sits at 1.05 per dimension, so the value is comparable
     * across runs of one study (larger = better coverage). 0 for an
     * empty archive.
     */
    double hypervolume() const;

  private:
    void truncate();

    size_t capacity_;
    int64_t offered_ = 0;
    std::vector<ParetoEntry> entries_;
};

} // namespace cocco

#endif // COCCO_SEARCH_PARETO_H
