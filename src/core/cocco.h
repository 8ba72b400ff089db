/**
 * @file
 * CoccoFramework: the one-stop public API (paper Figure 10).
 *
 * Feed it a model graph, the accelerator description, and the memory
 * design-space requirements; it runs the five stages (initialization,
 * crossover, mutation, evaluation with in-situ tuning, selection) and
 * returns the recommended memory configuration, the graph execution
 * strategy (partition), and the evaluated costs.
 *
 * Typical use:
 * @code
 *   Graph g = buildModel("ResNet50");
 *   CoccoFramework cocco(g, AcceleratorConfig{});
 *   CoccoResult r = cocco.coExplore(BufferStyle::Shared);
 *   // r.buffer, r.partition, r.cost ...
 * @endcode
 *
 * Parallel evaluation: population evaluation is batched through the
 * EvalEngine, so the searches scale across cores while staying
 * bit-identical to the serial run (per-genome RNG streams, results
 * written back by index, shared thread-safe profile memo):
 * @code
 *   GaOptions opts;
 *   opts.threads = 0;                       // one per hardware thread
 *   CoccoResult r = cocco.coExplore(BufferStyle::Shared, opts);
 *   // identical best/trace to opts.threads == 1, only faster
 * @endcode
 * The same knob exists on SaOptions (plus neighborBatch for the
 * speculative SA neighbor batches) and TwoStepOptions.
 */

#ifndef COCCO_CORE_COCCO_H
#define COCCO_CORE_COCCO_H

#include <memory>

#include "core/metrics.h"
#include "models/models.h"
#include "search/driver.h"
#include "search/pareto.h"
#include "sim/cost_model.h"

namespace cocco {

/** Final recommendation returned by the framework. */
struct CoccoResult
{
    BufferConfig buffer;    ///< recommended memory configuration
    Partition partition;    ///< graph execution strategy
    GraphCost cost;         ///< evaluated performance
    double objective = 0.0; ///< Formula 2 value (or Formula 1 when
                            ///< partition-only)
    int64_t samples = 0;
    std::vector<TracePoint> trace;
    std::vector<SamplePoint> points;
    StopReason stop = StopReason::BudgetExhausted; ///< why the run ended
    EvalCacheStats cacheStats; ///< evaluation-cache activity of the run
    DeltaStats deltaStats;     ///< operator gene-change accounting

    /** Per-core utilization and crossbar share of the recommendation
     *  (trivial — one core, zero crossbar — for single-core runs). */
    DeploymentBreakdown deployment;

    /** Per-racer breakdown (algo = "portfolio" only; empty otherwise). */
    std::vector<RacerStats> racers;

    /** The non-dominated {buffer, energy, latency} frontier
     *  (spec.paretoMode only; empty otherwise). */
    std::vector<ParetoEntry> frontier;
    double hypervolume = 0.0; ///< normalized frontier hypervolume
};

/** Copy a result's optional portfolio / pareto blocks into a metrics
 *  record (SpecRun::metrics, so `cocco run` and the serve API emit
 *  the same schema). @p paretoMode gates
 *  the pareto block: an empty frontier from a pareto run is still a
 *  reportable (degenerate) frontier, while non-pareto runs omit the
 *  block entirely. */
void fillResultMetrics(const CoccoResult &r, bool paretoMode,
                       RunMetrics *m);

/** The hardware-mapping co-exploration framework. */
class CoccoFramework
{
  public:
    /**
     * @param g     the workload (kept by reference; must outlive this)
     * @param accel the accelerator platform
     */
    CoccoFramework(const Graph &g, const AcceleratorConfig &accel);

    /**
     * Evaluate on a multi-accelerator deployment (sim/deployment.h):
     * @p dep's cores behind the weight-rotation crossbar. A
     * single-core deployment is bit-identical to the plain
     * constructor over that core's platform.
     */
    CoccoFramework(const Graph &g, const DeploymentConfig &dep);

    /** The shared evaluation environment (memoized simulator). */
    CostModel &model() { return *model_; }

    /**
     * Run any registered search strategy from a declarative spec:
     * spec.algo is resolved through the SearcherRegistry ("ga",
     * "sa", "ts-random", "ts-grid", or anything registered at
     * startup), spec.eval.coExplore selects hardware-mapping
     * co-exploration over the paper's grid for spec.style (Formula
     * 2) versus partition-only optimization under spec.fixedBuffer
     * (Formula 1). Optional @p seed_partitions join the initial
     * population where the strategy supports warm starts (the GA's
     * flexible initialization); each is paired with a mid-grid
     * hardware point.
     *
     * At a fixed seed and thread count the result is bit-identical
     * to calling the strategy's legacy entry point directly.
     */
    CoccoResult explore(const SearchSpec &spec,
                        const std::vector<Partition> &seed_partitions = {});

    /**
     * Hardware-mapping co-exploration (Formula 2) with the genetic
     * search. Compatibility wrapper over explore(): builds a spec
     * with algo = "ga" from @p opts.
     */
    CoccoResult coExplore(BufferStyle style, const GaOptions &opts = {},
                          const std::vector<Partition> &seed_partitions = {});

    /**
     * Partition-only optimization (Formula 1) under a fixed buffer.
     * Compatibility wrapper over explore() (algo = "ga").
     */
    CoccoResult partitionOnly(const BufferConfig &buffer,
                              const GaOptions &opts = {},
                              const std::vector<Partition> &seed_partitions =
                                  {});

  private:
    CoccoResult package(const SearchResult &r, const DseSpace &space) const;

    const Graph &g_;
    std::unique_ptr<CostModel> model_;
};

} // namespace cocco

#endif // COCCO_CORE_COCCO_H
