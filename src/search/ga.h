/**
 * @file
 * The Cocco genetic search (paper Section 4.4): initialization,
 * crossover, mutation, in-situ capacity tuning at evaluation, and
 * tournament selection, over genomes that pair a graph partition
 * with a memory configuration.
 */

#ifndef COCCO_SEARCH_GA_H
#define COCCO_SEARCH_GA_H

#include <cstdint>
#include <string>
#include <vector>

#include "search/eval_engine.h"
#include "search/genome.h"
#include "sim/cost_model.h"
#include "util/random.h"

namespace cocco {

/**
 * Per-racer accounting of a portfolio run (search/portfolio.h): how
 * each concurrent searcher fared before it won, lost its thread
 * grant, or was early-stopped by the PortfolioMonitor.
 */
struct RacerStats
{
    std::string algo;
    int64_t samples = 0;
    double bestCost = kInfeasiblePenalty;
    int64_t improvements = 0; ///< incumbent improvements observed
    double wallSeconds = 0.0; ///< racer wall clock (across regrants)
    int threads = 1;          ///< final evaluation-thread grant
    int regrants = 0;         ///< times the racer absorbed freed threads
    bool culled = false;      ///< early-stopped by the monitor
    bool winner = false;

    /** The racer's own stop reason (Cancelled when culled). */
    StopReason stop = StopReason::BudgetExhausted;
};

/** Result of any search driver (GA, SA, two-step). */
struct SearchResult
{
    Genome best;
    double bestCost = kInfeasiblePenalty;
    GraphCost bestGraphCost;
    BufferConfig bestBuffer;
    int64_t samples = 0;
    std::vector<TracePoint> trace;
    std::vector<SamplePoint> points; ///< filled when recordPoints

    /** Why the run ended (budget unless an early stop tripped). */
    StopReason stop = StopReason::BudgetExhausted;

    /** Evaluation-cache activity attributable to this run (a delta
     *  when the cache is shared across runs; zeros when disabled). */
    EvalCacheStats cacheStats;

    /** Operator gene-change accounting for this run. */
    DeltaStats deltaStats;

    /** Per-racer breakdown (portfolio runs only; empty otherwise). */
    std::vector<RacerStats> racers;
};

/**
 * GA-specific parameters. The evaluation-environment knobs (budget,
 * seed, objective, threads, cache, observer/early-stop) live in the
 * shared EvalOptions core; GaOptions composes the two.
 */
struct GaParams
{
    int population = 100;
    double crossoverRate = 0.6;  ///< fraction of offspring from crossover
    double mutPartitionRate = 0.5; ///< per-offspring partition mutation
    double mutDseRate = 0.3;     ///< per-offspring DSE mutation
    int tournament = 3;
    int elite = 2;
    bool recordPoints = false;   ///< keep every sample (Figure 13)
};

/** The GA block's rule: "" when a GA can run @p p, else the reason
 *  (population >= 2, tournament >= 1, elite in [0, population]). */
std::string gaParamsError(const GaParams &p);

/** GA hyper-parameters: the shared evaluation core + the GA block. */
struct GaOptions : EvalOptions, GaParams
{
};

/** The genetic optimizer. */
class GeneticSearch
{
  public:
    /**
     * @param model evaluation environment (graph + accelerator)
     * @param space the hardware design space (or frozen buffer)
     * @param opts  hyper-parameters
     * @param pool  optional shared worker pool for the evaluation
     *              engine (e.g. reused across the inner GAs of a
     *              two-step sweep); null = own one per opts.threads
     */
    GeneticSearch(CostModel &model, const DseSpace &space,
                  const GaOptions &opts,
                  std::shared_ptr<ThreadPool> pool = nullptr);

    /** Run to the sample budget; optional seed genomes join the
     *  initial population (flexible initialization). */
    SearchResult run(const std::vector<Genome> &seeds = {});

    /**
     * Evaluate one genome: decode buffer, apply in-situ capacity
     * tuning to the partition, and return the objective value.
     * Exposed for SA and tests.
     */
    double evaluate(Genome &genome);

  private:
    CostModel &model_;
    DseSpace space_;
    GaOptions opts_;
    EvalEngine engine_;
};

} // namespace cocco

#endif // COCCO_SEARCH_GA_H
