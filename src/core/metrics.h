/**
 * @file
 * The machine-readable metrics pipeline: a flat per-run record
 * (search outcome, evaluation/cache accounting, wall time, thread
 * count) serialized to a versioned JSON document. The bench harnesses
 * (--metrics-out) and the CLI emit it; CI uploads it as an artifact
 * so the perf trajectory is tracked from structured data instead of
 * stdout scraping.
 *
 * Schema (version 1): {"schema_version": 1, "generator": "<tool>",
 * "runs": [ ... ]}, one object per RunMetrics. Its keys are written
 * down once, as the field list in metrics.cc (runFields), which
 * metricsToJson writes from and metricsFromJson reads from. A run's
 * optional objects ("deployment", "job", "tenants", "portfolio",
 * "pareto") appear when their has* flag below is set.
 */

#ifndef COCCO_CORE_METRICS_H
#define COCCO_CORE_METRICS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "search/eval_cache.h"
#include "sim/cost_model.h"

namespace cocco {

class JsonValue;
class JsonWriter;

/** One run's worth of metrics (one element of the "runs" array). */
struct RunMetrics
{
    std::string name;   ///< run label ("ga-cold", "coexplore", ...)
    std::string model;  ///< workload model name
    int threads = 1;
    uint64_t seed = 0;
    int64_t samples = 0;
    double bestCost = 0.0;
    double wallSeconds = 0.0;

    bool cacheEnabled = false;
    EvalCacheStats cache; ///< per-run counter deltas

    /** Per-core / crossbar accounting of the run's recommendation;
     *  emitted only when set (so documents from non-search producers
     *  keep their exact shape). */
    bool hasDeployment = false;
    DeploymentBreakdown deployment;

    /** Serving context (`cocco serve` / `cocco batch`); emitted only
     *  when set, so solo-run documents keep their exact shape. */
    bool hasJob = false;
    int64_t jobId = 0;
    std::string tenant;
    std::string jobState;      ///< terminal JobState name
    double queuedSeconds = 0.0;

    /** Per-tenant serving metrics of a co-scheduled run; emitted only
     *  when set (schedule/co_scheduler.h produces the numbers). */
    struct TenantMetrics
    {
        std::string name;
        int core = 0;
        double arrivalRateHz = 0.0;
        double slaLatencyMs = 0.0;
        double latencyMs = 0.0;
        double energyPj = 0.0;
        bool slaViolation = false;
    };
    bool hasTenants = false;
    int slaViolations = 0;
    double meanLatencyMs = 0.0;
    std::vector<TenantMetrics> tenants;

    /** Per-racer breakdown of a portfolio race; emitted only when
     *  set. Self-contained mirror of search/ga.h RacerStats so the
     *  metrics layer stays decoupled from the search headers. */
    struct RacerMetrics
    {
        std::string algo;
        int64_t samples = 0;
        double bestCost = 0.0;
        int64_t improvements = 0;
        double wallSeconds = 0.0;
        int threads = 1;
        int regrants = 0;
        bool culled = false;
        bool winner = false;
        std::string stop; ///< stopReasonName of the racer's end
    };
    bool hasRace = false;
    std::string portfolioWinner;
    std::vector<RacerMetrics> racers;

    /** The non-dominated frontier of a pareto-mode run; emitted only
     *  when set. */
    struct FrontierPoint
    {
        int64_t bufferBytes = 0;
        double energyPj = 0.0;
        double latencyCycles = 0.0;
        double metric = 0.0;
        int64_t sample = 0;
    };
    bool hasPareto = false;
    double hypervolume = 0.0;
    std::vector<FrontierPoint> frontier;

    /** Free-form numeric side channel ("speedup", "budget", ...). */
    std::vector<std::pair<std::string, double>> extra;

    /** Evaluations answered, computed and served from cache. */
    int64_t evalsTotal() const;
    int64_t evalsComputed() const;
    int64_t evalsCached() const;
};

/** Serialize a metrics document (schema above). */
std::string metricsToJson(const std::string &generator,
                          const std::vector<RunMetrics> &runs);

/**
 * The strict inverse of metricsToJson, over the same field list
 * (`cocco validate-metrics`): fill *generator and *runs from @p doc.
 * Writing back what was read must give @p doc again, as parsed JSON,
 * so a missing, unknown, duplicate or mistyped key, an integer outside
 * its type and a derived field (evals_*, hit_rate, count,
 * frontier_size) that disagrees with its sources are all rejected; so
 * are a deployment without one core_utilization entry per core and a
 * portfolio winner that no racer is flagged as. @return false with
 * *err naming the key's path ("runs[0].cache.hits"), the outputs
 * untouched.
 */
bool metricsFromJson(const JsonValue &doc, std::string *generator,
                     std::vector<RunMetrics> *runs, std::string *err);

/** Write @p d as the metrics document's "deployment" object, at the
 *  writer's position (resultToJson's block too). */
void writeDeploymentJson(JsonWriter &w, const DeploymentBreakdown &d);

/** Write a metrics document to @p path. @return false on I/O error. */
bool writeMetricsFile(const std::string &path, const std::string &generator,
                      const std::vector<RunMetrics> &runs);

} // namespace cocco

#endif // COCCO_CORE_METRICS_H
