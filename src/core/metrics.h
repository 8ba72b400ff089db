/**
 * @file
 * The machine-readable metrics pipeline: a flat per-run record
 * (search outcome, evaluation/cache accounting, wall time, thread
 * count) serialized to a versioned JSON document. The bench harnesses
 * (--metrics-out) and the CLI emit it; CI uploads it as an artifact
 * so the perf trajectory is tracked from structured data instead of
 * stdout scraping.
 *
 * Schema (version 1):
 * {
 *   "schema_version": 1,
 *   "generator": "<tool name>",
 *   "runs": [
 *     {
 *       "name": "...", "model": "...",
 *       "threads": N, "seed": N, "samples": N,
 *       "best_cost": X, "wall_seconds": X,
 *       "evals_total": N, "evals_computed": N, "evals_cached": N,
 *       "cache": { "enabled": B, "hits": N, "misses": N,
 *                  "insertions": N, "evictions": N, "hit_rate": X,
 *                  "block_hits": N, "block_misses": N,
 *                  "entries": N, "block_entries": N,
 *                  "bound_rejections": N,
 *                  "bound_skipped_samples": N },
 *       "deployment": { "cores": N,
 *                       "crossbar_energy_share": X,
 *                       "crossbar_latency_share": X,
 *                       "core_utilization": [X, ...] },   // optional
 *       "job": { "id": N, "tenant": "...", "state": "...",
 *                "queued_seconds": X },                   // optional
 *       "tenants": { "count": N, "sla_violations": N,
 *                    "mean_latency_ms": X,
 *                    "list": [ { "name": "...", "core": N,
 *                                "arrival_rate_hz": X,
 *                                "sla_latency_ms": X,
 *                                "latency_ms": X, "energy_pj": X,
 *                                "sla_violation": B }, ... ] },
 *                                                         // optional
 *       "portfolio": { "winner": "...",
 *                      "racers": [ { "algo": "...", "samples": N,
 *                                    "best_cost": X,
 *                                    "improvements": N,
 *                                    "wall_seconds": X, "threads": N,
 *                                    "regrants": N, "culled": B,
 *                                    "winner": B, "stop": "..." },
 *                                  ... ] },                // optional
 *       "pareto": { "frontier_size": N, "hypervolume": X,
 *                   "frontier": [ { "buffer_bytes": N,
 *                                   "energy_pj": X,
 *                                   "latency_cycles": X,
 *                                   "metric": X, "sample": N },
 *                                 ... ] },                 // optional
 *       "extra": { "<key>": X, ... }
 *     }, ...
 *   ]
 * }
 *
 * The "deployment" object appears when the producing run evaluated a
 * CoccoResult (the CLI search modes and the deployment-aware bench
 * harnesses) so the multi-core trajectory — per-core utilization and
 * the crossbar's energy/latency share — is machine-checkable.
 *
 * The "job" object appears when the run went through the exploration
 * service (`cocco serve` / `cocco batch`): job id, tenant label,
 * terminal state ("done"/"cancelled"/"failed") and queue latency.
 * Solo `cocco run` documents omit it, keeping their exact prior
 * shape.
 *
 * The "tenants" object appears when the run co-scheduled a
 * WorkloadSet (`cocco coschedule`, a `workload_set` run spec through
 * any frontend): per-tenant effective latency/energy and SLA verdict,
 * plus the schedule-level violation count.
 *
 * The "portfolio" object appears when the run raced several searchers
 * (algo "portfolio"): the winning racer plus each racer's evaluation
 * count, improvement count, final cost, thread grant, regrant count,
 * cull verdict, and stop reason.
 *
 * The "pareto" object appears when the run asked for the frontier
 * ("mode": "pareto"): the non-dominated {buffer, energy, latency}
 * points collected over the whole run plus the normalized
 * hypervolume.
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
    bool hasPortfolio = false;
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

/** Write a metrics document to @p path. @return false on I/O error. */
bool writeMetricsFile(const std::string &path, const std::string &generator,
                      const std::vector<RunMetrics> &runs);

} // namespace cocco

#endif // COCCO_CORE_METRICS_H
