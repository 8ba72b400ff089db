/**
 * @file
 * The benchmark's workloads. Each fills a Report: end-to-end metrics
 * from an untraced run, or (RunConfig::trace) the per-layer split from
 * a traced one. See README.md for the metric definitions.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"
#include "stats.h"

namespace perfbench {

/** One search workload's job family. */
struct SearchWorkload
{
    const char *name;       ///< names its earlier-session cache file
    const char *specFormat; ///< spec text with one %llu for the seed
    int seeds;              ///< distinct job seeds per run
    double jobSeconds;      ///< nominal job wall; sizes the repeat count
    size_t priorEntries;    ///< entries kept in the earlier session's file
};

/**
 * A search workload: back-to-back jobs of @p w's spec family, each a
 * full-budget CoccoFramework::explore(), every job seed run several
 * times. With RunConfig::trace, the per-layer split instead: one job
 * traced (traceSearchJob), then a short serve session (runServeSession).
 */
void runSearchWorkload(const RunConfig &cfg, const SearchWorkload &w,
                       Report *out);

/**
 * The per-layer split of one search job (core, search, search.cache,
 * sim, trace metrics and the operator/repair probe): the job untraced,
 * traced through SearcherRegistry with a TimedCostModel, then replayed
 * over the warm cache; all three must agree bit for bit.
 */
void traceSearchJob(const RunConfig &cfg, const std::string &specText,
                    const std::string &cacheFile, Report *out);

/** The serve layer: a short open-loop session of five job kinds
 *  through JobManager behind HttpServer (serve.* metrics; see
 *  serve_workload.cc). */
void runServeSession(const RunConfig &cfg, Report *out);

/**
 * Time direct calls to the variation operators and both repair passes
 * on a seeded stream of genomes for @p r's workload (partition.* and
 * search.ops.* metrics, in microseconds).
 */
void runProbe(const ResolvedSpec &r, uint64_t seed, int calls, Report *out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
