#include "core/metrics.h"

#include <cstdio>

#include "util/json.h"

namespace cocco {

int64_t
RunMetrics::evalsTotal() const
{
    if (!cacheEnabled)
        return samples;
    return static_cast<int64_t>(cache.hits + cache.misses);
}

int64_t
RunMetrics::evalsComputed() const
{
    return evalsTotal() - evalsCached();
}

int64_t
RunMetrics::evalsCached() const
{
    return cacheEnabled ? static_cast<int64_t>(cache.hits) : 0;
}

std::string
metricsToJson(const std::string &generator,
              const std::vector<RunMetrics> &runs)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", 1);
    w.field("generator", generator);
    w.key("runs").beginArray();
    for (const RunMetrics &r : runs) {
        w.beginObject();
        w.field("name", r.name);
        w.field("model", r.model);
        w.field("threads", r.threads);
        w.field("seed", r.seed);
        w.field("samples", r.samples);
        w.field("best_cost", r.bestCost);
        w.field("wall_seconds", r.wallSeconds);
        w.field("evals_total", r.evalsTotal());
        w.field("evals_computed", r.evalsComputed());
        w.field("evals_cached", r.evalsCached());
        w.key("cache").beginObject();
        w.field("enabled", r.cacheEnabled);
        w.field("hits", r.cache.hits);
        w.field("misses", r.cache.misses);
        w.field("insertions", r.cache.insertions);
        w.field("evictions", r.cache.evictions);
        w.field("hit_rate", r.cache.hitRate());
        w.field("block_hits", r.cache.blockHits);
        w.field("block_misses", r.cache.blockMisses);
        w.field("entries", r.cache.entries);
        w.field("block_entries", r.cache.blockEntries);
        w.field("bound_rejections", r.cache.boundRejections);
        w.field("bound_skipped_samples", r.cache.boundSkippedSamples);
        w.endObject();
        if (r.hasDeployment) {
            w.key("deployment").beginObject();
            w.field("cores", r.deployment.cores);
            w.field("crossbar_energy_pj", r.deployment.crossbarEnergyPj);
            w.field("crossbar_cycles", r.deployment.crossbarCycles);
            w.field("crossbar_energy_share",
                    r.deployment.crossbarEnergyShare);
            w.field("crossbar_latency_share",
                    r.deployment.crossbarLatencyShare);
            w.key("core_utilization").beginArray();
            for (double u : r.deployment.coreUtilization)
                w.value(u);
            w.endArray();
            w.endObject();
        }
        if (r.hasJob) {
            w.key("job").beginObject();
            w.field("id", r.jobId);
            w.field("tenant", r.tenant);
            w.field("state", r.jobState);
            w.field("queued_seconds", r.queuedSeconds);
            w.endObject();
        }
        if (r.hasTenants) {
            w.key("tenants").beginObject();
            w.field("count", static_cast<int64_t>(r.tenants.size()));
            w.field("sla_violations", r.slaViolations);
            w.field("mean_latency_ms", r.meanLatencyMs);
            w.key("list").beginArray();
            for (const RunMetrics::TenantMetrics &t : r.tenants) {
                w.beginObject();
                w.field("name", t.name);
                w.field("core", t.core);
                w.field("arrival_rate_hz", t.arrivalRateHz);
                w.field("sla_latency_ms", t.slaLatencyMs);
                w.field("latency_ms", t.latencyMs);
                w.field("energy_pj", t.energyPj);
                w.field("sla_violation", t.slaViolation);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        if (r.hasPortfolio) {
            w.key("portfolio").beginObject();
            w.field("winner", r.portfolioWinner);
            w.key("racers").beginArray();
            for (const RunMetrics::RacerMetrics &rc : r.racers) {
                w.beginObject();
                w.field("algo", rc.algo);
                w.field("samples", rc.samples);
                w.field("best_cost", rc.bestCost);
                w.field("improvements", rc.improvements);
                w.field("wall_seconds", rc.wallSeconds);
                w.field("threads", rc.threads);
                w.field("regrants", rc.regrants);
                w.field("culled", rc.culled);
                w.field("winner", rc.winner);
                w.field("stop", rc.stop);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        if (r.hasPareto) {
            w.key("pareto").beginObject();
            w.field("frontier_size",
                    static_cast<int64_t>(r.frontier.size()));
            w.field("hypervolume", r.hypervolume);
            w.key("frontier").beginArray();
            for (const RunMetrics::FrontierPoint &p : r.frontier) {
                w.beginObject();
                w.field("buffer_bytes", p.bufferBytes);
                w.field("energy_pj", p.energyPj);
                w.field("latency_cycles", p.latencyCycles);
                w.field("metric", p.metric);
                w.field("sample", p.sample);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.key("extra").beginObject();
        for (const auto &[key, value] : r.extra)
            w.field(key, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeMetricsFile(const std::string &path, const std::string &generator,
                 const std::vector<RunMetrics> &runs)
{
    std::string doc = metricsToJson(generator, runs);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

} // namespace cocco
