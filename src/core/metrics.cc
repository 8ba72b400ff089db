#include "core/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/field_walk.h"

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

namespace {

/*
 * The metrics schema, written down once: each *Fields template walks
 * its keys in document order through a FieldWalk, which writes them
 * or reads them back. A field the record computes (an rvalue) is read
 * for its type only; metricsFromJson's round trip checks its value. A
 * rule is a check that no round trip can see.
 */

/** @p why, said of the walker's current object, unless @p holds. */
template <typename V>
std::string
unless(const V &v, bool holds, const char *why)
{
    return holds ? std::string() : "\"" + v.path() + "\" " + why;
}

template <typename V, typename D>
void
deploymentFields(V &v, D &d)
{
    v.field("cores", d.cores);
    v.field("crossbar_energy_pj", d.crossbarEnergyPj);
    v.field("crossbar_cycles", d.crossbarCycles);
    v.field("crossbar_energy_share", d.crossbarEnergyShare);
    v.field("crossbar_latency_share", d.crossbarLatencyShare);
    v.list("core_utilization", d.coreUtilization);
    v.rule(unless(v, d.coreUtilization.size() == static_cast<size_t>(d.cores),
                  "needs one utilization entry per core"));
}

template <typename V, typename R>
void
runFields(V &v, R &r)
{
    v.field("name", r.name);
    v.field("model", r.model);
    v.field("threads", r.threads);
    v.field("seed", r.seed);
    v.field("samples", r.samples);
    v.field("best_cost", r.bestCost);
    v.field("wall_seconds", r.wallSeconds);
    v.field("evals_total", r.evalsTotal());
    v.field("evals_computed", r.evalsComputed());
    v.field("evals_cached", r.evalsCached());
    v.object("cache", [&] {
        v.field("enabled", r.cacheEnabled);
        v.field("hits", r.cache.hits);
        v.field("misses", r.cache.misses);
        v.field("insertions", r.cache.insertions);
        v.field("evictions", r.cache.evictions);
        v.field("hit_rate", r.cache.hitRate());
        v.field("block_hits", r.cache.blockHits);
        v.field("block_misses", r.cache.blockMisses);
        v.field("entries", r.cache.entries);
        v.field("bound_rejections", r.cache.boundRejections);
        v.field("bound_skipped_samples", r.cache.boundSkippedSamples);
    });
    v.object(opt("deployment", r.hasDeployment),
             [&] { deploymentFields(v, r.deployment); }, &r.hasDeployment);
    v.object(opt("job", r.hasJob), [&] {
        v.field("id", r.jobId);
        v.field("tenant", r.tenant);
        v.field("state", r.jobState);
        v.field("queued_seconds", r.queuedSeconds);
    }, &r.hasJob);
    v.object(opt("tenants", r.hasTenants), [&] {
        v.field("count", static_cast<int64_t>(r.tenants.size()));
        v.field("sla_violations", r.slaViolations);
        v.field("mean_latency_ms", r.meanLatencyMs);
        v.objects("list", r.tenants, [&](auto &t) {
            v.field("name", t.name);
            v.field("core", t.core);
            v.field("arrival_rate_hz", t.arrivalRateHz);
            v.field("sla_latency_ms", t.slaLatencyMs);
            v.field("latency_ms", t.latencyMs);
            v.field("energy_pj", t.energyPj);
            v.field("sla_violation", t.slaViolation);
        });
    }, &r.hasTenants);
    v.object(opt("portfolio", r.hasPortfolio), [&] {
        v.field("winner", r.portfolioWinner);
        v.objects("racers", r.racers, [&](auto &rc) {
            v.field("algo", rc.algo);
            v.field("samples", rc.samples);
            v.field("best_cost", rc.bestCost);
            v.field("improvements", rc.improvements);
            v.field("wall_seconds", rc.wallSeconds);
            v.field("threads", rc.threads);
            v.field("regrants", rc.regrants);
            v.field("culled", rc.culled);
            v.field("winner", rc.winner);
            v.field("stop", rc.stop);
        });
        v.rule(unless(v,
                      std::any_of(r.racers.begin(), r.racers.end(),
                                  [&](const RunMetrics::RacerMetrics &rc) {
                                      return rc.winner &&
                                             rc.algo == r.portfolioWinner;
                                  }),
                      "names a winner that no racer is flagged as"));
    }, &r.hasPortfolio);
    v.object(opt("pareto", r.hasPareto), [&] {
        v.field("frontier_size", static_cast<int64_t>(r.frontier.size()));
        v.field("hypervolume", r.hypervolume);
        v.objects("frontier", r.frontier, [&](auto &p) {
            v.field("buffer_bytes", p.bufferBytes);
            v.field("energy_pj", p.energyPj);
            v.field("latency_cycles", p.latencyCycles);
            v.field("metric", p.metric);
            v.field("sample", p.sample);
        });
    }, &r.hasPareto);
    v.entries("extra", r.extra);
}

template <typename V, typename G, typename Runs>
void
documentFields(V &v, G &generator, Runs &runs)
{
    v.field("schema_version", 1);
    v.field("generator", generator);
    v.objects("runs", runs, [&](auto &r) { runFields(v, r); });
}

/** @p v as a reason shows it: a scalar's text, or its shape. */
std::string
shown(const JsonValue &v)
{
    if (v.isNumber())
        return v.numberText().empty() ? strprintf("%.17g", v.number())
                                      : v.numberText();
    if (v.isString())
        return "\"" + JsonWriter::escape(v.str()) + "\"";
    if (v.isBool())
        return v.boolean() ? "true" : "false";
    if (v.isArray())
        return strprintf("an array of %zu", v.array().size());
    return v.typeName();
}

/** Whether the document @p doc, every key of which the reader walked,
 *  and its rewrite @p back are the same JSON value (objects compare by
 *  key); else *err names the first path where they part. */
bool
sameJson(const JsonValue &doc, const JsonValue &back,
         const std::string &path, std::string *err)
{
    if (doc.type() != back.type() ||
        (doc.isNumber() ? doc.number() != back.number()
                        : shown(doc) != shown(back)))
        return jsonFail(err, strprintf("\"%s\" is %s, but writes back as %s",
                                       path.c_str(), shown(doc).c_str(),
                                       shown(back).c_str()));
    for (size_t i = 0; doc.isArray() && i < doc.array().size(); ++i)
        if (!sameJson(doc.array()[i], back.array()[i],
                      strprintf("%s[%zu]", path.c_str(), i), err))
            return false;
    for (size_t i = 0; doc.isObject() && i < doc.members().size(); ++i) {
        const auto &[k, v] = doc.members()[i];
        const std::string at = path.empty() ? k : path + "." + k;
        const JsonValue *w = back.find(k);
        if (!w)
            return jsonFail(err, strprintf("\"%s\" does not write back",
                                           at.c_str()));
        if (!sameJson(v, *w, at, err))
            return false;
    }
    return true;
}

} // namespace

std::string
metricsToJson(const std::string &generator,
              const std::vector<RunMetrics> &runs)
{
    JsonWriter w;
    FieldWalk<false> walk(&w);
    walk.members([&] { documentFields(walk, generator, runs); });
    return w.str();
}

void
writeDeploymentJson(JsonWriter &w, const DeploymentBreakdown &d)
{
    FieldWalk<false> walk(&w);
    walk.members([&] { deploymentFields(walk, d); });
}

bool
metricsFromJson(const JsonValue &doc, std::string *generator,
                std::vector<RunMetrics> *runs, std::string *err)
{
    std::string why, gen;
    std::vector<RunMetrics> read;
    // Its unknown keys are plain "unknown key" reasons.
    FieldWalk<true> walk("", &why, true);
    if (!doc.isObject())
        why = strprintf("a metrics document must be a JSON object (got %s)",
                        doc.typeName());
    walk.read(doc, "", [&] {
        walk.members([&] { documentFields(walk, gen, read); });
    });
    // The round trip: a derived field that disagrees with its sources
    // writes back differently.
    JsonValue back;
    if (why.empty() && parseJson(metricsToJson(gen, read), &back, &why))
        sameJson(doc, back, "", &why);
    if (!why.empty()) {
        if (err)
            *err = why;
        return false;
    }
    *generator = std::move(gen);
    *runs = std::move(read);
    return true;
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
