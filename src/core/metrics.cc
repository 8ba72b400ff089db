#include "core/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/json.h"
#include "util/logging.h"

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
 * its keys in document order through a MetricsWalk, which writes them
 * or reads them back. A field the record computes (an rvalue) is read
 * for its type only; metricsFromJson's round trip checks its value. A
 * rule is a check that no round trip can see.
 */
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
    v.rule(d.coreUtilization.size() == static_cast<size_t>(d.cores),
           "needs one utilization entry per core");
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
        v.field("block_entries", r.cache.blockEntries);
        v.field("bound_rejections", r.cache.boundRejections);
        v.field("bound_skipped_samples", r.cache.boundSkippedSamples);
    });
    v.optional("deployment", r.hasDeployment,
               [&] { deploymentFields(v, r.deployment); });
    v.optional("job", r.hasJob, [&] {
        v.field("id", r.jobId);
        v.field("tenant", r.tenant);
        v.field("state", r.jobState);
        v.field("queued_seconds", r.queuedSeconds);
    });
    v.optional("tenants", r.hasTenants, [&] {
        v.field("count", static_cast<int64_t>(r.tenants.size()));
        v.field("sla_violations", r.slaViolations);
        v.field("mean_latency_ms", r.meanLatencyMs);
        v.list("list", r.tenants, [&](auto &t) {
            v.field("name", t.name);
            v.field("core", t.core);
            v.field("arrival_rate_hz", t.arrivalRateHz);
            v.field("sla_latency_ms", t.slaLatencyMs);
            v.field("latency_ms", t.latencyMs);
            v.field("energy_pj", t.energyPj);
            v.field("sla_violation", t.slaViolation);
        });
    });
    v.optional("portfolio", r.hasPortfolio, [&] {
        v.field("winner", r.portfolioWinner);
        v.list("racers", r.racers, [&](auto &rc) {
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
        v.rule(std::any_of(r.racers.begin(), r.racers.end(),
                           [&](const RunMetrics::RacerMetrics &rc) {
                               return rc.winner &&
                                      rc.algo == r.portfolioWinner;
                           }),
               "names a winner that no racer is flagged as");
    });
    v.optional("pareto", r.hasPareto, [&] {
        v.field("frontier_size", static_cast<int64_t>(r.frontier.size()));
        v.field("hypervolume", r.hypervolume);
        v.list("frontier", r.frontier, [&](auto &p) {
            v.field("buffer_bytes", p.bufferBytes);
            v.field("energy_pj", p.energyPj);
            v.field("latency_cycles", p.latencyCycles);
            v.field("metric", p.metric);
            v.field("sample", p.sample);
        });
    });
    v.entries("extra", r.extra);
}

template <typename V, typename G, typename Runs>
void
documentFields(V &v, G &generator, Runs &runs)
{
    v.field("schema_version", 1);
    v.field("generator", generator);
    v.list("runs", runs, [&](auto &r) { runFields(v, r); });
}

/** The field list's walker: it writes each key to a JsonWriter, or
 *  (Reading) reads each key, but an absent optional object's, checking
 *  its type, integer range and the rules. The first failure wins and
 *  names the key's path ("runs[0].cache.hits"). */
template <bool Reading>
class MetricsWalk
{
  public:
    MetricsWalk(JsonWriter *w, std::string *err) : w_(w), err_(err) {}

    template <typename T>
    void
    field(const char *key, T &&x)
    {
        if constexpr (!Reading)
            w_->field(key, x);
        else if (const JsonValue *m = member(key))
            read(*m, pathOf(key), x);
    }

    template <typename Fn>
    void
    object(const char *key, Fn fn)
    {
        if constexpr (!Reading) {
            w_->key(key).beginObject();
            fn();
            w_->endObject();
        } else if (const JsonValue *m = member(key)) {
            enter(*m, pathOf(key), fn);
        }
    }

    /** An object present exactly when @p has. */
    template <typename B, typename Fn>
    void
    optional(const char *key, B &has, Fn fn)
    {
        if constexpr (Reading)
            has = ok() && obj_->find(key);
        if (has)
            object(key, fn);
    }

    /** An array of numbers, or of objects whose keys @p fn walks. */
    template <typename Vec, typename Fn = int>
    void
    list(const char *key, Vec &vec, Fn fn = {})
    {
        using T = typename std::remove_const_t<Vec>::value_type;
        if constexpr (!Reading) {
            w_->key(key).beginArray();
            for (const T &e : vec) {
                if constexpr (std::is_same_v<T, double>) {
                    w_->value(e);
                } else {
                    w_->beginObject();
                    fn(e);
                    w_->endObject();
                }
            }
            w_->endArray();
        } else if (const JsonValue *m = member(key)) {
            if (!m->isArray())
                return fail(strprintf("\"%s\" must be an array (got %s)",
                                      pathOf(key).c_str(), m->typeName()));
            vec.assign(m->array().size(), T());
            for (size_t i = 0; i < vec.size(); ++i) {
                std::string at = strprintf("%s[%zu]", pathOf(key).c_str(), i);
                if constexpr (std::is_same_v<T, double>)
                    read(m->array()[i], at, vec[i]);
                else
                    enter(m->array()[i], at, [&] { fn(vec[i]); });
            }
        }
    }

    /** An object of free-form numeric members. */
    template <typename Pairs>
    void
    entries(const char *key, Pairs &pairs)
    {
        object(key, [&] {
            if constexpr (!Reading) {
                for (const auto &[k, x] : pairs)
                    w_->field(k, x);
            } else {
                for (const auto &[k, x] : obj_->members()) {
                    pairs.emplace_back(k, 0.0);
                    field(k.c_str(), pairs.back().second);
                }
            }
        });
    }

    void
    rule(bool holds, const char *why)
    {
        if (Reading && ok() && !holds)
            fail(strprintf("\"%s\" %s", path_.c_str(), why));
    }

    /** Read the object @p v, at @p path, with @p fn. */
    template <typename Fn>
    void
    enter(const JsonValue &v, std::string path, Fn fn)
    {
        if (!ok())
            return;
        if (!v.isObject())
            return fail(strprintf("\"%s\" must be an object (got %s)",
                                  path.c_str(), v.typeName()));
        const JsonValue *outer = std::exchange(obj_, &v);
        std::string outer_path = std::exchange(path_, std::move(path));
        fn();
        obj_ = outer;
        path_ = std::move(outer_path);
    }

  private:
    bool ok() const { return err_->empty(); }
    void fail(const std::string &why) { jsonFail(err_, why); }

    std::string
    pathOf(const std::string &key) const
    {
        return path_.empty() ? key : path_ + "." + key;
    }

    /** The current object's member @p key; null (and failed) when it
     *  is missing. */
    const JsonValue *
    member(const char *key)
    {
        const JsonValue *m = ok() ? obj_->find(key) : nullptr;
        if (!m && ok())
            fail(strprintf("missing key \"%s\"", pathOf(key).c_str()));
        return m;
    }

    template <typename T>
    void
    read(const JsonValue &m, const std::string &path, T &x)
    {
        if constexpr (std::is_same_v<T, std::string>)
            jsonReadString(m, path.c_str(), &x, err_);
        else if constexpr (std::is_same_v<T, bool>)
            jsonReadBool(m, path.c_str(), &x, err_);
        else if constexpr (std::is_integral_v<T>)
            jsonReadIntAs(m, path.c_str(), &x, err_);
        else if (m.isNull()) // the writer's non-finite number
            x = std::numeric_limits<double>::quiet_NaN();
        else
            jsonReadNumber(m, path.c_str(), &x, err_);
    }

    JsonWriter *w_;
    std::string *err_;
    const JsonValue *obj_ = nullptr;
    std::string path_;
};

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

/** Whether the document @p doc, in which the reader found every key
 *  it walks, and its rewrite @p back are the same JSON value (objects
 *  compare by key); else *err names the first path where they part. */
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
        if (!w || doc.find(k) != &v)
            return jsonFail(err, strprintf("%s key \"%s\"",
                                           w ? "duplicate" : "unknown",
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
    MetricsWalk<false> walk(&w, nullptr);
    w.beginObject();
    documentFields(walk, generator, runs);
    w.endObject();
    return w.str();
}

void
writeDeploymentJson(JsonWriter &w, const DeploymentBreakdown &d)
{
    MetricsWalk<false> walk(&w, nullptr);
    w.beginObject();
    deploymentFields(walk, d);
    w.endObject();
}

bool
metricsFromJson(const JsonValue &doc, std::string *generator,
                std::vector<RunMetrics> *runs, std::string *err)
{
    std::string why, gen;
    std::vector<RunMetrics> read;
    MetricsWalk<true> walk(nullptr, &why);
    if (!doc.isObject())
        why = strprintf("a metrics document must be a JSON object (got %s)",
                        doc.typeName());
    walk.enter(doc, "", [&] { documentFields(walk, gen, read); });
    // The round trip: an unknown or duplicate key, or a derived field
    // that disagrees with its sources, writes back differently.
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
