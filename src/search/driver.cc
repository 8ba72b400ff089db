#include "search/driver.h"

#include <cmath>
#include <limits>
#include <utility>

#include "schedule/greedy_place.h"
#include "util/json.h"
#include "util/logging.h"

namespace cocco {

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::BudgetExhausted:
        return "budget";
      case StopReason::Cancelled:
        return "cancelled";
      case StopReason::TimeLimit:
        return "time-limit";
      case StopReason::Stalled:
        return "stalled";
    }
    return "?";
}

GaOptions
gaOptions(const SearchSpec &spec)
{
    GaOptions o;
    static_cast<EvalOptions &>(o) = spec.eval;
    static_cast<GaParams &>(o) = spec.ga;
    return o;
}

SaOptions
saOptions(const SearchSpec &spec)
{
    SaOptions o;
    static_cast<EvalOptions &>(o) = spec.eval;
    static_cast<SaParams &>(o) = spec.sa;
    return o;
}

TwoStepOptions
twoStepOptions(const SearchSpec &spec)
{
    TwoStepOptions o;
    static_cast<EvalOptions &>(o) = spec.eval;
    static_cast<TwoStepParams &>(o) = spec.twoStep;
    return o;
}

namespace {

/** The genetic co-exploration (paper Section 4.4). */
class GaSearcher : public Searcher
{
  public:
    GaSearcher(CostModel &model, const DseSpace &space,
               const SearchSpec &spec)
        : search_(model, space, gaOptions(spec))
    {
    }

    std::string name() const override { return "ga"; }

    std::string
    describe() const override
    {
        return "genetic co-exploration with customized operators and "
               "in-situ capacity tuning (Cocco, paper Section 4.4)";
    }

    SearchResult
    run(const std::vector<Genome> &seeds) override
    {
        return search_.run(seeds);
    }

  private:
    GeneticSearch search_;
};

/** The simulated-annealing baseline (paper Section 4.2.4). */
class SaSearcher : public Searcher
{
  public:
    SaSearcher(CostModel &model, const DseSpace &space,
               const SearchSpec &spec)
        : model_(model), space_(space), opts_(saOptions(spec))
    {
    }

    std::string name() const override { return "sa"; }

    std::string
    describe() const override
    {
        return "simulated annealing over the same genome space "
               "(geometric cooling, Metropolis acceptance)";
    }

    SearchResult
    run(const std::vector<Genome> &seeds) override
    {
        if (!seeds.empty())
            warn("sa: seed genomes are ignored (single-state chain)");
        return simulatedAnnealing(model_, space_, opts_);
    }

  private:
    CostModel &model_;
    DseSpace space_;
    SaOptions opts_;
};

/** The two-step baselines (paper Section 5.1.3). */
class TwoStepSearcher : public Searcher
{
  public:
    TwoStepSearcher(CostModel &model, const DseSpace &space,
                    const SearchSpec &spec, bool grid)
        : model_(model), space_(space), opts_(twoStepOptions(spec)),
          grid_(grid)
    {
    }

    std::string name() const override { return grid_ ? "ts-grid" : "ts-random"; }

    std::string
    describe() const override
    {
        return grid_ ? "two-step baseline: grid-search capacity sweep "
                       "(large to small) + per-candidate partition GA"
                     : "two-step baseline: random capacity sampling + "
                       "per-candidate partition GA";
    }

    SearchResult
    run(const std::vector<Genome> &seeds) override
    {
        if (!seeds.empty())
            warn("%s: seed genomes are ignored (inner GAs self-seed)",
                 name().c_str());
        return grid_ ? twoStepGrid(model_, space_, opts_)
                     : twoStepRandom(model_, space_, opts_);
    }

  private:
    CostModel &model_;
    DseSpace space_;
    TwoStepOptions opts_;
    bool grid_;
};

std::unique_ptr<Searcher>
makeGa(CostModel &m, const DseSpace &s, const SearchSpec &spec)
{
    return std::make_unique<GaSearcher>(m, s, spec);
}

std::unique_ptr<Searcher>
makeSa(CostModel &m, const DseSpace &s, const SearchSpec &spec)
{
    return std::make_unique<SaSearcher>(m, s, spec);
}

std::unique_ptr<Searcher>
makeTsRandom(CostModel &m, const DseSpace &s, const SearchSpec &spec)
{
    return std::make_unique<TwoStepSearcher>(m, s, spec, false);
}

std::unique_ptr<Searcher>
makeTsGrid(CostModel &m, const DseSpace &s, const SearchSpec &spec)
{
    return std::make_unique<TwoStepSearcher>(m, s, spec, true);
}

} // namespace

SearcherRegistry::SearcherRegistry()
{
    SearcherRule twoStepRule = [](const SearchSpec &s) {
        return twoStepParamsError(s.twoStep);
    };
    add("ga", "genetic co-exploration (Cocco)", makeGa,
        [](const SearchSpec &s) { return gaParamsError(s.ga); });
    add("sa", "simulated annealing", makeSa,
        [](const SearchSpec &s) { return saParamsError(s.sa); });
    add("ts-random", "two-step: random capacity sampling + GA",
        makeTsRandom, twoStepRule);
    add("ts-grid", "two-step: grid capacity sweep + GA", makeTsGrid,
        twoStepRule);
    // Plain function call, like the model registry's hooks: no
    // static-initialization-order hazards.
    registerGreedyPlaceSearcher(*this);
    registerPortfolioSearcher(*this);
}

SearcherRegistry &
SearcherRegistry::instance()
{
    static SearcherRegistry registry;
    return registry;
}

void
SearcherRegistry::add(const std::string &key, const std::string &summary,
                      SearcherFactory factory, SearcherRule rule)
{
    if (find(key))
        fatal("searcher '%s' is already registered", key.c_str());
    entries_.push_back({key, summary, factory, rule});
}

const SearcherRegistry::Entry *
SearcherRegistry::find(const std::string &key) const
{
    for (const Entry &e : entries_)
        if (e.key == key)
            return &e;
    return nullptr;
}

bool
SearcherRegistry::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
SearcherRegistry::ruleError(const std::string &key,
                            const SearchSpec &spec) const
{
    const Entry *e = find(key);
    return e && e->rule ? e->rule(spec) : "";
}

std::unique_ptr<Searcher>
SearcherRegistry::make(const std::string &key, CostModel &model,
                       const DseSpace &space, const SearchSpec &spec) const
{
    const Entry *e = find(key);
    if (!e)
        fatal("unknown search algorithm '%s' (registered: %s)",
              key.c_str(), joinComma(keys()).c_str());
    return e->factory(model, space, spec);
}

std::vector<std::string>
SearcherRegistry::keys() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        out.push_back(e.key);
    return out;
}

const std::string &
SearcherRegistry::summary(const std::string &key) const
{
    const Entry *e = find(key);
    if (!e)
        fatal("unknown search algorithm '%s'", key.c_str());
    return e->summary;
}

// --- searchSpecFromJson ------------------------------------------------------

namespace {

/** Collects type errors while walking the spec document (sticky-err
 *  wrappers over the util/json checked readers). */
struct SpecReader
{
    std::string err;

    bool
    bad(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    bool
    readString(const JsonValue &v, const char *key, std::string *out)
    {
        return jsonReadString(v, key, out, &err);
    }

    bool
    readNumber(const JsonValue &v, const char *key, double *out)
    {
        return jsonReadNumber(v, key, out, &err);
    }

    bool
    readInt(const JsonValue &v, const char *key, int64_t *out)
    {
        return jsonReadInt(v, key, out, &err);
    }

    template <typename T>
    bool
    readIntAs(const JsonValue &v, const char *key, T *out)
    {
        return jsonReadIntAs(v, key, out, &err);
    }

    bool
    readBool(const JsonValue &v, const char *key, bool *out)
    {
        return jsonReadBool(v, key, out, &err);
    }

    bool
    readWorkload(const JsonValue &v, WorkloadSpec *out)
    {
        if (!v.isObject())
            return bad("\"workload\" must be an object");
        for (const auto &[k, val] : v.members()) {
            bool ok;
            if (k == "model")
                ok = readString(val, "workload.model", &out->model);
            else if (k == "file")
                ok = readString(val, "workload.file", &out->file);
            else if (k == "params")
                ok = modelParamsFromJson(val, &out->params, &err);
            else
                ok = bad(strprintf("unknown \"workload\" key \"%s\"",
                                   k.c_str()));
            if (!ok)
                return false;
        }
        if (!out->model.empty() && !out->file.empty())
            return bad("\"workload\" must give \"model\" or \"file\", "
                       "not both");
        return true;
    }

    bool
    readPlatform(const JsonValue &v, PlatformSpec *out)
    {
        return platformSpecFromJson(v, "platform", out, &err);
    }

    bool
    readMetric(const JsonValue &v, Metric *out)
    {
        std::string s;
        if (!readString(v, "metric", &s))
            return false;
        if (s == "energy")
            *out = Metric::Energy;
        else if (s == "ema")
            *out = Metric::EMA;
        else
            return bad("\"metric\" must be \"energy\" or \"ema\"");
        return true;
    }

    bool
    readStyle(const JsonValue &v, const char *key, BufferStyle *out)
    {
        std::string s;
        if (!readString(v, key, &s))
            return false;
        if (s == "shared")
            *out = BufferStyle::Shared;
        else if (s == "separate")
            *out = BufferStyle::Separate;
        else
            return bad(strprintf(
                "\"%s\" must be \"shared\" or \"separate\"", key));
        return true;
    }

    bool
    readBuffer(const JsonValue &v, BufferConfig *out)
    {
        if (!v.isObject())
            return bad("\"buffer\" must be an object");
        for (const auto &[k, val] : v.members()) {
            if (k == "style") {
                if (!readStyle(val, "buffer.style", &out->style))
                    return false;
            } else if (k == "actBytes") {
                if (!readIntAs(val, "buffer.actBytes", &out->actBytes))
                    return false;
            } else if (k == "weightBytes") {
                if (!readIntAs(val, "buffer.weightBytes",
                               &out->weightBytes))
                    return false;
            } else if (k == "sharedBytes") {
                if (!readIntAs(val, "buffer.sharedBytes",
                               &out->sharedBytes))
                    return false;
            } else {
                return bad(strprintf("unknown \"buffer\" key \"%s\"",
                                     k.c_str()));
            }
        }
        return true;
    }

    bool
    readGa(const JsonValue &v, GaParams *out)
    {
        if (!v.isObject())
            return bad("\"ga\" must be an object");
        for (const auto &[k, val] : v.members()) {
            bool ok;
            if (k == "population")
                ok = readIntAs(val, "ga.population", &out->population);
            else if (k == "crossoverRate")
                ok = readNumber(val, "ga.crossoverRate",
                                &out->crossoverRate);
            else if (k == "mutPartitionRate")
                ok = readNumber(val, "ga.mutPartitionRate",
                                &out->mutPartitionRate);
            else if (k == "mutDseRate")
                ok = readNumber(val, "ga.mutDseRate", &out->mutDseRate);
            else if (k == "tournament")
                ok = readIntAs(val, "ga.tournament", &out->tournament);
            else if (k == "elite")
                ok = readIntAs(val, "ga.elite", &out->elite);
            else if (k == "recordPoints")
                ok = readBool(val, "ga.recordPoints", &out->recordPoints);
            else
                return bad(strprintf("unknown \"ga\" key \"%s\"",
                                     k.c_str()));
            if (!ok)
                return false;
        }
        return true;
    }

    bool
    readSa(const JsonValue &v, SaParams *out)
    {
        if (!v.isObject())
            return bad("\"sa\" must be an object");
        for (const auto &[k, val] : v.members()) {
            bool ok;
            if (k == "tempStartFrac")
                ok = readNumber(val, "sa.tempStartFrac",
                                &out->tempStartFrac);
            else if (k == "tempEndFrac")
                ok = readNumber(val, "sa.tempEndFrac", &out->tempEndFrac);
            else if (k == "dseMutationRate")
                ok = readNumber(val, "sa.dseMutationRate",
                                &out->dseMutationRate);
            else if (k == "neighborBatch")
                ok = readIntAs(val, "sa.neighborBatch",
                               &out->neighborBatch);
            else
                return bad(strprintf("unknown \"sa\" key \"%s\"",
                                     k.c_str()));
            if (!ok)
                return false;
        }
        return true;
    }

    bool
    readPortfolio(const JsonValue &v, PortfolioParams *out)
    {
        if (!v.isObject())
            return bad("\"portfolio\" must be an object");
        for (const auto &[k, val] : v.members()) {
            bool ok = true;
            if (k == "racers") {
                if (!val.isArray())
                    return bad("\"portfolio.racers\" must be an array "
                               "of algorithm names");
                out->racers.clear();
                for (const JsonValue &e : val.array()) {
                    std::string racer;
                    if (!readString(e, "portfolio.racers[]", &racer))
                        return false;
                    out->racers.push_back(std::move(racer));
                }
                if (out->racers.empty())
                    return bad("\"portfolio.racers\" must not be empty");
            } else if (k == "deterministicRace") {
                ok = readBool(val, "portfolio.deterministicRace",
                              &out->deterministicRace);
            } else if (k == "checkEvals") {
                ok = readInt(val, "portfolio.checkEvals",
                             &out->checkEvals);
            } else if (k == "warmupEvals") {
                ok = readInt(val, "portfolio.warmupEvals",
                             &out->warmupEvals);
            } else {
                return bad(strprintf("unknown \"portfolio\" key \"%s\"",
                                     k.c_str()));
            }
            if (!ok)
                return false;
        }
        return true;
    }

    bool
    readTwoStep(const JsonValue &v, TwoStepParams *out)
    {
        if (!v.isObject())
            return bad("\"twoStep\" must be an object");
        for (const auto &[k, val] : v.members()) {
            bool ok;
            if (k == "samplesPerCandidate")
                ok = readInt(val, "twoStep.samplesPerCandidate",
                             &out->samplesPerCandidate);
            else if (k == "population")
                ok = readIntAs(val, "twoStep.population",
                               &out->population);
            else
                return bad(strprintf("unknown \"twoStep\" key \"%s\"",
                                     k.c_str()));
            if (!ok)
                return false;
        }
        return true;
    }
};

} // namespace

bool
searchSpecFromJson(const JsonValue &doc, SearchSpec *spec, std::string *err)
{
    SpecReader r;
    if (!doc.isObject()) {
        if (err)
            *err = "run spec must be a JSON object";
        return false;
    }
    bool model_key = false, workload_key = false, set_key = false;
    for (const auto &[k, v] : doc.members()) {
        bool ok = true;
        if (k == "model") {
            // Shorthand for workload.model.
            ok = r.readString(v, "model", &spec->workload.model);
            model_key = true;
        } else if (k == "workload") {
            ok = r.readWorkload(v, &spec->workload);
            workload_key = true;
        } else if (k == "workload_set") {
            ok = workloadSetFromJson(v, &spec->workloadSet, &r.err);
            set_key = true;
        } else if (k == "platform") {
            ok = r.readPlatform(v, &spec->platform);
        } else if (k == "deployment") {
            ok = deploymentSpecFromJson(v, &spec->deployment, &r.err);
        } else if (k == "algo") {
            ok = r.readString(v, "algo", &spec->algo);
        } else if (k == "mode") {
            std::string mode;
            ok = r.readString(v, "mode", &mode);
            if (ok) {
                if (mode == "coexplore" || mode == "co-explore") {
                    spec->eval.coExplore = true;
                } else if (mode == "partition" ||
                           mode == "partition-only") {
                    spec->eval.coExplore = false;
                } else if (mode == "pareto") {
                    // Frontier mode is co-exploration by definition:
                    // the archive spans the capacity grid.
                    spec->eval.coExplore = true;
                    spec->paretoMode = true;
                } else {
                    ok = r.bad("\"mode\" must be \"coexplore\", "
                               "\"partition\", or \"pareto\"");
                }
            }
        } else if (k == "style") {
            ok = r.readStyle(v, "style", &spec->style);
        } else if (k == "buffer") {
            ok = r.readBuffer(v, &spec->fixedBuffer);
        } else if (k == "samples") {
            ok = r.readInt(v, "samples", &spec->eval.sampleBudget);
        } else if (k == "seed") {
            ok = r.readIntAs(v, "seed", &spec->eval.seed);
        } else if (k == "alpha") {
            ok = r.readNumber(v, "alpha", &spec->eval.alpha);
        } else if (k == "metric") {
            ok = r.readMetric(v, &spec->eval.metric);
        } else if (k == "threads") {
            ok = r.readIntAs(v, "threads", &spec->eval.threads);
        } else if (k == "inSituSplit") {
            ok = r.readBool(v, "inSituSplit", &spec->eval.inSituSplit);
        } else if (k == "pruning") {
            ok = r.readBool(v, "pruning", &spec->eval.pruning);
        } else if (k == "cacheEnabled") {
            ok = r.readBool(v, "cacheEnabled", &spec->eval.cacheEnabled);
        } else if (k == "cacheCapacity") {
            ok = r.readIntAs(v, "cacheCapacity",
                             &spec->eval.cacheCapacity);
        } else if (k == "timeLimitSec") {
            ok = r.readNumber(v, "timeLimitSec", &spec->eval.timeLimitSec);
        } else if (k == "stallLimit") {
            ok = r.readInt(v, "stallLimit", &spec->eval.stallLimit);
        } else if (k == "ga") {
            ok = r.readGa(v, &spec->ga);
        } else if (k == "sa") {
            ok = r.readSa(v, &spec->sa);
        } else if (k == "twoStep") {
            ok = r.readTwoStep(v, &spec->twoStep);
        } else if (k == "portfolio") {
            ok = r.readPortfolio(v, &spec->portfolio);
        } else {
            ok = r.bad(strprintf("unknown run-spec key \"%s\"", k.c_str()));
        }
        if (!ok) {
            if (err)
                *err = r.err;
            return false;
        }
    }
    if (model_key && workload_key) {
        if (err)
            *err = "give \"model\" (shorthand) or a \"workload\" "
                   "section, not both";
        return false;
    }
    if (set_key && (model_key || workload_key)) {
        if (err)
            *err = "\"workload_set\" replaces \"model\"/\"workload\"; "
                   "give one or the other, not both";
        return false;
    }
    // A one-tenant set degenerates to the plain workload spelling, so
    // every frontend treats the two identically (bit-for-bit).
    if (spec->workloadSet.size() == 1) {
        spec->workload = spec->workloadSet.tenants[0].workload;
        spec->workloadSet.tenants.clear();
    }
    return true;
}

std::string
runSpecError(const SearchSpec &spec)
{
    const SearcherRegistry &reg = SearcherRegistry::instance();
    if (!reg.contains(spec.algo))
        return strprintf("unknown search algorithm \"%s\" (registered: %s)",
                         spec.algo.c_str(), joinComma(reg.keys()).c_str());
    if (spec.eval.sampleBudget < 1)
        return "samples must be >= 1";
    if (spec.workloadSet.enabled()) {
        std::string why;
        if (!validateWorkloadSet(spec.workloadSet, &why))
            return why;
    } else if (spec.workload.model.empty() && spec.workload.file.empty()) {
        return "spec addresses no workload (model or file)";
    }
    return reg.ruleError(spec.algo, spec);
}

} // namespace cocco
