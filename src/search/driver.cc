#include "search/driver.h"

#include <cmath>
#include <limits>
#include <utility>

#include "schedule/greedy_place.h"
#include "util/field_walk.h"

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

DseSpace
searchSpace(const SearchSpec &spec)
{
    return spec.eval.coExplore ? DseSpace::paperSpace(spec.style)
                               : DseSpace::fixedSpace(spec.fixedBuffer);
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

/** "mode": Unset keeps the spec's own. */
enum class Mode { Unset, CoExplore, Partition, Pareto };

const Name<Mode> kModes[] = {
    {"coexplore", Mode::CoExplore}, {"co-explore", Mode::CoExplore},
    {"partition", Mode::Partition}, {"partition-only", Mode::Partition},
    {"pareto", Mode::Pareto},
};

const Name<Metric> kMetrics[] = {
    {"energy", Metric::Energy},
    {"ema", Metric::EMA},
};

const Name<BufferStyle> kStyles[] = {
    {"shared", BufferStyle::Shared},
    {"separate", BufferStyle::Separate},
};

/** What the rules after the walk need to know of the document. */
struct SpecKeys
{
    bool model = false, workload = false, workloadSet = false;
    Mode mode = Mode::Unset;
};

/** The run-spec document, written down once (it is only read). */
void
specFields(FieldWalk<true> &v, SearchSpec &s, SpecKeys &k)
{
    // "model" is shorthand for workload.model.
    k.model = v.field(opt("model"), s.workload.model);
    k.workload = v.object(opt("workload"), [&] {
        v.field(opt("model"), s.workload.model);
        v.field(opt("file"), s.workload.file);
        v.object(opt("params"),
                 [&] { modelParamsFields(v, s.workload.params); });
    });
    k.workloadSet = v.at(opt("workload_set"),
                         [&] { workloadSetFields(v, s.workloadSet); });
    v.at(opt("platform"), [&] { platformAddress(v, s.platform); });
    v.at(opt("deployment"), [&] { deploymentAddress(v, s.deployment); });
    v.field(opt("algo"), s.algo);
    v.choice(opt("mode"), k.mode, kModes);
    v.choice(opt("style"), s.style, kStyles);
    v.object(opt("buffer"), [&] {
        v.choice(opt("style"), s.fixedBuffer.style, kStyles);
        v.field(opt("actBytes"), s.fixedBuffer.actBytes);
        v.field(opt("weightBytes"), s.fixedBuffer.weightBytes);
        v.field(opt("sharedBytes"), s.fixedBuffer.sharedBytes);
    });
    EvalOptions &e = s.eval;
    v.field(opt("samples"), e.sampleBudget);
    v.field(opt("seed"), e.seed);
    v.field(opt("alpha"), e.alpha);
    v.choice(opt("metric"), e.metric, kMetrics);
    v.field(opt("threads"), e.threads);
    v.field(opt("inSituSplit"), e.inSituSplit);
    v.field(opt("pruning"), e.pruning);
    v.field(opt("cacheEnabled"), e.cacheEnabled);
    v.field(opt("cacheCapacity"), e.cacheCapacity);
    v.field(opt("timeLimitSec"), e.timeLimitSec);
    v.field(opt("stallLimit"), e.stallLimit);
    v.object(opt("ga"), [&] {
        v.field(opt("population"), s.ga.population);
        v.field(opt("crossoverRate"), s.ga.crossoverRate);
        v.field(opt("mutPartitionRate"), s.ga.mutPartitionRate);
        v.field(opt("mutDseRate"), s.ga.mutDseRate);
        v.field(opt("tournament"), s.ga.tournament);
        v.field(opt("elite"), s.ga.elite);
        v.field(opt("recordPoints"), s.ga.recordPoints);
    });
    v.object(opt("sa"), [&] {
        v.field(opt("tempStartFrac"), s.sa.tempStartFrac);
        v.field(opt("tempEndFrac"), s.sa.tempEndFrac);
        v.field(opt("dseMutationRate"), s.sa.dseMutationRate);
        v.field(opt("neighborBatch"), s.sa.neighborBatch);
    });
    v.object(opt("twoStep"), [&] {
        v.field(opt("samplesPerCandidate"), s.twoStep.samplesPerCandidate);
        v.field(opt("population"), s.twoStep.population);
    });
    v.object(opt("portfolio"), [&] {
        if (v.list(opt("racers"), s.portfolio.racers))
            v.rule(s.portfolio.racers.empty()
                       ? "\"portfolio.racers\" must not be empty"
                       : "");
        v.field(opt("deterministicRace"), s.portfolio.deterministicRace);
        v.field(opt("checkEvals"), s.portfolio.checkEvals);
        v.field(opt("warmupEvals"), s.portfolio.warmupEvals);
    });
}

/** The rules that span the document's keys, run after the walk; they
 *  then settle "mode" and a one-tenant set. "" or the reason. */
std::string
specRuleError(SearchSpec &s, const SpecKeys &k)
{
    std::string why;
    if (k.workloadSet && !validateWorkloadSet(s.workloadSet, &why))
        return why;
    if (k.model && k.workload)
        return "give \"model\" (shorthand) or a \"workload\" section, not "
               "both";
    if (k.workload && !s.workload.model.empty() && !s.workload.file.empty())
        return "\"workload\" must give \"model\" or \"file\", not both";
    if (k.workloadSet && (k.model || k.workload))
        return "\"workload_set\" replaces \"model\"/\"workload\"; give one "
               "or the other, not both";
    // Frontier mode is co-exploration by definition: the archive spans
    // the capacity grid.
    if (k.mode != Mode::Unset)
        s.eval.coExplore = k.mode != Mode::Partition;
    if (k.mode == Mode::Pareto)
        s.paretoMode = true;
    // A one-tenant set degenerates to the plain workload spelling, so
    // every frontend treats the two identically (bit-for-bit).
    if (s.workloadSet.size() == 1) {
        s.workload = s.workloadSet.tenants[0].workload;
        s.workloadSet.tenants.clear();
    }
    return "";
}

} // namespace

bool
searchSpecFromJson(const JsonValue &doc, SearchSpec *spec, std::string *err)
{
    SpecKeys k;
    std::string why;
    FieldWalk<true> v("run-spec", &why);
    if (v.read(doc, "", [&] { v.members([&] { specFields(v, *spec, k); }); }))
        why = specRuleError(*spec, k);
    if (!why.empty() && err)
        *err = why;
    return why.empty();
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
