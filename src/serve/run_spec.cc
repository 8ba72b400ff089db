#include "serve/run_spec.h"

#include "core/serialize.h"
#include "util/json.h"

namespace cocco {

bool
parseRunSpec(const JsonValue &doc, SearchSpec *spec, std::string *err)
{
    // 1MB GLB + 1.125MB WBUF, unless the document gives "buffer".
    spec->fixedBuffer.style = BufferStyle::Separate;
    spec->fixedBuffer.actBytes = 1024 * 1024;
    spec->fixedBuffer.weightBytes = 1152 * 1024;
    return searchSpecFromJson(doc, spec, err);
}

bool
parseRunSpecText(const std::string &text, SearchSpec *spec,
                 std::string *err)
{
    JsonValue doc;
    if (!parseJson(text, &doc, err))
        return false;
    return parseRunSpec(doc, spec, err);
}

std::string
SpecRun::prepare(const SearchSpec &spec)
{
    std::string err = runSpecError(spec);
    if (!err.empty())
        return err;
    spec_ = spec;

    const WorkloadSet &set = spec_.workloadSet;
    graphs_.resize(set.enabled() ? set.tenants.size() : 1);
    for (size_t t = 0; t < graphs_.size(); ++t) {
        const WorkloadSpec &w =
            set.enabled() ? set.tenants[t].workload : spec_.workload;
        if (!resolveWorkload(w, &graphs_[t], &err))
            return err;
        modelName_ += (t ? "+" : "") + graphs_[t].name();
    }

    AcceleratorConfig accel;
    if (!resolvePlatform(spec_.platform, &accel, &err))
        return err;
    // An explicit workload batch (including 1) overrides the
    // platform's: batching is a property of the run, accounted on the
    // platform side. 0 (the default) inherits the platform's.
    const int batch = spec_.workload.params.batch;
    if (batch > 0)
        accel.batch = batch;
    DeploymentConfig dep;
    if (!resolveDeployment(spec_.deployment, accel, &dep, &err))
        return err;
    if (batch > 0)
        for (AcceleratorConfig &core : dep.coreConfigs)
            core.batch = batch;

    if (set.enabled())
        sched_ = std::make_unique<CoScheduler>(graphs_, set, dep);
    else if (spec_.deployment.enabled)
        cocco_ = std::make_unique<CoccoFramework>(graphs_[0], dep);
    else
        cocco_ = std::make_unique<CoccoFramework>(graphs_[0], accel);
    return "";
}

void
SpecRun::run()
{
    if (sched_)
        schedule_ = sched_->explore(spec_);
    else
        result_ = cocco_->explore(spec_);
}

std::string
SpecRun::resultJson()
{
    return sched_ ? scheduleResultToJson(sched_->model(), schedule_)
                  : resultToJson(graphs_[0], result_);
}

RunMetrics
SpecRun::metrics() const
{
    RunMetrics m;
    m.name = "spec-" + spec_.algo;
    m.model = modelName_;
    m.seed = spec_.eval.seed;
    if (sched_) {
        m.samples = schedule_.samples;
        m.bestCost = schedule_.objective;
        m.cache = schedule_.cacheStats;
        fillTenantMetrics(sched_->model(), schedule_, &m);
    } else {
        m.samples = result_.samples;
        m.bestCost = result_.objective;
        m.cache = result_.cacheStats;
        m.hasDeployment = true;
        m.deployment = result_.deployment;
        fillResultMetrics(result_, spec_.paretoMode, &m);
    }
    return m;
}

} // namespace cocco
