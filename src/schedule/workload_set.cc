#include "schedule/workload_set.h"

#include <cmath>

#include "util/field_walk.h"

namespace cocco {

namespace {

/** Set *err (when empty) and return false, parser style. */
bool
bad(std::string *err, const std::string &msg)
{
    if (err && err->empty())
        *err = msg;
    return false;
}

bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

} // namespace

bool
validateWorkloadSet(const WorkloadSet &set, std::string *err)
{
    if (set.tenants.empty())
        return bad(err, "\"workload_set\" must declare at least one tenant");
    for (int i = 0; i < set.size(); ++i) {
        const TenantSpec &t = set.tenants[i];
        std::string who = strprintf("workload_set[%d]", i);
        if (t.name.empty())
            return bad(err, who + ": tenant \"name\" must be non-empty");
        for (int j = 0; j < i; ++j)
            if (set.tenants[j].name == t.name)
                return bad(err, strprintf("duplicate tenant name \"%s\"",
                                          t.name.c_str()));
        who = strprintf("tenant \"%s\"", t.name.c_str());
        bool has_model = !t.workload.model.empty();
        bool has_file = !t.workload.file.empty();
        if (has_model == has_file)
            return bad(err, who + " must address exactly one of "
                            "\"model\" or \"file\"");
        if (has_model && !ModelRegistry::instance().contains(t.workload.model))
            return bad(err, strprintf("%s: unknown model \"%s\"",
                                      who.c_str(),
                                      t.workload.model.c_str()));
        if (!finitePositive(t.arrivalRateHz))
            return bad(err, who + ": \"arrival_rate_hz\" must be > 0");
        if (!finitePositive(t.slaLatencyMs))
            return bad(err, who + ": \"sla_latency_ms\" must be > 0");
    }
    return true;
}

namespace {

/** The section, written down once: an array of tenants. A writer
 *  writes a workload's model or file only when given, and its params
 *  only when they differ from the defaults. */
template <typename V, typename S>
void
setFields(V &v, S &set)
{
    v.items(set.tenants, [&](auto &t) {
        v.members([&] {
            auto &w = t.workload;
            v.field(opt("name"), t.name);
            v.field(opt("model", !w.model.empty()), w.model);
            v.field(opt("file", !w.file.empty()), w.file);
            v.object(opt("params", !(w.params == ModelParams())),
                     [&] { modelParamsFields(v, w.params); });
            v.field("arrival_rate_hz", t.arrivalRateHz);
            v.field("sla_latency_ms", t.slaLatencyMs);
        });
    });
}

} // namespace

void
workloadSetFields(FieldWalk<true> &v, WorkloadSet &set)
{
    setFields(v, set);
}

std::string
workloadSetJson(const WorkloadSet &set)
{
    JsonWriter w;
    FieldWalk<false> walk(&w);
    setFields(walk, set);
    return w.str();
}

} // namespace cocco
