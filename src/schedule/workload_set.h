/**
 * @file
 * Multi-tenant workload declarations (run-spec `workload_set`).
 *
 * A WorkloadSet names N tenants sharing one deployment: each tenant
 * is a workload (model + params, same addressing as the plain
 * `workload` section) plus the two serving-side numbers the
 * co-scheduler needs — a Poisson-less steady arrival rate and a
 * latency SLA. Parsing is strict (unknown keys, duplicate names,
 * non-positive rates/SLAs and unknown models are all rejected with a
 * reason), and a one-tenant set is *normalized away* by the run-spec
 * reader: it degenerates to the plain `workload` section so every
 * frontend (run/serve/batch) produces bit-identical output for the
 * two spellings.
 */

#ifndef COCCO_SCHEDULE_WORKLOAD_SET_H
#define COCCO_SCHEDULE_WORKLOAD_SET_H

#include <string>
#include <vector>

#include "models/models.h"

namespace cocco {

/** One tenant: a named workload with serving requirements. */
struct TenantSpec
{
    std::string name;      ///< unique within the set
    WorkloadSpec workload; ///< model/file + params (as `workload`)
    double arrivalRateHz = 0.0; ///< steady request rate (> 0)
    double slaLatencyMs = 0.0;  ///< per-request latency target (> 0)
};

/** The `workload_set` run-spec section: N tenants on one deployment. */
struct WorkloadSet
{
    std::vector<TenantSpec> tenants;

    bool enabled() const { return !tenants.empty(); }
    int size() const { return static_cast<int>(tenants.size()); }
};

/**
 * Semantic validation shared by the JSON parser and programmatic
 * callers (JobManager admission): names unique and non-empty, exactly
 * one of model/file per tenant, model names known to the registry,
 * rates and SLAs strictly positive and finite.
 * @return false with *err set to the first violation.
 */
bool validateWorkloadSet(const WorkloadSet &set, std::string *err);

template <bool Reading>
class FieldWalk;

/** The section read as a run spec's "workload_set" field
 *  (util/field_walk.h); validateWorkloadSet runs after the walk. */
void workloadSetFields(FieldWalk<true> &v, WorkloadSet &set);

} // namespace cocco

#endif // COCCO_SCHEDULE_WORKLOAD_SET_H
