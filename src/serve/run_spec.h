/**
 * @file
 * The one path from a run-spec document to a result, shared by
 * `cocco run` / `coschedule` and the JobManager behind `cocco serve`
 * / `batch`. Frontends add only what they own — run-time hooks and
 * the invocation's metrics fields — so a served job is bit-identical
 * to the solo CLI run, and every frontend rejects the same specs with
 * the same reason.
 */

#ifndef COCCO_SERVE_RUN_SPEC_H
#define COCCO_SERVE_RUN_SPEC_H

#include <memory>
#include <string>
#include <vector>

#include "core/cocco.h"
#include "schedule/co_scheduler.h"

namespace cocco {

class JsonValue;

/** Parse a run-spec document (partition-only specs default to the
 *  partition studies' fixed buffer). @return false with *err set on
 *  any schema problem. */
bool parseRunSpec(const JsonValue &doc, SearchSpec *spec,
                  std::string *err);

/** parseRunSpec over raw text. */
bool parseRunSpecText(const std::string &text, SearchSpec *spec,
                      std::string *err);

/** One run spec, prepared and run. Not copyable: the framework and
 *  the scheduler keep references into it. */
class SpecRun
{
  public:
    SpecRun() = default;
    SpecRun(const SpecRun &) = delete;
    SpecRun &operator=(const SpecRun &) = delete;

    /**
     * runSpecError, then resolve the workload(s) and platform, apply
     * the workload batch override to the platform and every
     * deployment core, resolve the deployment (a co-schedule without
     * one runs on one core) and build the framework or scheduler.
     * @return "" or the reason; never fatal.
     */
    std::string prepare(const SearchSpec &spec);

    /** The prepared spec: attach run-time hooks here before run(). */
    SearchSpec &spec() { return spec_; }

    /** The resolved workload name ("+"-joined for a co-schedule). */
    const std::string &modelName() const { return modelName_; }

    bool coSchedule() const { return sched_ != nullptr; }

    /** Explore (after a successful prepare()). */
    void run();

    /** What prepare() built: exactly one is non-null. */
    CoccoFramework *framework() { return cocco_.get(); }
    CoScheduler *scheduler() { return sched_.get(); }

    /** run()'s outcome, solo or co-scheduled. */
    const CoccoResult &result() const { return result_; }
    const ScheduleResult &schedule() const { return schedule_; }
    StopReason stop() const { return sched_ ? schedule_.stop : result_.stop; }

    /** resultToJson / scheduleResultToJson of the outcome. */
    std::string resultJson();

    /** The "spec-<algo>" record with the deployment (solo) or tenants
     *  (co-schedule) block; threads, wall time and the cache flag are
     *  the caller's. */
    RunMetrics metrics() const;

  private:
    SearchSpec spec_;
    std::vector<Graph> graphs_; ///< the workload, or the tenants'
    std::string modelName_;
    std::unique_ptr<CoccoFramework> cocco_;
    std::unique_ptr<CoScheduler> sched_;
    CoccoResult result_;
    ScheduleResult schedule_;
};

} // namespace cocco

#endif // COCCO_SERVE_RUN_SPEC_H
