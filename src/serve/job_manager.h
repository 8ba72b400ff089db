/**
 * @file
 * The multi-tenant job runner behind `cocco serve` and `cocco batch`:
 * a bounded queue of run specs drained by a fixed set of worker
 * threads, every job evaluating over ONE process-wide EvalCache so
 * tenants warm each other's searches: many users, one warm process.
 *
 * Admission control: submit() rejects (rather than queues) when
 * runSpecError (search/driver.h) finds the spec unrunnable — the same
 * rule, and the same reason, as `cocco run` — or when the pending
 * queue is at capacity: a long-lived server must shed load at the
 * front door, not die mid-run.
 *
 * Thread budgets: the manager owns a total evaluation-thread budget
 * (defaults to the hardware concurrency). Each job asks for
 * spec.eval.threads and is granted min(request, what's left), never
 * below 1. Engines are NOT handed one literal shared ThreadPool —
 * parallelFor is not reentrant, so two concurrently running jobs must
 * not share one pool — instead the budget ledger caps the total
 * worker threads alive across jobs. Thread count never affects
 * results (the engine's determinism contract), so a job granted fewer
 * threads than requested returns bit-identical output, just slower.
 *
 * Results: every job runs through SpecRun (serve/run_spec.h), the
 * CLI's own spec-to-result path, so resultJson() returns the document
 * `cocco run --json` prints and metricsJson() its metrics record plus
 * the "job" block — the bit-identity contract the serve bench and CI
 * smoke verify.
 */

#ifndef COCCO_SERVE_JOB_MANAGER_H
#define COCCO_SERVE_JOB_MANAGER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "search/driver.h"
#include "search/eval_cache.h"
#include "serve/events.h"

namespace cocco {

/** Lifecycle of one submitted job. */
enum class JobState
{
    Queued,    ///< admitted, waiting for a worker
    Running,   ///< on a worker thread
    Done,      ///< terminal: ran to its natural end
    Cancelled, ///< terminal: cancelled (or manager shut down)
    Failed,    ///< terminal: spec resolution/setup failed
};

/** Stable lowercase label ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** True for Done/Cancelled/Failed. */
bool jobStateTerminal(JobState state);

/** Sizing/queue/cache knobs for a JobManager. */
struct JobManagerOptions
{
    int workers = 2;       ///< concurrently running jobs (>= 1)
    int threadBudget = 0;  ///< total eval threads; <= 0 = all cores
    int queueCapacity = 64; ///< max jobs waiting (admission control)

    bool cacheEnabled = true; ///< the process-wide shared EvalCache
    size_t cacheCapacity = EvalCache::kDefaultCapacity;

    /** Pre-warmed cache to adopt instead of building one (e.g. loaded
     *  from a --cache file); null = own one per the knobs above. */
    std::shared_ptr<EvalCache> cache;
};

/** One job's externally visible state (a point-in-time copy). */
struct JobStatus
{
    int64_t id = 0;
    std::string tenant;
    std::string name;  ///< "<algo>:<workload>" label
    std::string model; ///< resolved graph name ("" until running)
    JobState state = JobState::Queued;
    int threads = 0;           ///< granted budget (0 until running)
    int64_t progressSamples = 0;
    double progressBest = 0.0;
    double queuedSeconds = 0.0;
    double runSeconds = 0.0;
    std::string error; ///< Failed only
};

/** The job runner (see file comment). Thread-safe throughout. */
class JobManager
{
  public:
    explicit JobManager(const JobManagerOptions &opts = {});

    /** Cancels everything still active and joins the workers. */
    ~JobManager();

    /**
     * Admit a run spec. @p tenant is a free-form label carried into
     * status and metrics. @return the job id (>= 1), or -1 with *err
     * set when admission fails (runSpecError's reason, full queue,
     * shutdown in progress).
     */
    int64_t submit(const SearchSpec &spec, const std::string &tenant,
                   std::string *err);

    /** Request cooperative cancellation. @return false for unknown
     *  ids or jobs already terminal. */
    bool cancel(int64_t id);

    /** Cancel every queued and running job. */
    void cancelAll();

    /** Point-in-time status copy; id 0 / empty name for unknown ids. */
    JobStatus status(int64_t id) const;

    /** Status of every job ever submitted, in submission order. */
    std::vector<JobStatus> jobs() const;

    /**
     * Block until the job is terminal. @p timeoutSec <= 0 waits
     * forever. @return true when the job is terminal on return.
     */
    bool wait(int64_t id, double timeoutSec = 0.0);

    /** Block until every submitted job is terminal. */
    void drain();

    /** The solution document (SpecRun::resultJson) for a terminal job
     *  with a result (Done, or Cancelled mid-run with a partial
     *  incumbent); "" otherwise. Byte-identical to `cocco run --json`
     *  on the same spec when the job ran to its natural end. */
    std::string resultJson(int64_t id) const;

    /** The schema-v1 metrics document (metricsToJson) for a terminal
     *  job with a result, including the "job" block; "" otherwise. */
    std::string metricsJson(int64_t id) const;

    /**
     * Events recorded for a job after cursor position @p *cursor;
     * advances the cursor past what was returned. With @p timeoutSec
     * > 0, blocks up to that long for new events while the job is
     * non-terminal. Empty for unknown ids.
     */
    std::vector<JobEvent> eventsSince(int64_t id, size_t *cursor,
                                      double timeoutSec = 0.0);

    /** The process-wide shared cache (null when disabled). */
    std::shared_ptr<EvalCache> cache() const { return cache_; }

    /** Lifetime stats of the shared cache (zeros when disabled). */
    EvalCacheStats cacheStats() const;

    const JobManagerOptions &options() const { return opts_; }

    /** One submission's bookkeeping (defined in the .cc; public so
     *  the internal observer glue can name it). */
    struct Job;

  private:
    void workerLoop();
    void runJob(Job &job);
    void finishJob(Job &job, JobState state, const std::string &error);
    void cancelQueuedLocked(Job &job);
    Job *findLocked(int64_t id);
    const Job *findLocked(int64_t id) const;
    JobStatus statusLocked(const Job &job) const;

    JobManagerOptions opts_;
    std::shared_ptr<EvalCache> cache_;
    int threadBudget_ = 1;

    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    std::vector<std::unique_ptr<Job>> jobs_;
    int64_t nextId_ = 1;
    int queuedCount_ = 0;
    int threadsInUse_ = 0;
    std::atomic<bool> shutdown_{false};

    std::vector<std::thread> workers_;
};

} // namespace cocco

#endif // COCCO_SERVE_JOB_MANAGER_H
