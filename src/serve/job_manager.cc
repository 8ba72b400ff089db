#include "serve/job_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "serve/run_spec.h"
#include "util/thread_pool.h"

namespace cocco {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Events kept per job before low-value ones are shed. A runaway
 *  producer (tiny batches, huge budget) must not grow server memory
 *  without bound; batch-progress events are the shed class because a
 *  consumer can always re-derive progress from the next one. */
constexpr size_t kMaxJobEvents = 1 << 16;

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Cancelled:
        return "cancelled";
      case JobState::Failed:
        return "failed";
    }
    return "unknown";
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Cancelled ||
           state == JobState::Failed;
}

/** Everything the manager tracks for one submission. Mutable fields
 *  are guarded by JobManager::mu_ except cancelFlag (atomic so the
 *  running search can poll it without the lock). */
struct JobManager::Job
{
    int64_t id = 0;
    std::string tenant;
    std::string name;
    SearchSpec spec;

    JobState state = JobState::Queued;
    std::atomic<bool> cancelFlag{false};

    Clock::time_point submitted;
    Clock::time_point started;
    Clock::time_point finished;
    double queuedSeconds = 0.0;
    double runSeconds = 0.0;

    int threads = 0; ///< granted eval threads (0 until running)
    int64_t progressSamples = 0;
    double progressBest = 0.0;
    std::string error;
    std::string modelName;

    /** The run's outcome, materialized when it completes so nothing
     *  search-sized (the trace, the framework) outlives the run: the
     *  result document, the metrics record without its "job" block,
     *  and the stop reason for the final event. */
    bool hasResult = false;
    std::string resultDoc;
    RunMetrics metrics;
    StopReason stop = StopReason::BudgetExhausted;

    std::vector<JobEvent> events;
};

namespace {

/** Append @p e to the job's log (lock held; kMaxJobEvents sheds). */
void
pushEvent(JobManager::Job &job, JobEvent e)
{
    if (job.events.size() >= kMaxJobEvents &&
        e.kind == JobEvent::Kind::BatchDone)
        return;
    job.events.push_back(std::move(e));
}

/** The per-job observer: forwards driver progress into the job's
 *  event log / status fields and carries the cooperative-cancel
 *  flag into the engine's batch boundaries. */
class JobObserver : public SearchObserver
{
  public:
    JobObserver(std::mutex &mu, std::condition_variable &cv,
                JobManager::Job &job, const std::atomic<bool> &shutdown)
        : mu_(mu), cv_(cv), job_(job), shutdown_(shutdown)
    {
    }

    void onImprove(const TracePoint &tp) override
    {
        JobEvent e;
        e.kind = JobEvent::Kind::Improve;
        e.job = job_.id;
        e.sample = tp.sample;
        e.bestCost = tp.bestCost;
        record(tp.sample, tp.bestCost, std::move(e));
    }

    void onBatchDone(int64_t samples, double bestCost) override
    {
        JobEvent e;
        e.kind = JobEvent::Kind::BatchDone;
        e.job = job_.id;
        e.sample = samples;
        e.bestCost = bestCost;
        record(samples, bestCost, std::move(e));
    }

    bool cancelled() override
    {
        return job_.cancelFlag.load(std::memory_order_relaxed) ||
               shutdown_.load(std::memory_order_relaxed);
    }

  private:
    void record(int64_t samples, double best, JobEvent e)
    {
        std::lock_guard<std::mutex> lk(mu_);
        job_.progressSamples = samples;
        job_.progressBest = best;
        pushEvent(job_, std::move(e));
        cv_.notify_all();
    }

    std::mutex &mu_;
    std::condition_variable &cv_;
    JobManager::Job &job_;
    const std::atomic<bool> &shutdown_;
};

} // namespace

JobManager::JobManager(const JobManagerOptions &opts) : opts_(opts)
{
    opts_.workers = std::max(1, opts_.workers);
    opts_.queueCapacity = std::max(1, opts_.queueCapacity);
    if (opts_.cache)
        cache_ = opts_.cache;
    else if (opts_.cacheEnabled)
        cache_ = std::make_shared<EvalCache>(opts_.cacheCapacity);
    threadBudget_ = ThreadPool::resolveThreads(opts_.threadBudget);
    workers_.reserve(opts_.workers);
    for (int i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobManager::~JobManager()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_.store(true, std::memory_order_relaxed);
        for (auto &job : jobs_) {
            if (job->state == JobState::Queued)
                cancelQueuedLocked(*job);
            else if (job->state == JobState::Running)
                job->cancelFlag.store(true, std::memory_order_relaxed);
        }
        cv_.notify_all();
    }
    for (std::thread &t : workers_)
        t.join();
}

int64_t
JobManager::submit(const SearchSpec &spec, const std::string &tenant,
                   std::string *err)
{
    auto reject = [&](const std::string &why) {
        if (err)
            *err = why;
        return -1;
    };

    // Anything a driver would abort on is shed here, before it can
    // take down a worker thread.
    std::string why = runSpecError(spec);
    if (!why.empty())
        return reject(why);

    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_.load(std::memory_order_relaxed))
        return reject("manager is shutting down");
    if (queuedCount_ >= opts_.queueCapacity)
        return reject("job queue is full");

    auto job = std::make_unique<Job>();
    job->id = nextId_++;
    job->tenant = tenant;
    job->spec = spec;
    if (spec.workloadSet.enabled()) {
        std::string joined;
        for (size_t i = 0; i < spec.workloadSet.tenants.size(); ++i)
            joined += (i ? "+" : "") + spec.workloadSet.tenants[i].name;
        job->name = spec.algo + ":" + joined;
    } else {
        job->name = spec.algo + ":" +
                    (spec.workload.model.empty() ? spec.workload.file
                                                 : spec.workload.model);
    }
    job->submitted = Clock::now();
    JobEvent e;
    e.kind = JobEvent::Kind::Accepted;
    e.job = job->id;
    pushEvent(*job, std::move(e));
    int64_t id = job->id;
    jobs_.push_back(std::move(job));
    ++queuedCount_;
    cv_.notify_all();
    return id;
}

bool
JobManager::cancel(int64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    Job *job = findLocked(id);
    if (!job || jobStateTerminal(job->state))
        return false;
    if (job->state == JobState::Queued) {
        cancelQueuedLocked(*job);
        cv_.notify_all();
        return true;
    }
    job->cancelFlag.store(true, std::memory_order_relaxed);
    return true;
}

void
JobManager::cancelQueuedLocked(Job &job)
{
    job.state = JobState::Cancelled;
    job.finished = Clock::now();
    job.queuedSeconds = secondsBetween(job.submitted, job.finished);
    --queuedCount_;
    JobEvent e;
    e.kind = JobEvent::Kind::Cancelled;
    e.job = job.id;
    e.stop = StopReason::Cancelled;
    pushEvent(job, std::move(e));
}

void
JobManager::cancelAll()
{
    std::vector<int64_t> ids;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &job : jobs_)
            if (!jobStateTerminal(job->state))
                ids.push_back(job->id);
    }
    for (int64_t id : ids)
        cancel(id);
}

JobStatus
JobManager::status(int64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const Job *job = findLocked(id);
    if (!job)
        return JobStatus{};
    return statusLocked(*job);
}

std::vector<JobStatus>
JobManager::jobs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &job : jobs_)
        out.push_back(statusLocked(*job));
    return out;
}

bool
JobManager::wait(int64_t id, double timeoutSec)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto terminal = [&] {
        const Job *job = findLocked(id);
        return !job || jobStateTerminal(job->state);
    };
    if (timeoutSec <= 0.0) {
        cv_.wait(lk, terminal);
        return findLocked(id) != nullptr;
    }
    if (!cv_.wait_for(lk, std::chrono::duration<double>(timeoutSec),
                      terminal))
        return false;
    return findLocked(id) != nullptr;
}

void
JobManager::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
        for (const auto &job : jobs_)
            if (!jobStateTerminal(job->state))
                return false;
        return true;
    });
}

std::string
JobManager::resultJson(int64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const Job *job = findLocked(id);
    if (!job || !jobStateTerminal(job->state) || !job->hasResult)
        return "";
    return job->resultDoc;
}

std::string
JobManager::metricsJson(int64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const Job *job = findLocked(id);
    if (!job || !jobStateTerminal(job->state) || !job->hasResult)
        return "";
    RunMetrics m = job->metrics;
    m.hasJob = true;
    m.jobId = job->id;
    m.tenant = job->tenant;
    m.jobState = jobStateName(job->state);
    m.queuedSeconds = job->queuedSeconds;
    return metricsToJson("cocco-serve", {m});
}

std::vector<JobEvent>
JobManager::eventsSince(int64_t id, size_t *cursor, double timeoutSec)
{
    std::unique_lock<std::mutex> lk(mu_);
    const Job *job = findLocked(id);
    if (!job)
        return {};
    if (timeoutSec > 0.0 && *cursor >= job->events.size() &&
        !jobStateTerminal(job->state)) {
        cv_.wait_for(lk, std::chrono::duration<double>(timeoutSec), [&] {
            return *cursor < job->events.size() ||
                   jobStateTerminal(job->state);
        });
    }
    std::vector<JobEvent> out;
    for (size_t i = *cursor; i < job->events.size(); ++i)
        out.push_back(job->events[i]);
    *cursor = job->events.size();
    return out;
}

EvalCacheStats
JobManager::cacheStats() const
{
    return cache_ ? cache_->stats() : EvalCacheStats{};
}

void
JobManager::workerLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                if (shutdown_.load(std::memory_order_relaxed))
                    return true;
                for (const auto &j : jobs_)
                    if (j->state == JobState::Queued)
                        return true;
                return false;
            });
            if (shutdown_.load(std::memory_order_relaxed))
                return;
            for (const auto &j : jobs_) {
                if (j->state == JobState::Queued) {
                    job = j.get();
                    break;
                }
            }
            if (!job)
                continue;
            job->state = JobState::Running;
            --queuedCount_;
            job->started = Clock::now();
            job->queuedSeconds =
                secondsBetween(job->submitted, job->started);

            // The thread-budget ledger: grant what the spec asks for,
            // capped by what the budget has left, never below 1. The
            // grant cannot change the job's result (the engine's
            // determinism contract), only its speed.
            int want = ThreadPool::resolveThreads(job->spec.eval.threads);
            int grant =
                std::min(want, std::max(1, threadBudget_ - threadsInUse_));
            job->threads = std::max(1, grant);
            threadsInUse_ += job->threads;

            JobEvent e;
            e.kind = JobEvent::Kind::Started;
            e.job = job->id;
            pushEvent(*job, std::move(e));
            cv_.notify_all();
        }
        runJob(*job);
        {
            std::lock_guard<std::mutex> lk(mu_);
            threadsInUse_ -= job->threads;
            cv_.notify_all();
        }
    }
}

void
JobManager::runJob(Job &job)
{
    auto t0 = Clock::now();

    // The same spec-to-result path as the CLI's `run`, so a served
    // job is bit-identical to the solo run.
    SpecRun run;
    std::string err = run.prepare(job.spec);
    if (!err.empty()) {
        finishJob(job, JobState::Failed, err);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        job.modelName = run.modelName();
    }

    // The serving hooks: the granted threads, the job's observer
    // (progress events + cooperative cancel) and the shared cache.
    SearchSpec &spec = run.spec();
    spec.eval.threads = job.threads;
    JobObserver observer(mu_, cv_, job, shutdown_);
    spec.eval.observer = &observer;
    if (cache_ && spec.eval.cacheEnabled) {
        spec.eval.cache = cache_;
    } else {
        spec.eval.cacheEnabled = false;
        spec.eval.cache = nullptr;
    }

    run.run();
    RunMetrics m = run.metrics();
    m.threads = job.threads;
    m.wallSeconds = secondsBetween(t0, Clock::now());
    m.cacheEnabled = spec.eval.cacheEnabled;
    std::string doc = run.resultJson();
    {
        std::lock_guard<std::mutex> lk(mu_);
        job.resultDoc = std::move(doc);
        job.metrics = std::move(m);
        job.stop = run.stop();
        job.hasResult = true;
    }
    finishJob(job,
              run.stop() == StopReason::Cancelled ? JobState::Cancelled
                                                  : JobState::Done,
              "");
}

void
JobManager::finishJob(Job &job, JobState state, const std::string &error)
{
    std::lock_guard<std::mutex> lk(mu_);
    job.state = state;
    job.error = error;
    job.finished = Clock::now();
    job.runSeconds = secondsBetween(job.started, job.finished);

    JobEvent e;
    e.job = job.id;
    if (state == JobState::Failed) {
        e.kind = JobEvent::Kind::Failed;
        e.error = error;
    } else {
        e.kind = state == JobState::Cancelled ? JobEvent::Kind::Cancelled
                                              : JobEvent::Kind::Done;
        e.sample = job.hasResult ? job.metrics.samples : 0;
        e.bestCost = job.hasResult ? job.metrics.bestCost : 0.0;
        e.stop = job.hasResult ? job.stop : StopReason::Cancelled;
    }
    pushEvent(job, std::move(e));
    cv_.notify_all();
}

JobManager::Job *
JobManager::findLocked(int64_t id)
{
    return const_cast<Job *>(std::as_const(*this).findLocked(id));
}

const JobManager::Job *
JobManager::findLocked(int64_t id) const
{
    for (const auto &job : jobs_)
        if (job->id == id)
            return job.get();
    return nullptr;
}

JobStatus
JobManager::statusLocked(const Job &job) const
{
    JobStatus s;
    s.id = job.id;
    s.tenant = job.tenant;
    s.name = job.name;
    s.model = job.modelName;
    s.state = job.state;
    s.threads = job.threads;
    s.progressSamples = job.progressSamples;
    s.progressBest = job.progressBest;
    if (job.state == JobState::Queued)
        s.queuedSeconds = secondsBetween(job.submitted, Clock::now());
    else
        s.queuedSeconds = job.queuedSeconds;
    if (job.state == JobState::Running)
        s.runSeconds = secondsBetween(job.started, Clock::now());
    else if (jobStateTerminal(job.state))
        s.runSeconds = job.runSeconds;
    s.error = job.error;
    return s;
}

} // namespace cocco
