/**
 * @file
 * The serve layer, measured in every traced run: a restarted
 * `cocco serve` (JobManager with 2 workers and a 2-thread budget behind
 * HttpServer, warm-started from the cache an earlier session
 * persisted) fed by one client on an open-loop seeded schedule. Every
 * period a burst of five jobs falls due, one of each kind, so jobs
 * queue behind the two workers; the gaps between bursts keep mean load
 * under capacity, so the backlog drains. A third of the jobs resubmit
 * a spec seen in an earlier burst or the earlier session. The client
 * polls GET /jobs, so a job's latency runs from its due time until the
 * client sees it terminal.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <thread>

#include "core/serialize.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct JobKind
{
    const char *label;
    const char *format; ///< spec text, one %llu for the seed
};

const JobKind kKinds[] = {
    {"ga", R"({"algo":"ga","model":"GoogleNet","samples":1000,"seed":%llu,)"
           R"("threads":1,"ga":{"population":50}})"},
    {"sa", R"({"algo":"sa","model":"MobileNetV2","samples":800,)"
           R"("seed":%llu,"threads":1})"},
    {"portfolio",
     R"({"algo":"portfolio","model":"Transformer","samples":800,)"
     R"("seed":%llu,"threads":2,"portfolio":{"racers":["ga","sa"],)"
     R"("deterministicRace":true},"ga":{"population":40}})"},
    {"pareto", R"({"algo":"ga","mode":"pareto","model":"ResNet50",)"
               R"("samples":800,"seed":%llu,"threads":1,)"
               R"("ga":{"population":40}})"},
    {"deployment", R"({"algo":"ga","model":"MobileNetV2",)"
                   R"("deployment":"dual","samples":800,"seed":%llu,)"
                   R"("threads":1,"ga":{"population":40}})"},
};
constexpr int kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);

constexpr int kBursts = 6;      ///< bursts per session (30 jobs)
constexpr double kPeriod = 1.0; ///< seconds between burst due times
constexpr double kJitter = 0.2; ///< share of a period a burst may slip
constexpr double kLead = 0.05;  ///< first due time after the clock starts
constexpr double kPoll = 0.003; ///< client status-poll interval
constexpr double kMaxLag = 0.1; ///< generator lag that voids a run
constexpr double kDrainLimit = 60.0; ///< past the last due time
constexpr int kSoloThreads = 3; ///< reference runs, after the session
/** Entries kept in the earlier session's file (its five specs evaluate
 *  about 3.4k distinct genomes, depending on the seed). */
constexpr size_t kPriorEntries = 3000;

struct PlannedJob
{
    size_t spec = 0;  ///< index into Plan::specs
    double due = 0.0; ///< seconds after the session clock starts
    int burst = 0;
};

/** Every input of one session, generated from the run seed. */
struct Plan
{
    std::vector<std::string> specs; ///< distinct spec texts
    std::vector<int> kind;          ///< per spec
    std::vector<size_t> prior;      ///< specs of the earlier session
    std::vector<PlannedJob> jobs;   ///< in due order
};

Plan
makePlan(uint64_t seed)
{
    Plan p;
    cocco::Rng rng(deriveSeed(seed, "plan"));
    auto addSpec = [&](int k, uint64_t s) {
        p.specs.push_back(cocco::strprintf(kKinds[k].format,
                                           static_cast<unsigned long long>(s)));
        p.kind.push_back(k);
        return p.specs.size() - 1;
    };
    std::vector<std::vector<size_t>> seen(kKindCount);
    for (int k = 0; k < kKindCount; ++k) {
        p.prior.push_back(addSpec(k, deriveSeed(seed, "prior", k)));
        seen[k].push_back(p.prior.back());
    }
    uint64_t fresh = 0;
    for (int b = 0; b < kBursts; ++b) {
        double due = kLead + (b + kJitter * rng.uniformReal()) * kPeriod;
        std::vector<int> kinds(kKindCount);
        for (int k = 0; k < kKindCount; ++k)
            kinds[k] = k;
        rng.shuffle(kinds);
        // One repeat in every third burst, two in the others: a third
        // of all jobs resubmit a spec from an earlier burst or session.
        int repeats = b % 3 == 0 ? 1 : 2;
        std::vector<PlannedJob> burst;
        for (int i = 0; i < kKindCount; ++i) {
            int k = kinds[i];
            size_t spec = i < repeats
                              ? seen[k][rng.index(seen[k].size())]
                              : addSpec(k, deriveSeed(seed, "spec", fresh++));
            burst.push_back({spec, due, b});
        }
        rng.shuffle(burst);
        for (const PlannedJob &j : burst) {
            p.jobs.push_back(j);
            seen[p.kind[j.spec]].push_back(j.spec);
        }
    }
    return p;
}

/** A spec run solo through the serve worker's path: its resultToJson
 *  document. */
std::string
runSolo(const std::string &text, std::shared_ptr<cocco::EvalCache> cache,
        SetupPhases *phases)
{
    ResolvedSpec r;
    std::string err;
    if (!resolveSpec(text, &r, &err, phases))
        cocco::fatal("serve spec does not resolve: %s", err.c_str());
    if (cache)
        r.spec.eval.cache = std::move(cache);
    else
        r.spec.eval.cacheEnabled = false;
    cocco::CoccoResult res = makeFramework(r)->explore(r.spec);
    return cocco::resultToJson(r.graph, res);
}

/** Every spec solo and cold (cache off), a few at a time. */
std::vector<std::string>
runSolos(const std::vector<std::string> &specs, SetupPhases *phases)
{
    std::vector<std::string> solo(specs.size());
    std::vector<SetupPhases> ph(specs.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kSoloThreads; ++t)
        pool.emplace_back([&] {
            for (size_t i; (i = next++) < specs.size();)
                solo[i] = runSolo(specs[i], nullptr, &ph[i]);
        });
    for (std::thread &t : pool)
        t.join();
    for (const SetupPhases &p : ph) {
        phases->parse += p.parse;
        phases->resolve += p.resolve;
    }
    return solo;
}

/** The earlier session: the prior specs over one cache, run in their
 *  own process and persisted anew by every run. */
std::string
priorCacheFile(const RunConfig &cfg, const Plan &plan)
{
    std::string path = cachePath(cfg.workdir, "serve-prior");
    runInChild([&] {
        auto cache = std::make_shared<cocco::EvalCache>();
        for (size_t i : plan.prior)
            runSolo(plan.specs[i], cache, nullptr);
        if (!saveCacheFile(*cache, kPriorEntries, path))
            cocco::fatal("cannot write %s", path.c_str());
    });
    return path;
}

/** The service under test. Members are destroyed listener first. */
struct Service
{
    std::unique_ptr<cocco::JobManager> manager;
    std::unique_ptr<cocco::HttpServer> server;
    int loaded = 0;
    double cacheLoad = 0.0, managerStart = 0.0, listenerStart = 0.0;

    ~Service()
    {
        if (server)
            server->stop();
    }
};

bool
fetch(int port, const char *method, const std::string &path,
      const std::string &body, int *status, std::string *response)
{
    std::string err;
    return cocco::httpFetch("127.0.0.1", port, method, path, body, status,
                            response, &err);
}

/** Cache-file load, manager and listener start, first health check. */
std::unique_ptr<Service>
startService(const std::string &cacheFile, size_t queueCapacity)
{
    auto s = std::make_unique<Service>();
    double t0 = nowSeconds();
    auto cache = std::make_shared<cocco::EvalCache>();
    s->loaded = cocco::loadEvalCache(*cache, cacheFile);
    double t1 = nowSeconds();
    cocco::JobManagerOptions mo;
    mo.workers = 2;
    mo.threadBudget = 2;
    mo.queueCapacity = static_cast<int>(queueCapacity);
    mo.cache = cache;
    s->manager = std::make_unique<cocco::JobManager>(mo);
    double t2 = nowSeconds();
    cocco::JobManager &manager = *s->manager;
    s->server = std::make_unique<cocco::HttpServer>(
        [&manager](const cocco::HttpRequest &req) {
            return cocco::serveHttpRequest(manager, req, nullptr);
        });
    std::string err;
    if (!s->server->start(0, &err))
        cocco::fatal("cannot start the listener: %s", err.c_str());
    int status = 0;
    std::string body;
    if (!fetch(s->server->port(), "GET", "/healthz", "", &status, &body) ||
        status != 200)
        cocco::fatal("the service does not answer /healthz");
    double t3 = nowSeconds();
    if (s->loaded < 0)
        cocco::fatal("cannot load %s", cacheFile.c_str());
    s->cacheLoad = t1 - t0;
    s->managerStart = t2 - t1;
    s->listenerStart = t3 - t2;
    return s;
}

/** What the client saw of one planned job. */
struct Seen
{
    int64_t id = -1;          ///< -1: refused at submission
    double submitted = 0.0;   ///< client clock
    double submitRtt = 0.0;
    bool terminal = false;
    std::string state;
    double terminalAt = 0.0;  ///< when first seen terminal
    double queued = 0.0, run = 0.0;
    int threads = 0;
};

/** Apply one GET /jobs answer to the client's view. */
void
applyStatus(const std::string &body, double now,
            const std::map<int64_t, size_t> &byId, std::vector<Seen> *seen,
            size_t *open)
{
    cocco::JsonValue doc;
    std::string err;
    if (!cocco::parseJson(body, &doc, &err) || !doc.isArray())
        return;
    for (const cocco::JsonValue &s : doc.array()) {
        auto it = byId.find(s.find("id")->integer());
        if (it == byId.end())
            continue;
        Seen &j = (*seen)[it->second];
        if (j.terminal)
            continue;
        j.state = s.find("state")->str();
        if (j.state == "done" || j.state == "failed" ||
            j.state == "cancelled") {
            j.terminal = true;
            j.terminalAt = now;
            j.queued = s.find("queued_seconds")->number();
            j.run = s.find("run_seconds")->number();
            j.threads = static_cast<int>(s.find("threads")->integer());
            --*open;
        }
    }
}

} // namespace

void
runServeSession(const RunConfig &cfg, Report *out)
{
    Plan plan = makePlan(cfg.seed);
    std::string cacheFile = priorCacheFile(cfg, plan);
    std::unique_ptr<Service> svc = startService(cacheFile, plan.jobs.size());
    cocco::JobManager &manager = *svc->manager;
    const int port = svc->server->port();
    cocco::EvalCacheStats cache0 = manager.cacheStats();

    // --- The open-loop session. ---
    const size_t n = plan.jobs.size();
    std::vector<Seen> seen(n);
    std::map<int64_t, size_t> byId;
    size_t next = 0, open = 0;
    double lagMax = 0.0;
    const double t0 = nowSeconds();
    const double deadline = plan.jobs.back().due + kDrainLimit;
    while (true) {
        double now = nowSeconds() - t0;
        while (next < n && plan.jobs[next].due <= now) {
            Seen &j = seen[next];
            j.submitted = now;
            lagMax = std::max(lagMax, now - plan.jobs[next].due);
            int status = 0;
            std::string body;
            cocco::JsonValue doc;
            std::string err;
            if (fetch(port, "POST", "/jobs", plan.specs[plan.jobs[next].spec],
                      &status, &body) &&
                status == 202 && cocco::parseJson(body, &doc, &err)) {
                j.id = doc.find("job")->integer();
                byId[j.id] = next;
                ++open;
            }
            now = nowSeconds() - t0;
            j.submitRtt = now - j.submitted;
            ++next;
        }
        if (next == n && open == 0)
            break;
        if (now > deadline) {
            out->invalidate("the session did not drain");
            break;
        }
        int status = 0;
        std::string body;
        if (fetch(port, "GET", "/jobs", "", &status, &body) && status == 200)
            applyStatus(body, nowSeconds() - t0, byId, &seen, &open);
        double wake = nowSeconds() - t0 + kPoll;
        if (next < n)
            wake = std::min(wake, plan.jobs[next].due);
        double pause = wake - (nowSeconds() - t0);
        if (pause > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(pause));
    }
    cocco::EvalCacheStats cache = manager.cacheStats() - cache0;

    std::vector<std::string> served(n);
    std::vector<double> resultRtt;
    for (size_t i = 0; i < n; ++i) {
        if (seen[i].state != "done")
            continue;
        int status = 0;
        double r0 = nowSeconds();
        if (!fetch(port, "GET",
                   cocco::strprintf("/jobs/%lld/result",
                                    static_cast<long long>(seen[i].id)),
                   "", &status, &served[i]) ||
            status != 200)
            served[i].clear();
        resultRtt.push_back(nowSeconds() - r0);
    }

    // Reference results, after the session: every distinct spec solo
    // and cold.
    SetupPhases specPhases;
    std::vector<std::string> solo = runSolos(plan.specs, &specPhases);

    // --- Every job Done and identical to its solo run. ---
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> latency, submitRtt, queued, run, threads;
    std::vector<std::vector<double>> runByKind(kKindCount);
    struct Burst
    {
        double due = 0.0, lastSeen = 0.0;
        int jobs = 0;
        bool failed = false;
    };
    std::vector<Burst> bursts(plan.jobs.back().burst + 1);
    int refused = 0, failed = 0, mismatches = 0;
    for (size_t i = 0; i < n; ++i) {
        const Seen &j = seen[i];
        size_t spec = plan.jobs[i].spec;
        double due = plan.jobs[i].due;
        Burst &burst = bursts[plan.jobs[i].burst];
        burst.due = due;
        ++burst.jobs;
        submitRtt.push_back(j.submitRtt);
        std::vector<std::string> problems;
        if (j.id < 0) {
            ++refused;
            problems.push_back(cocco::strprintf("job %zu was refused", i));
        } else if (j.state != "done") {
            ++failed;
            problems.push_back(cocco::strprintf(
                "job %lld ended %s", static_cast<long long>(j.id),
                j.state.empty() ? "unseen" : j.state.c_str()));
        } else if (served[i] != solo[spec]) {
            ++mismatches;
            problems.push_back(cocco::strprintf(
                "job %lld differs from its solo run",
                static_cast<long long>(j.id)));
        }
        out->job(problems);
        if (!problems.empty()) {
            latency.push_back(inf);
            burst.failed = true;
            continue;
        }
        latency.push_back(j.terminalAt - due);
        queued.push_back(j.queued);
        run.push_back(j.run);
        runByKind[plan.kind[spec]].push_back(j.run);
        threads.push_back(j.threads);
        burst.lastSeen = std::max(burst.lastSeen, j.terminalAt);
    }
    // Service capacity: a burst arrives at once and outnumbers the
    // workers, so its jobs over the time it took to drain is how fast
    // the service completes jobs while saturated. A burst with a failed
    // job drained nothing.
    std::vector<double> drainRate;
    for (const Burst &b : bursts)
        drainRate.push_back(b.failed ? 0.0 : b.jobs / (b.lastSeen - b.due));
    if (lagMax > kMaxLag)
        out->invalidate(cocco::strprintf(
            "the load generator lagged %.3f s behind its schedule", lagMax));

    int64_t jobs = static_cast<int64_t>(n);
    int64_t done = static_cast<int64_t>(run.size());
    out->addPercentiles("serve.latency_s", latency, "s");
    out->add("serve.jobs_per_s", median(drainRate), "1/s",
             static_cast<int64_t>(bursts.size()));
    out->add("serve.cache_load_s", svc->cacheLoad, "s");
    out->add("serve.cache.genome_hits", cache.hits, "count");
    out->add("serve.cache.genome_hit_ratio", cache.hitRate(), "ratio");
    out->add("serve.cache.block_hit_ratio", cache.blockHitRate(), "ratio");
    out->add("serve.cache.entries", cache.entries, "count");
    size_t distinct = plan.specs.size();
    out->add("serve.spec_resolve_s",
             (specPhases.parse + specPhases.resolve) / distinct, "s",
             static_cast<int64_t>(distinct));

    if (done > 0) {
        out->addPercentiles("serve.queue_wait_s", queued, "s");
        out->addPercentiles("serve.run_s", run, "s");
    }
    for (int k = 0; k < kKindCount; ++k)
        if (!runByKind[k].empty())
            out->add(std::string("serve.run_s_p50.") + kKinds[k].label,
                     median(runByKind[k]), "s",
                     static_cast<int64_t>(runByKind[k].size()));
    out->addPercentiles("serve.submit_rtt_s", submitRtt, "s");
    if (!resultRtt.empty())
        out->add("serve.result_rtt_s_p50", median(resultRtt), "s",
                 static_cast<int64_t>(resultRtt.size()));
    out->add("serve.generator_lag_s_max", lagMax, "s", jobs);
    if (!threads.empty())
        out->add("serve.threads_granted_mean", mean(threads), "threads",
                 done);
    out->add("serve.jobs_due", jobs, "count");
    out->add("serve.jobs_done", done, "count");
    out->add("serve.jobs_refused", refused, "count");
    out->add("serve.jobs_failed", failed, "count");
    out->add("serve.result_mismatches", mismatches, "count");
    out->add("serve.manager_start_s", svc->managerStart, "s");
    out->add("serve.listener_start_s", svc->listenerStart, "s");
}

} // namespace perfbench
