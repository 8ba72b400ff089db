/**
 * @file
 * Tests for the exploration service (src/serve/): the NDJSON event
 * encoding, the JobManager's bit-identity and shared-cache contracts,
 * admission control, mid-flight cancellation, the batch directory
 * runner, and both protocol front ends (HTTP on an ephemeral port,
 * stdio NDJSON over FILE* pairs).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "core/cocco.h"
#include "core/serialize.h"
#include "serve/batch.h"
#include "serve/events.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/logging.h"

using namespace cocco;

namespace {

/** A small real-model spec: fast enough for the sanitizer lane, real
 *  enough to exercise the whole resolve/explore path. */
std::string
gaSpecText(uint64_t seed, int64_t samples = 120)
{
    return strprintf("{\"algo\":\"ga\",\"model\":\"GoogleNet\","
                     "\"samples\":%lld,\"seed\":%llu,\"threads\":1,"
                     "\"ga\":{\"population\":20}}",
                     static_cast<long long>(samples),
                     static_cast<unsigned long long>(seed));
}

/** The reference document: the spec run solo, cold cache, exactly as
 *  `cocco run` would. */
std::string
soloResultDoc(const std::string &specText)
{
    SearchSpec spec;
    std::string err;
    EXPECT_TRUE(parseRunSpecText(specText, &spec, &err)) << err;
    spec.eval.cacheEnabled = false;
    Graph g;
    EXPECT_TRUE(resolveWorkload(spec.workload, &g, &err)) << err;
    AcceleratorConfig accel;
    EXPECT_TRUE(resolvePlatform(spec.platform, &accel, &err)) << err;
    CoccoResult r = CoccoFramework(g, accel).explore(spec);
    return resultToJson(g, r);
}

SearchSpec
parsedSpec(const std::string &text)
{
    SearchSpec spec;
    std::string err;
    EXPECT_TRUE(parseRunSpecText(text, &spec, &err)) << err;
    return spec;
}

/** Poll until @p id reaches Running (a submit is asynchronous). */
bool
waitRunning(JobManager &m, int64_t id, double timeoutSec = 10.0)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeoutSec);
    while (std::chrono::steady_clock::now() < deadline) {
        JobState s = m.status(id).state;
        if (s == JobState::Running || jobStateTerminal(s))
            return s == JobState::Running;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string out;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, got);
    std::fclose(f);
    return out;
}

} // namespace

// --- Event encoding ---------------------------------------------------------

TEST(Serve, EventEncodingGoldens)
{
    JobEvent e;
    e.kind = JobEvent::Kind::Accepted;
    e.job = 3;
    EXPECT_EQ(encodeJobEvent(e), "{\"event\":\"accepted\",\"job\":3}");

    e.kind = JobEvent::Kind::Improve;
    e.sample = 40;
    e.bestCost = 2.5;
    EXPECT_EQ(encodeJobEvent(e),
              "{\"event\":\"improve\",\"job\":3,\"sample\":40,"
              "\"best\":2.5}");

    e.kind = JobEvent::Kind::Checkpoint;
    EXPECT_EQ(encodeJobEvent(e),
              "{\"event\":\"checkpoint\",\"job\":3,\"sample\":40}");

    e.kind = JobEvent::Kind::Done;
    e.stop = StopReason::BudgetExhausted;
    EXPECT_EQ(encodeJobEvent(e),
              "{\"event\":\"done\",\"job\":3,\"sample\":40,"
              "\"best\":2.5,\"stop\":\"budget\"}");

    e.kind = JobEvent::Kind::Cancelled;
    e.stop = StopReason::Cancelled;
    EXPECT_EQ(encodeJobEvent(e),
              "{\"event\":\"cancelled\",\"job\":3,\"sample\":40,"
              "\"best\":2.5,\"stop\":\"cancelled\"}");

    e.kind = JobEvent::Kind::Failed;
    e.error = "no such model";
    EXPECT_EQ(encodeJobEvent(e),
              "{\"event\":\"failed\",\"job\":3,"
              "\"error\":\"no such model\"}");
}

// --- JobManager core --------------------------------------------------------

TEST(Serve, JobsAreBitIdenticalToSoloRunsAndShareTheCache)
{
    std::string text = gaSpecText(7);
    std::string expected = soloResultDoc(text);

    JobManagerOptions opts;
    opts.workers = 2;
    opts.threadBudget = 2;
    JobManager manager(opts);

    // The same spec twice plus a different seed: the repeat must hit
    // the shared cache, and nothing about sharing may leak into the
    // result documents.
    std::string err;
    int64_t a = manager.submit(parsedSpec(text), "t1", &err);
    ASSERT_GT(a, 0) << err;
    int64_t b = manager.submit(parsedSpec(text), "t2", &err);
    ASSERT_GT(b, 0) << err;
    int64_t c = manager.submit(parsedSpec(gaSpecText(8)), "t1", &err);
    ASSERT_GT(c, 0) << err;
    manager.drain();

    EXPECT_EQ(manager.status(a).state, JobState::Done);
    EXPECT_EQ(manager.status(b).state, JobState::Done);
    EXPECT_EQ(manager.status(c).state, JobState::Done);
    EXPECT_EQ(manager.resultJson(a), expected);
    EXPECT_EQ(manager.resultJson(b), expected);
    EXPECT_NE(manager.resultJson(c), expected); // different seed
    EXPECT_GT(manager.cacheStats().hits, 0u);

    // Status carries the tenant and the resolved model through.
    JobStatus s = manager.status(a);
    EXPECT_EQ(s.tenant, "t1");
    EXPECT_EQ(s.model, "GoogleNet");
    EXPECT_GE(s.threads, 1);
    EXPECT_EQ(s.progressSamples, 120);

    // The metrics document parses and carries the job block.
    JsonValue doc;
    std::string perr;
    ASSERT_TRUE(parseJson(manager.metricsJson(a), &doc, &perr)) << perr;
    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array().size(), 1u);
    const JsonValue *job = runs->array()[0].find("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->find("id")->integer(), a);
    EXPECT_EQ(job->find("tenant")->str(), "t1");
    EXPECT_EQ(job->find("state")->str(), "done");

    // The event log tells the whole story in order.
    size_t cursor = 0;
    std::vector<JobEvent> events = manager.eventsSince(a, &cursor);
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().kind, JobEvent::Kind::Accepted);
    EXPECT_EQ(events[1].kind, JobEvent::Kind::Started);
    EXPECT_EQ(events.back().kind, JobEvent::Kind::Done);
    // The cursor advanced past everything: nothing new.
    EXPECT_TRUE(manager.eventsSince(a, &cursor).empty());
}

TEST(Serve, CancelStopsAJobMidFlight)
{
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);

    // A budget far too large to finish; cancellation must end it.
    std::string err;
    int64_t id = manager.submit(parsedSpec(gaSpecText(1, 50000000)),
                                "t", &err);
    ASSERT_GT(id, 0) << err;
    ASSERT_TRUE(waitRunning(manager, id));

    // Let it make some progress before pulling the plug.
    size_t cursor = 0;
    manager.eventsSince(id, &cursor, 5.0);
    EXPECT_TRUE(manager.cancel(id));
    ASSERT_TRUE(manager.wait(id, 30.0));
    JobStatus s = manager.status(id);
    EXPECT_EQ(s.state, JobState::Cancelled);
    EXPECT_LT(s.progressSamples, 50000000);

    // Cancelling a terminal job is a no-op that reports false.
    EXPECT_FALSE(manager.cancel(id));
    EXPECT_FALSE(manager.cancel(999));
}

TEST(Serve, AdmissionControlShedsAtTheFrontDoor)
{
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    opts.queueCapacity = 1;
    JobManager manager(opts);

    std::string err;

    // Structurally unrunnable specs never reach the queue.
    SearchSpec bad = parsedSpec(gaSpecText(1));
    bad.algo = "no-such-algo";
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);
    EXPECT_FALSE(err.empty());

    bad = parsedSpec(gaSpecText(1));
    bad.ga.population = 1;
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);

    bad = parsedSpec(gaSpecText(1));
    bad.eval.sampleBudget = 0;
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);

    // A duplicate racer would hit the portfolio searcher's own
    // fatal() on a worker thread — shed it at the front door too.
    bad = parsedSpec(gaSpecText(1));
    bad.algo = "portfolio";
    bad.portfolio.racers = {"ga", "sa", "ga"};
    err.clear();
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;

    // Each racer's own rule applies inside the race too: a GA racer
    // with a one-genome population, and a two-step racer whose inner
    // GAs would have one, are shed instead of aborting a worker.
    err.clear();
    EXPECT_EQ(manager.submit(parsedSpec(R"({"model":"GoogleNet",
                  "algo":"portfolio","portfolio":{"racers":["ga","sa"]},
                  "ga":{"population":1}})"),
                             "t", &err),
              -1);
    EXPECT_NE(err.find("ga.population"), std::string::npos) << err;
    err.clear();
    EXPECT_EQ(manager.submit(parsedSpec(R"({"model":"GoogleNet",
                  "algo":"portfolio",
                  "portfolio":{"racers":["ts-random","sa"]},
                  "twoStep":{"population":1}})"),
                             "t", &err),
              -1);
    EXPECT_NE(err.find("twoStep.population"), std::string::npos) << err;

    // Occupy the one worker, fill the one queue slot; the next
    // submission must be rejected as over-capacity.
    int64_t running = manager.submit(parsedSpec(gaSpecText(2, 50000000)),
                                     "t", &err);
    ASSERT_GT(running, 0) << err;
    ASSERT_TRUE(waitRunning(manager, running));
    int64_t queued = manager.submit(parsedSpec(gaSpecText(3)), "t", &err);
    ASSERT_GT(queued, 0) << err;
    err.clear();
    EXPECT_EQ(manager.submit(parsedSpec(gaSpecText(4)), "t", &err), -1);
    EXPECT_NE(err.find("full"), std::string::npos) << err;

    // cancelAll reaps both the running and the queued job.
    manager.cancelAll();
    manager.drain();
    EXPECT_EQ(manager.status(running).state, JobState::Cancelled);
    EXPECT_EQ(manager.status(queued).state, JobState::Cancelled);
}

TEST(Serve, RuleBoundarySpecsRunToTheEnd)
{
    // The spec rule admits only what the drivers can run: every
    // searcher at the rule's boundary values, alone and as a
    // portfolio's only racer, must finish its (tiny) budget.
    JobManagerOptions opts;
    opts.workers = 2;
    opts.threadBudget = 2;
    JobManager manager(opts);

    // GA runs at both ends of ga.elite; the others at the default.
    const std::pair<const char *, int> runs[] = {
        {"ga", 0}, {"ga", 2}, {"sa", 2}, {"ts-random", 2}, {"ts-grid", 2}};
    std::vector<int64_t> ids;
    for (const auto &[algo, elite] : runs) {
        for (bool raced : {false, true}) {
            std::string text = strprintf(
                R"({"model":"GoogleNet","samples":60,"seed":3,)"
                R"("threads":1,"algo":"%s",)"
                R"("ga":{"population":2,"tournament":1,"elite":%d},)"
                R"("sa":{"neighborBatch":1},)"
                R"("twoStep":{"population":2,"samplesPerCandidate":1},)"
                R"("portfolio":{"racers":["%s"],"checkEvals":1,)"
                R"("warmupEvals":0}})",
                raced ? "portfolio" : algo, elite, algo);
            std::string err;
            int64_t id = manager.submit(parsedSpec(text), algo, &err);
            ASSERT_GT(id, 0) << text << ": " << err;
            ids.push_back(id);
        }
    }
    manager.drain();
    for (int64_t id : ids) {
        JobStatus s = manager.status(id);
        EXPECT_EQ(s.state, JobState::Done) << s.name << ": " << s.error;
        EXPECT_GE(s.progressSamples, 60) << s.name;
    }
}

TEST(Serve, TinyWidthMultSpecRunsAndTheServiceStaysUp)
{
    // NasNet at widthMult 0.02 derives a stem-cell width of 3 / 4
    // channels; before the clamp that was a 0-channel layer whose
    // fatal() took the worker, and the process, down.
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);
    const std::string tiny =
        R"({"algo":"sa","workload":{"model":"NasNet",)"
        R"("params":{"widthMult":0.02}},"samples":200,"seed":1,)"
        R"("threads":1})";
    std::vector<int64_t> ids;
    for (const std::string &text : {tiny, gaSpecText(13)}) {
        std::string err;
        int64_t id = manager.submit(parsedSpec(text), "t", &err);
        ASSERT_GT(id, 0) << text << ": " << err;
        ids.push_back(id);
    }
    manager.drain();
    for (int64_t id : ids) {
        JobStatus s = manager.status(id);
        EXPECT_EQ(s.state, JobState::Done) << s.name << ": " << s.error;
    }
}

// --- Batch directory runner -------------------------------------------------

TEST(Serve, BatchDrainsADirectoryAndRecordsFailures)
{
    std::string expected = soloResultDoc(gaSpecText(5));

    char tmpl[] = "/tmp/cocco_batch_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    std::string dir = tmpl;
    writeFile(dir + "/a.json", gaSpecText(5));
    writeFile(dir + "/b.json", gaSpecText(6));
    writeFile(dir + "/broken.json", "{\"algo\":\"no-such-algo\"}");

    BatchOptions opts;
    opts.jobs = 2;
    opts.threadBudget = 2;
    BatchSummary summary;
    std::string err;
    ASSERT_TRUE(runBatchDir(dir, opts, &summary, &err)) << err;
    EXPECT_EQ(summary.done, 2);
    EXPECT_EQ(summary.failed, 1);
    EXPECT_EQ(summary.cancelled, 0);
    EXPECT_FALSE(summary.interrupted);
    ASSERT_EQ(summary.entries.size(), 3u);

    // Outputs land next to the specs; the result doc is the solo doc
    // (the file form adds the trailing newline every writer does).
    EXPECT_EQ(readFile(dir + "/a.result.json"), expected + "\n");
    EXPECT_FALSE(readFile(dir + "/a.metrics.json").empty());
    EXPECT_FALSE(readFile(dir + "/b.result.json").empty());

    JsonValue doc;
    std::string perr;
    ASSERT_TRUE(parseJson(readFile(dir + "/batch_summary.json"), &doc,
                          &perr))
        << perr;
    EXPECT_EQ(doc.find("done")->integer(), 2);
    EXPECT_EQ(doc.find("failed")->integer(), 1);
    ASSERT_NE(doc.find("jobs"), nullptr);
    EXPECT_EQ(doc.find("jobs")->array().size(), 3u);

    // Aggregate accounting: the batch's own wall clock, the summed
    // per-job wall clock / sample counts, and the shared cache's
    // lifetime hit rate, all in the summary document.
    ASSERT_NE(doc.find("wall_seconds"), nullptr);
    EXPECT_GT(doc.find("wall_seconds")->number(), 0.0);
    ASSERT_NE(doc.find("jobs_wall_seconds"), nullptr);
    EXPECT_GT(doc.find("jobs_wall_seconds")->number(), 0.0);
    EXPECT_DOUBLE_EQ(doc.find("jobs_wall_seconds")->number(),
                     summary.jobsWallSeconds);
    ASSERT_NE(doc.find("samples_total"), nullptr);
    EXPECT_EQ(doc.find("samples_total")->integer(),
              summary.samplesTotal);
    EXPECT_GE(summary.samplesTotal, 2 * 120);
    const JsonValue *scache = doc.find("cache");
    ASSERT_NE(scache, nullptr);
    ASSERT_NE(scache->find("hit_rate"), nullptr);
    EXPECT_GE(scache->find("hit_rate")->number(), 0.0);
    EXPECT_LE(scache->find("hit_rate")->number(), 1.0);

    // An interrupted batch cancels cooperatively and says so.
    char tmpl2[] = "/tmp/cocco_batch_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl2), nullptr);
    std::string dir2 = tmpl2;
    writeFile(dir2 + "/slow.json", gaSpecText(1, 50000000));
    std::atomic<bool> interrupt{false};
    BatchOptions iopts;
    iopts.jobs = 1;
    iopts.threadBudget = 1;
    iopts.interrupt = &interrupt;
    std::thread trip([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        interrupt.store(true);
    });
    BatchSummary isummary;
    ASSERT_TRUE(runBatchDir(dir2, iopts, &isummary, &err)) << err;
    trip.join();
    EXPECT_TRUE(isummary.interrupted);
    EXPECT_EQ(isummary.cancelled, 1);

    // An empty directory is an error, not an empty success.
    char tmpl3[] = "/tmp/cocco_batch_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl3), nullptr);
    err.clear();
    BatchSummary esummary;
    EXPECT_FALSE(runBatchDir(tmpl3, iopts, &esummary, &err));
    EXPECT_FALSE(err.empty());
}

// --- Co-scheduled workload_set jobs -----------------------------------------

TEST(Serve, CoScheduleJobsRunThroughTheManager)
{
    const char *specText = R"({
        "algo": "ga", "samples": 300, "seed": 7, "threads": 1,
        "ga": {"population": 12},
        "deployment": "big-little",
        "workload_set": [
            {"name": "vision", "model": "GoogleNet",
             "arrival_rate_hz": 40, "sla_latency_ms": 18},
            {"name": "mobile", "model": "MobileNetV2",
             "arrival_rate_hz": 25, "sla_latency_ms": 30}
        ]
    })";

    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);

    std::string err;
    int64_t id = manager.submit(parsedSpec(specText), "tenant-a", &err);
    ASSERT_GT(id, 0) << err;
    ASSERT_TRUE(manager.wait(id, 60.0));
    EXPECT_EQ(manager.status(id).state, JobState::Done);
    EXPECT_EQ(manager.status(id).name, "ga:vision+mobile");
    EXPECT_EQ(manager.status(id).model, "GoogleNet+MobileNetV2");

    // The result document is the co-schedule analogue of resultToJson:
    // per-tenant placements plus the schedule-level cost.
    std::string result = manager.resultJson(id);
    ASSERT_FALSE(result.empty());
    JsonValue doc;
    ASSERT_TRUE(parseJson(result, &doc, &err)) << err;
    ASSERT_NE(doc.find("tenants"), nullptr);
    EXPECT_EQ(doc.find("tenants")->array().size(), 2u);
    ASSERT_NE(doc.find("cost"), nullptr);
    ASSERT_NE(doc.find("cost")->find("sla_violations"), nullptr);

    // The metrics document replaces the deployment block with the
    // tenants block and keeps the serving context.
    std::string metrics = manager.metricsJson(id);
    ASSERT_FALSE(metrics.empty());
    ASSERT_TRUE(parseJson(metrics, &doc, &err)) << err;
    const JsonValue &run = doc.find("runs")->array()[0];
    EXPECT_EQ(run.find("deployment"), nullptr);
    const JsonValue *tenants = run.find("tenants");
    ASSERT_NE(tenants, nullptr);
    EXPECT_EQ(tenants->find("count")->integer(), 2);
    EXPECT_EQ(tenants->find("list")->array().size(), 2u);
    ASSERT_NE(run.find("job"), nullptr);

    // Admission validates the set itself: a duplicate tenant name is
    // shed at the front door, before it can reach a worker.
    SearchSpec bad = parsedSpec(specText);
    bad.workloadSet.tenants[1].name =
        bad.workloadSet.tenants[0].name;
    err.clear();
    EXPECT_EQ(manager.submit(bad, "tenant-a", &err), -1);
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

// --- HTTP front end ---------------------------------------------------------

TEST(Serve, HttpRoundTrip)
{
    std::string text = gaSpecText(9);
    std::string expected = soloResultDoc(text);

    JobManagerOptions opts;
    opts.workers = 2;
    opts.threadBudget = 2;
    JobManager manager(opts);
    std::atomic<bool> shutdownFlag{false};
    HttpServer server([&](const HttpRequest &req) {
        return serveHttpRequest(manager, req, &shutdownFlag);
    });
    std::string err;
    ASSERT_TRUE(server.start(0, &err)) << err;
    int port = server.port();

    int status = 0;
    std::string body;
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "GET", "/healthz", "",
                          &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;

    // Submit, poll /result until it flips from 409 to 200.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "POST", "/jobs", text,
                          &status, &body, &err))
        << err;
    ASSERT_EQ(status, 202) << body;
    JsonValue doc;
    std::string perr;
    ASSERT_TRUE(parseJson(body, &doc, &perr)) << perr;
    int64_t id = doc.find("job")->integer();
    ASSERT_GT(id, 0);

    ASSERT_TRUE(manager.wait(id, 60.0));
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "GET",
                          strprintf("/jobs/%lld/result",
                                    static_cast<long long>(id)),
                          "", &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, expected);

    // Status endpoints.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "GET",
                          strprintf("/jobs/%lld",
                                    static_cast<long long>(id)),
                          "", &status, &body, &err));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"state\":\"done\""), std::string::npos) << body;
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "GET", "/jobs/999", "",
                          &status, &body, &err));
    EXPECT_EQ(status, 404);

    // A result for a still-missing job is 409 while non-terminal —
    // here exercised via an unparseable submission instead: 400.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "POST", "/jobs",
                          "this is not json", &status, &body, &err));
    EXPECT_EQ(status, 400);

    // A spec the spec rule refuses is a 400 with the reason, not a job.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "POST", "/jobs",
                          R"({"model":"GoogleNet","algo":"portfolio",
                              "portfolio":{"racers":["ts-random","sa"]},
                              "twoStep":{"population":1}})",
                          &status, &body, &err));
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("twoStep.population"), std::string::npos) << body;

    // The event stream replays the job's history and terminates.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "GET",
                          strprintf("/jobs/%lld/events",
                                    static_cast<long long>(id)),
                          "", &status, &body, &err));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"event\":\"accepted\""), std::string::npos);
    EXPECT_NE(body.find("\"event\":\"done\""), std::string::npos);

    // Remote shutdown flips the serve loop's flag.
    ASSERT_TRUE(httpFetch("127.0.0.1", port, "POST", "/shutdown", "",
                          &status, &body, &err));
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(shutdownFlag.load());
    server.stop();
}

TEST(Serve, HttpRefusesDuplicateKeysAndKeepsServing)
{
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);
    HttpServer server([&](const HttpRequest &req) {
        return serveHttpRequest(manager, req, nullptr);
    });
    std::string err;
    ASSERT_TRUE(server.start(0, &err)) << err;
    int status = 0;
    std::string body;
    // The last "samples" used to win: a 300-sample job.
    ASSERT_TRUE(httpFetch("127.0.0.1", server.port(), "POST", "/jobs",
                          R"({"model":"GoogleNet","samples":100,
                              "samples":300,"seed":1})",
                          &status, &body, &err))
        << err;
    EXPECT_EQ(status, 400);
    EXPECT_NE(body.find("duplicate key"), std::string::npos) << body;
    ASSERT_TRUE(httpFetch("127.0.0.1", server.port(), "GET", "/healthz", "",
                          &status, &body, &err))
        << err;
    EXPECT_EQ(status, 200);
    server.stop();
}

TEST(Serve, HttpServerStartStopLoop)
{
    // stop() must not close the listener under a running accept loop
    // (a data race under ThreadSanitizer); every cycle also serves one
    // request, so the loop is accepting when stop() lands.
    HttpServer server([](const HttpRequest &) {
        HttpResponse r;
        r.body = "{}";
        return r;
    });
    for (int i = 0; i < 50; ++i) {
        std::string err;
        ASSERT_TRUE(server.start(0, &err)) << "cycle " << i << ": " << err;
        int status = 0;
        std::string body;
        ASSERT_TRUE(httpFetch("127.0.0.1", server.port(), "GET", "/", "",
                              &status, &body, &err))
            << "cycle " << i << ": " << err;
        EXPECT_EQ(status, 200);
        server.stop();
    }
}

// --- Stdio front end --------------------------------------------------------

TEST(Serve, StdioProtocolRoundTrip)
{
    std::string text = gaSpecText(11);
    std::string expected = soloResultDoc(text);

    std::string input;
    input += "{\"cmd\":\"submit\",\"tenant\":\"cli\",\"spec\":" + text +
             "}\n";
    input += "{\"cmd\":\"wait\",\"job\":1}\n";
    input += "{\"cmd\":\"status\",\"job\":1}\n";
    input += "{\"cmd\":\"result\",\"job\":1}\n";
    input += "{\"cmd\":\"nonsense\"}\n";
    input += "{\"cmd\":\"shutdown\"}\n";

    std::FILE *in = ::fmemopen(const_cast<char *>(input.data()),
                               input.size(), "r");
    ASSERT_NE(in, nullptr);
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);

    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 1;
    JobManager manager(opts);
    EXPECT_EQ(runStdioServe(manager, in, out), 0);
    std::fclose(in);

    std::fseek(out, 0, SEEK_SET);
    std::vector<std::string> lines;
    char buf[1 << 16];
    while (std::fgets(buf, sizeof(buf), out))
        lines.emplace_back(buf);
    std::fclose(out);

    ASSERT_GE(lines.size(), 5u);
    EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[0].find("\"job\":1"), std::string::npos);
    EXPECT_NE(lines[2].find("\"state\":\"done\""), std::string::npos)
        << lines[2];
    // The result line embeds the solo document verbatim.
    EXPECT_NE(lines[3].find(expected), std::string::npos);
    // Unknown commands answer ok:false with an error, not silence.
    bool sawError = false;
    for (const std::string &l : lines)
        sawError = sawError || l.find("\"ok\":false") != std::string::npos;
    EXPECT_TRUE(sawError);
}
