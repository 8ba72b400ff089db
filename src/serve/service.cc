#include "serve/service.h"

#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** A reply line whose only payload is an error message. */
std::string
errorJson(const std::string &message)
{
    JsonWriter w;
    w.beginObject();
    w.field("ok", false);
    w.field("error", message);
    w.endObject();
    return w.str();
}

/** "/jobs/<id>[/<tail>]" -> id + tail ("" when absent). */
bool
parseJobPath(const std::string &path, int64_t *id, std::string *tail)
{
    const std::string prefix = "/jobs/";
    if (path.compare(0, prefix.size(), prefix) != 0)
        return false;
    size_t pos = prefix.size();
    size_t slash = path.find('/', pos);
    std::string num = path.substr(pos, slash == std::string::npos
                                           ? std::string::npos
                                           : slash - pos);
    if (num.empty() ||
        num.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *id = std::strtoll(num.c_str(), nullptr, 10);
    *tail = slash == std::string::npos ? "" : path.substr(slash + 1);
    return true;
}

} // namespace

std::string
jobStatusJson(const JobStatus &s)
{
    JsonWriter w;
    w.beginObject();
    w.field("id", s.id);
    w.field("tenant", s.tenant);
    w.field("name", s.name);
    w.field("model", s.model);
    w.field("state", jobStateName(s.state));
    w.field("threads", s.threads);
    w.field("samples", s.progressSamples);
    w.field("best", s.progressBest);
    w.field("queued_seconds", s.queuedSeconds);
    w.field("run_seconds", s.runSeconds);
    if (!s.error.empty())
        w.field("error", s.error);
    w.endObject();
    return w.str();
}

HttpResponse
serveHttpRequest(JobManager &manager, const HttpRequest &req,
                 std::atomic<bool> *shutdownFlag)
{
    HttpResponse res;

    if (req.path == "/healthz" && req.method == "GET") {
        JsonWriter w;
        w.beginObject();
        w.field("status", "ok");
        w.field("jobs", static_cast<int64_t>(manager.jobs().size()));
        w.field("cache_hit_rate", manager.cacheStats().hitRate());
        w.endObject();
        res.body = w.str();
        return res;
    }

    if (req.path == "/shutdown" && req.method == "POST") {
        if (!shutdownFlag) {
            res.status = 405;
            res.body = errorJson("shutdown is disabled");
            return res;
        }
        shutdownFlag->store(true, std::memory_order_relaxed);
        res.body = "{\"ok\":true,\"shutdown\":true}";
        return res;
    }

    if (req.path == "/jobs" && req.method == "POST") {
        SearchSpec spec;
        std::string err;
        if (!parseRunSpecText(req.body, &spec, &err)) {
            res.status = 400;
            res.body = errorJson(err);
            return res;
        }
        int64_t id = manager.submit(spec, req.header("x-tenant"), &err);
        if (id < 0) {
            res.status =
                err.find("full") != std::string::npos ? 429 : 400;
            res.body = errorJson(err);
            return res;
        }
        res.status = 202;
        res.body = strprintf("{\"ok\":true,\"job\":%lld}",
                             static_cast<long long>(id));
        return res;
    }

    if (req.path == "/jobs" && req.method == "GET") {
        std::string body = "[";
        bool first = true;
        for (const JobStatus &s : manager.jobs()) {
            if (!first)
                body += ",";
            body += jobStatusJson(s);
            first = false;
        }
        body += "]";
        res.body = body;
        return res;
    }

    int64_t id = 0;
    std::string tail;
    if (parseJobPath(req.path, &id, &tail)) {
        JobStatus s = manager.status(id);
        if (s.id == 0) {
            res.status = 404;
            res.body = errorJson(strprintf("unknown job %lld",
                                           static_cast<long long>(id)));
            return res;
        }
        if (tail.empty() && req.method == "GET") {
            res.body = jobStatusJson(s);
            return res;
        }
        if (tail == "cancel" && req.method == "POST") {
            bool did = manager.cancel(id);
            res.body = strprintf("{\"ok\":true,\"cancelled\":%s}",
                                 did ? "true" : "false");
            return res;
        }
        if (tail == "result" && req.method == "GET") {
            std::string doc = manager.resultJson(id);
            if (doc.empty()) {
                res.status = 409;
                res.body = jobStatusJson(s);
                return res;
            }
            res.body = doc;
            return res;
        }
        if (tail == "metrics" && req.method == "GET") {
            std::string doc = manager.metricsJson(id);
            if (doc.empty()) {
                res.status = 409;
                res.body = jobStatusJson(s);
                return res;
            }
            res.body = doc;
            return res;
        }
        if (tail == "events" && req.method == "GET") {
            res.contentType = "application/x-ndjson";
            res.streamer =
                [&manager,
                 id](const std::function<bool(const std::string &)> &write) {
                    size_t cursor = 0;
                    for (;;) {
                        std::vector<JobEvent> events =
                            manager.eventsSince(id, &cursor, 0.25);
                        for (const JobEvent &e : events)
                            if (!write(encodeJobEvent(e) + "\n"))
                                return;
                        if (events.empty() &&
                            jobStateTerminal(manager.status(id).state))
                            return;
                    }
                };
            return res;
        }
    }

    res.status = 404;
    res.body = errorJson("no such endpoint: " + req.method + " " +
                         req.path);
    return res;
}

namespace {

/** Shared-output guard for the stdio protocol: reply lines (main
 *  loop) and streamed event lines (pump threads) interleave on one
 *  FILE*, so every line goes out under the mutex in one fprintf. */
struct StdioOut
{
    std::FILE *out;
    std::mutex mu;

    void line(const std::string &s)
    {
        std::lock_guard<std::mutex> lk(mu);
        std::fprintf(out, "%s\n", s.c_str());
        std::fflush(out);
    }
};

} // namespace

int
runStdioServe(JobManager &manager, std::FILE *in, std::FILE *out)
{
    StdioOut io{out, {}};
    std::vector<std::thread> pumps;

    auto pumpEvents = [&manager, &io](int64_t id) {
        size_t cursor = 0;
        for (;;) {
            std::vector<JobEvent> events =
                manager.eventsSince(id, &cursor, 0.25);
            for (const JobEvent &e : events)
                io.line(encodeJobEvent(e));
            if (events.empty() &&
                jobStateTerminal(manager.status(id).state))
                return;
        }
    };

    char *lineBuf = nullptr;
    size_t lineCap = 0;
    bool shutdown = false;
    while (!shutdown && ::getline(&lineBuf, &lineCap, in) != -1) {
        std::string line(lineBuf);
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r'))
            line.pop_back();
        if (line.empty())
            continue;

        JsonValue doc;
        std::string err;
        if (!parseJson(line, &doc, &err) || !doc.isObject()) {
            io.line(errorJson(err.empty() ? "request is not an object"
                                          : err));
            continue;
        }
        const JsonValue *cmd = doc.find("cmd");
        if (!cmd || !cmd->isString()) {
            io.line(errorJson("missing \"cmd\""));
            continue;
        }
        const JsonValue *jobField = doc.find("job");
        int64_t id =
            jobField && jobField->isNumber() ? jobField->integer() : 0;

        if (cmd->str() == "submit") {
            const JsonValue *specDoc = doc.find("spec");
            if (!specDoc || !specDoc->isObject()) {
                io.line(errorJson("submit needs a \"spec\" object"));
                continue;
            }
            SearchSpec spec;
            if (!parseRunSpec(*specDoc, &spec, &err)) {
                io.line(errorJson(err));
                continue;
            }
            const JsonValue *tenant = doc.find("tenant");
            int64_t newId = manager.submit(
                spec, tenant && tenant->isString() ? tenant->str() : "",
                &err);
            if (newId < 0) {
                io.line(errorJson(err));
                continue;
            }
            io.line(strprintf("{\"ok\":true,\"job\":%lld}",
                              static_cast<long long>(newId)));
            const JsonValue *stream = doc.find("stream");
            if (stream && stream->isBool() && stream->boolean())
                pumps.emplace_back(pumpEvents, newId);
        } else if (cmd->str() == "status") {
            JobStatus s = manager.status(id);
            if (s.id == 0)
                io.line(errorJson("unknown job"));
            else
                io.line("{\"ok\":true,\"status\":" + jobStatusJson(s) +
                        "}");
        } else if (cmd->str() == "jobs") {
            std::string body = "{\"ok\":true,\"jobs\":[";
            bool first = true;
            for (const JobStatus &s : manager.jobs()) {
                if (!first)
                    body += ",";
                body += jobStatusJson(s);
                first = false;
            }
            io.line(body + "]}");
        } else if (cmd->str() == "cancel") {
            bool did = manager.cancel(id);
            io.line(strprintf("{\"ok\":true,\"cancelled\":%s}",
                              did ? "true" : "false"));
        } else if (cmd->str() == "wait") {
            const JsonValue *timeout = doc.find("timeout");
            manager.wait(id, timeout && timeout->isNumber()
                                 ? timeout->number()
                                 : 0.0);
            JobStatus s = manager.status(id);
            if (s.id == 0)
                io.line(errorJson("unknown job"));
            else
                io.line("{\"ok\":true,\"status\":" + jobStatusJson(s) +
                        "}");
        } else if (cmd->str() == "result") {
            std::string docStr = manager.resultJson(id);
            if (docStr.empty())
                io.line(errorJson("job has no result (yet)"));
            else
                io.line(strprintf("{\"ok\":true,\"job\":%lld,\"result\":",
                                  static_cast<long long>(id)) +
                        docStr + "}");
        } else if (cmd->str() == "metrics") {
            std::string docStr = manager.metricsJson(id);
            if (docStr.empty()) {
                io.line(errorJson("job has no metrics (yet)"));
                continue;
            }
            const JsonValue *outPath = doc.find("out");
            if (outPath && outPath->isString()) {
                std::FILE *f = std::fopen(outPath->str().c_str(), "w");
                if (!f) {
                    io.line(errorJson("cannot write " + outPath->str()));
                    continue;
                }
                std::fprintf(f, "%s\n", docStr.c_str());
                std::fclose(f);
                io.line(strprintf("{\"ok\":true,\"job\":%lld,\"out\":",
                                  static_cast<long long>(id)) +
                        "\"" + outPath->str() + "\"}");
            } else {
                io.line(
                    strprintf("{\"ok\":true,\"job\":%lld,\"metrics\":",
                              static_cast<long long>(id)) +
                    docStr + "}");
            }
        } else if (cmd->str() == "shutdown") {
            manager.cancelAll();
            io.line("{\"ok\":true,\"shutdown\":true}");
            shutdown = true;
        } else {
            io.line(errorJson("unknown cmd \"" + cmd->str() + "\""));
        }
    }
    std::free(lineBuf);

    manager.cancelAll();
    manager.drain();
    for (std::thread &t : pumps)
        t.join();
    return 0;
}

} // namespace cocco
