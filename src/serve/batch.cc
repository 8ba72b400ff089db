#include "serve/batch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>

#include "core/serialize.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/logging.h"

namespace cocco {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** The run specs in @p dir: every *.json that is not one of our own
 *  output artifacts, sorted for a deterministic submission order. */
std::vector<std::string>
listSpecs(const std::string &dir, std::string *err)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d) {
        *err = dir + ": cannot open directory";
        return {};
    }
    std::vector<std::string> specs;
    while (dirent *ent = ::readdir(d)) {
        std::string name = ent->d_name;
        if (!endsWith(name, ".json"))
            continue;
        if (endsWith(name, ".metrics.json") ||
            endsWith(name, ".result.json") || name == "batch_summary.json")
            continue;
        specs.push_back(name);
    }
    ::closedir(d);
    std::sort(specs.begin(), specs.end());
    return specs;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

std::string
summaryJson(const BatchSummary &s)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", 1);
    w.field("generator", "cocco-batch");
    w.field("total", static_cast<int64_t>(s.entries.size()));
    w.field("done", s.done);
    w.field("cancelled", s.cancelled);
    w.field("failed", s.failed);
    w.field("interrupted", s.interrupted);
    w.field("wall_seconds", s.wallSeconds);
    w.field("jobs_wall_seconds", s.jobsWallSeconds);
    w.field("samples_total", s.samplesTotal);
    w.key("cache").beginObject();
    w.field("hits", s.cache.hits);
    w.field("misses", s.cache.misses);
    w.field("hit_rate", s.cache.hitRate());
    w.field("entries", s.cache.entries);
    w.endObject();
    w.key("jobs").beginArray();
    for (const BatchEntry &e : s.entries) {
        w.beginObject();
        w.field("spec", e.specFile);
        w.field("job", e.job);
        w.field("state", e.state);
        w.field("samples", e.samples);
        w.field("best_cost", e.bestCost);
        w.field("wall_seconds", e.wallSeconds);
        if (!e.error.empty())
            w.field("error", e.error);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace

bool
runBatchDir(const std::string &dir, const BatchOptions &opts,
            BatchSummary *out, std::string *err)
{
    auto t0 = std::chrono::steady_clock::now();
    *out = BatchSummary{};

    std::vector<std::string> specs = listSpecs(dir, err);
    if (specs.empty()) {
        if (err->empty())
            *err = dir + ": no run specs (*.json) found";
        return false;
    }

    std::string outDir = opts.outDir.empty() ? dir : opts.outDir;
    ::mkdir(outDir.c_str(), 0777); // may already exist; write errors
                                   // below catch a real failure

    JobManagerOptions mopts;
    mopts.workers = std::max(1, opts.jobs);
    mopts.threadBudget = opts.threadBudget;
    mopts.queueCapacity = static_cast<int>(specs.size());
    mopts.cacheEnabled = opts.cacheEnabled;
    mopts.cacheCapacity = opts.cacheCapacity;
    JobManager manager(mopts);

    if (!opts.cacheFile.empty() && manager.cache()) {
        std::string why;
        int loaded = loadEvalCache(*manager.cache(), opts.cacheFile, &why);
        if (loaded >= 0)
            std::fprintf(stderr, "batch: warm cache: %d entries from %s\n",
                         loaded, opts.cacheFile.c_str());
        else
            std::fprintf(stderr, "batch: starting cold: %s\n", why.c_str());
    }

    // Submit everything up front (the queue is sized to fit); parse
    // and admission failures become failed entries, not batch errors.
    struct Slot
    {
        std::string specFile;
        std::string stem;
        int64_t job = 0;
        std::string error;
    };
    std::vector<Slot> slots;
    for (const std::string &name : specs) {
        Slot slot;
        slot.specFile = name;
        slot.stem = name.substr(0, name.size() - 5); // strip ".json"
        JsonValue doc;
        SearchSpec spec;
        std::string perr;
        if (!loadJsonFile(dir + "/" + name, &doc, &perr) ||
            !parseRunSpec(doc, &spec, &perr)) {
            slot.error = perr;
        } else {
            int64_t id = manager.submit(spec, slot.stem, &perr);
            if (id < 0)
                slot.error = perr;
            else
                slot.job = id;
        }
        slots.push_back(std::move(slot));
    }

    // Poll to completion; the first interrupt cancels everything
    // still active (cooperative — workers stop at the next batch
    // boundary and keep their partial incumbents).
    std::vector<size_t> cursors(slots.size(), 0);
    bool cancelledAll = false;
    for (;;) {
        if (opts.interrupt && !cancelledAll &&
            opts.interrupt->load(std::memory_order_relaxed)) {
            std::fprintf(stderr,
                         "batch: interrupt: cancelling %zu spec(s)\n",
                         slots.size());
            manager.cancelAll();
            cancelledAll = true;
            out->interrupted = true;
        }
        if (opts.progress) {
            for (size_t i = 0; i < slots.size(); ++i) {
                if (!slots[i].job)
                    continue;
                for (const JobEvent &e :
                     manager.eventsSince(slots[i].job, &cursors[i]))
                    std::fprintf(stderr, "%s\n",
                                 encodeJobEvent(e).c_str());
            }
            std::fflush(stderr);
        }
        bool allDone = true;
        for (const Slot &slot : slots)
            if (slot.job &&
                !jobStateTerminal(manager.status(slot.job).state))
                allDone = false;
        if (allDone)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    manager.drain();

    bool ok = true;
    for (const Slot &slot : slots) {
        BatchEntry e;
        e.specFile = slot.specFile;
        e.job = slot.job;
        if (!slot.job) {
            e.state = "failed";
            e.error = slot.error;
            ++out->failed;
        } else {
            JobStatus s = manager.status(slot.job);
            e.state = jobStateName(s.state);
            e.samples = s.progressSamples;
            e.bestCost = s.progressBest;
            e.wallSeconds = s.runSeconds;
            e.error = s.error;
            out->jobsWallSeconds += e.wallSeconds;
            out->samplesTotal += e.samples;
            switch (s.state) {
              case JobState::Done:
                ++out->done;
                break;
              case JobState::Cancelled:
                ++out->cancelled;
                break;
              default:
                ++out->failed;
                break;
            }
            std::string metrics = manager.metricsJson(slot.job);
            std::string result = manager.resultJson(slot.job);
            if (!metrics.empty() &&
                !writeTextFile(outDir + "/" + slot.stem + ".metrics.json",
                               metrics)) {
                *err = outDir + ": cannot write metrics for " +
                       slot.specFile;
                ok = false;
            }
            if (!result.empty() &&
                !writeTextFile(outDir + "/" + slot.stem + ".result.json",
                               result)) {
                *err = outDir + ": cannot write result for " +
                       slot.specFile;
                ok = false;
            }
        }
        out->entries.push_back(std::move(e));
    }

    out->cache = manager.cacheStats();
    out->wallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    if (!writeTextFile(outDir + "/batch_summary.json",
                       summaryJson(*out))) {
        *err = outDir + ": cannot write batch_summary.json";
        ok = false;
    }

    if (!opts.cacheFile.empty() && manager.cache()) {
        if (saveEvalCache(*manager.cache(), opts.cacheFile))
            std::fprintf(stderr, "batch: saved cache to %s\n",
                         opts.cacheFile.c_str());
        else
            std::fprintf(stderr, "batch: could not write %s\n",
                         opts.cacheFile.c_str());
    }
    return ok;
}

} // namespace cocco
