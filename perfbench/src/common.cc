#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/serialize.h"
#include "serve/service.h"
#include "util/hash.h"
#include "util/logging.h"

namespace perfbench {

uint64_t
deriveSeed(uint64_t seed, const std::string &tag, uint64_t index)
{
    uint64_t h = cocco::hashU64(cocco::kHashSeed, seed);
    h = cocco::hashString(h, tag);
    h = cocco::hashU64(h, index);
    return cocco::hashFinalize(h) & 0x7fffffffULL;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
runInChild(const std::function<void()> &fn)
{
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        cocco::fatal("cannot fork");
    if (pid == 0) {
        fn();
        std::fflush(nullptr);
        _exit(0);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        cocco::fatal("the child process failed");
}

bool
resolveSpec(const std::string &text, ResolvedSpec *out, std::string *err,
            SetupPhases *phases)
{
    double t0 = nowSeconds();
    if (!cocco::parseRunSpecText(text, &out->spec, err))
        return false;
    double t1 = nowSeconds();
    const cocco::SearchSpec &spec = out->spec;
    if (!cocco::resolveWorkload(spec.workload, &out->graph, err) ||
        !cocco::resolvePlatform(spec.platform, &out->accel, err))
        return false;
    // The batch override and deployment resolution of JobManager's
    // worker (and `cocco run`), so solo results match served ones.
    if (spec.workload.params.batch > 0)
        out->accel.batch = spec.workload.params.batch;
    out->deployed = spec.deployment.enabled;
    if (out->deployed) {
        if (!cocco::resolveDeployment(spec.deployment, out->accel,
                                      &out->deployment, err))
            return false;
        if (spec.workload.params.batch > 0)
            for (cocco::AcceleratorConfig &core :
                 out->deployment.coreConfigs)
                core.batch = spec.workload.params.batch;
    }
    if (phases) {
        phases->parse = t1 - t0;
        phases->resolve = nowSeconds() - t1;
    }
    return true;
}

std::unique_ptr<cocco::CoccoFramework>
makeFramework(const ResolvedSpec &r)
{
    if (r.deployed)
        return std::make_unique<cocco::CoccoFramework>(r.graph,
                                                       r.deployment);
    return std::make_unique<cocco::CoccoFramework>(r.graph, r.accel);
}

std::string
cachePath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".evalcache";
}

bool
saveCacheFile(const cocco::EvalCache &cache, size_t maxEntries,
              const std::string &path)
{
    using Entry = cocco::EvalCache::Entry;
    std::vector<Entry> entries;
    cache.forEachEntry([&](const Entry &e) { entries.push_back(e); });
    auto lower = [](const Entry &a, const Entry &b) {
        return std::tie(a.hash, a.salt) < std::tie(b.hash, b.salt);
    };
    std::sort(entries.begin(), entries.end(), lower);
    if (entries.size() > maxEntries)
        entries.resize(maxEntries);
    cocco::EvalCache kept(std::max<size_t>(1, entries.size()), 1);
    for (Entry &e : entries)
        kept.insertEntry(std::move(e));
    std::string tmp = path + ".tmp";
    return cocco::saveEvalCache(kept, tmp) &&
           std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace perfbench
