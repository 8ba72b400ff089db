/**
 * @file
 * Pieces every workload shares: the run configuration, seed
 * derivation, clocks, peak memory, and the one path from spec text to
 * a ready evaluation environment (the path `cocco run` and the serve
 * workers take).
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/cocco.h"
#include "sim/deployment.h"
#include "stats.h"

namespace perfbench {

/** One benchmark invocation. */
struct RunConfig
{
    uint64_t seed = 1;
    int seconds = 20;   ///< length of the timed window
    bool trace = false; ///< per-layer run instead of end-to-end
    std::string workdir; ///< scratch files (earlier-session caches)
};

/** An input seed derived from the run seed, a purpose tag and an
 *  index; 31 bits so it stays exact in a JSON spec. */
uint64_t deriveSeed(uint64_t seed, const std::string &tag,
                    uint64_t index = 0);

/** Steady-clock seconds (arbitrary origin). */
double nowSeconds();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Run @p fn in a forked child process and wait for it (fatal when it
 * fails), so work done before the timed window, such as an earlier
 * session, stays out of this process's peak memory. Call it while the
 * process has no other threads.
 */
void runInChild(const std::function<void()> &fn);

/** Seconds spent in each set-up phase. */
struct SetupPhases
{
    double parse = 0.0;
    double resolve = 0.0;
};

/** A parsed and resolved run spec. Not movable: frameworks built
 *  from it keep a reference to its graph. */
struct ResolvedSpec
{
    ResolvedSpec() = default;
    ResolvedSpec(const ResolvedSpec &) = delete;
    ResolvedSpec &operator=(const ResolvedSpec &) = delete;

    cocco::SearchSpec spec;
    cocco::Graph graph;
    cocco::AcceleratorConfig accel;
    bool deployed = false;
    cocco::DeploymentConfig deployment; ///< when deployed
};

/** Parse @p text as `cocco run --spec` does and resolve its workload,
 *  platform and deployment. @return false with *err set. */
bool resolveSpec(const std::string &text, ResolvedSpec *out,
                 std::string *err, SetupPhases *phases = nullptr);

/** The evaluation environment a serve worker would build for @p r. */
std::unique_ptr<cocco::CoccoFramework> makeFramework(const ResolvedSpec &r);

/** @p dir/@p name.evalcache. */
std::string cachePath(const std::string &dir, const std::string &name);

/**
 * Write the @p maxEntries genome entries of @p cache with the lowest
 * key hashes to @p path atomically, so the file's size does not depend
 * on how many distinct genomes the run that filled @p cache happened
 * to evaluate.
 */
bool saveCacheFile(const cocco::EvalCache &cache, size_t maxEntries,
                   const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
