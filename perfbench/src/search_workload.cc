#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>

#include "checks.h"
#include "core/serialize.h"
#include "trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Direct calls per operator and repair pass in the probe. */
constexpr int kProbeCalls = 300;

/** Set-ups timed per run: every job's, plus standalone ones between
 *  jobs up to this count. Set-up time swings 2x on a shared host, and
 *  contention only adds time, so the fastest of more samples than
 *  there are jobs is reported. */
constexpr int kSetups = 21;

/** Fewest identical runs of each job seed per window (see
 *  fastestComposite). */
constexpr int kMinRepeats = 2;

/** Spec text → ready evaluation environment, minus the model or
 *  framework the caller builds inside the same timing. */
struct Setup
{
    double start = 0.0;
    ResolvedSpec r;
    std::shared_ptr<cocco::EvalCache> cache;
    int loaded = 0;
    SetupPhases phases;
    double cacheLoad = 0.0;
};

std::unique_ptr<Setup>
setUp(const std::string &text, const std::string &cacheFile)
{
    auto s = std::make_unique<Setup>();
    s->start = nowSeconds();
    std::string err;
    if (!resolveSpec(text, &s->r, &err, &s->phases))
        cocco::fatal("search spec does not resolve: %s", err.c_str());
    double t0 = nowSeconds();
    s->cache = std::make_shared<cocco::EvalCache>(s->r.spec.eval.cacheCapacity);
    s->loaded = cocco::loadEvalCache(*s->cache, cacheFile);
    if (s->loaded < 0)
        cocco::fatal("cannot load %s", cacheFile.c_str());
    s->cacheLoad = nowSeconds() - t0;
    s->r.spec.eval.cache = s->cache;
    return s;
}

/**
 * The earlier session's cache: the workload's spec at a seed derived
 * apart from every job's, run once in its own process and persisted.
 * Every run writes it anew, so it always comes from the build under
 * test.
 */
std::string
priorCacheFile(const RunConfig &cfg, const SearchWorkload &w)
{
    std::string text = cocco::strprintf(
        w.specFormat,
        static_cast<unsigned long long>(deriveSeed(cfg.seed, "prior")));
    std::string path = cachePath(cfg.workdir, std::string(w.name) + "-prior");
    runInChild([&] {
        ResolvedSpec r;
        std::string err;
        if (!resolveSpec(text, &r, &err))
            cocco::fatal("search spec does not resolve: %s", err.c_str());
        auto cache =
            std::make_shared<cocco::EvalCache>(r.spec.eval.cacheCapacity);
        r.spec.eval.cache = cache;
        makeFramework(r)->explore(r.spec);
        if (!saveCacheFile(*cache, w.priorEntries, path))
            cocco::fatal("cannot write %s", path.c_str());
    });
    return path;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** One untraced job: set-up, then CoccoFramework::explore(). */
struct Job
{
    double setup = 0.0;
    double wall = 0.0;
    std::vector<double> steps; ///< batch spans, then the tail after them
    std::optional<double> ttt;
    SearchOutcome outcome;
    std::vector<std::string> problems;
};

/** A standalone set-up (no job follows): spec text to a ready
 *  framework. */
double
timeSetup(const std::string &text, const std::string &cacheFile)
{
    std::unique_ptr<Setup> s = setUp(text, cacheFile);
    std::unique_ptr<cocco::CoccoFramework> fw = makeFramework(s->r);
    return nowSeconds() - s->start;
}

Job
runJob(const std::string &text, const std::string &cacheFile)
{
    Job j;
    std::unique_ptr<Setup> s = setUp(text, cacheFile);
    std::unique_ptr<cocco::CoccoFramework> fw = makeFramework(s->r);
    j.setup = nowSeconds() - s->start;

    SpanObserver obs;
    cocco::SearchSpec spec = s->r.spec;
    spec.eval.observer = &obs;
    obs.start();
    cocco::CoccoResult r = fw->explore(spec);
    j.wall = obs.elapsed();
    j.steps = obs.batchSeconds();
    j.steps.push_back(j.wall - sum(j.steps));

    j.outcome = outcomeOf(r);
    j.ttt = timeToTarget(obs.improvements(), r.objective);
    j.problems = checkOutcome(s->r.graph, s->r.accel, spec, j.outcome);
    if (!j.ttt)
        j.problems.push_back("no improvement reached the final best");
    return j;
}

} // namespace

void
runSearchWorkload(const RunConfig &cfg, const SearchWorkload &w, Report *out)
{
    std::string cacheFile = priorCacheFile(cfg, w);
    auto jobText = [&](uint64_t k) {
        return cocco::strprintf(w.specFormat,
                                static_cast<unsigned long long>(
                                    deriveSeed(cfg.seed, "job", k)));
    };
    if (cfg.trace) {
        traceSearchJob(cfg, jobText(0), cacheFile, out);
        runServeSession(cfg, out);
        return;
    }

    // w.seeds job seeds, each run `repeats` times in interleaved rounds,
    // so a seed's repeats lie spread over the window. Every repeat
    // starts from the same cache file and does the same work, so their
    // fastest composite filters out host contention. The job count
    // follows --seconds, not the clock, so the inputs of a run never
    // depend on how fast the host was.
    const int repeats = std::max(
        kMinRepeats, static_cast<int>(std::lround(
                         cfg.seconds / (w.jobSeconds * w.seeds))));
    const int seeds = w.seeds;
    const int jobs = seeds * repeats;
    const int extraSetups = std::max(0, kSetups - jobs);
    std::vector<double> setups, walls, ttts;
    std::vector<std::vector<std::vector<double>>> steps(seeds);
    std::vector<SearchOutcome> first(seeds);
    for (int n = 0; n < jobs; ++n) {
        const int k = n % seeds;
        for (int i = n * extraSetups / jobs; i < (n + 1) * extraSetups / jobs;
             ++i)
            setups.push_back(timeSetup(jobText(k), cacheFile));
        Job j = runJob(jobText(k), cacheFile);
        if (n < seeds) {
            first[k] = j.outcome;
        } else {
            std::string diff = compareOutcomes(j.outcome, first[k]);
            if (!diff.empty())
                j.problems.push_back("a repeat differs: " + diff);
        }
        out->job(j.problems);
        setups.push_back(j.setup);
        walls.push_back(j.wall);
        steps[k].push_back(std::move(j.steps));
        if (j.ttt)
            ttts.push_back(*j.ttt);
        std::fprintf(stderr,
                     "job %d (seed %d): setup %.4f s, wall %.3f s, target "
                     "%.3f s, objective %.10g\n",
                     n, k, j.setup, j.wall, j.ttt.value_or(NAN),
                     j.outcome.objective);
    }
    std::vector<double> composites, objectives;
    for (int k = 0; k < seeds; ++k) {
        std::optional<double> c = fastestComposite(steps[k]);
        if (!c) {
            out->invalidate(cocco::strprintf(
                "the repeats of job seed %d ran different batch counts", k));
            return;
        }
        composites.push_back(*c);
        objectives.push_back(first[k].objective);
        std::fprintf(stderr, "seed %d: fastest composite %.4f s\n", k, *c);
    }
    std::fprintf(stderr, "setups:");
    for (double s : setups)
        std::fprintf(stderr, " %.6f", s);
    std::fprintf(stderr, "\n");
    out->add("setup_s", *std::min_element(setups.begin(), setups.end()), "s",
             static_cast<int64_t>(setups.size()));
    out->add("wall_s", mean(composites), "s", jobs);
    out->add("job_wall_p50_s", median(walls), "s", jobs);
    if (!ttts.empty())
        out->add("time_to_target_s", mean(ttts), "s",
                 static_cast<int64_t>(ttts.size()));
    out->add("best_objective", geomean(objectives), "objective", seeds);
    out->add("peak_rss_mb", peakRssMb(), "MB");
}

void
traceSearchJob(const RunConfig &cfg, const std::string &specText,
               const std::string &cacheFile, Report *out)
{
    Job plain = runJob(specText, cacheFile);

    std::unique_ptr<Setup> s = setUp(specText, cacheFile);
    const cocco::SearchSpec &base = s->r.spec;
    if (s->r.deployed || base.paretoMode)
        cocco::fatal("the traced path runs single-platform, non-pareto "
                     "specs only");
    TimedCostModel model(s->r.graph, s->r.accel);
    double setup = nowSeconds() - s->start;
    cocco::DseSpace space = base.eval.coExplore
                                ? cocco::DseSpace::paperSpace(base.style)
                                : cocco::DseSpace::fixedSpace(
                                      base.fixedBuffer);
    int threads = cocco::ThreadPool::resolveThreads(base.eval.threads);

    // The path explore() takes, with the timed model and span observer.
    auto run = [&](SpanObserver *obs, double *wall) {
        cocco::SearchSpec spec = base;
        spec.eval.observer = obs;
        obs->start();
        std::unique_ptr<cocco::Searcher> searcher =
            cocco::SearcherRegistry::instance().make(spec.algo, model, space,
                                                     spec);
        cocco::SearchResult r = searcher->run();
        *wall = obs->elapsed();
        return r;
    };
    SpanObserver obs(&model);
    double wall = 0.0;
    SimCounters sim0 = model.counters();
    cocco::SearchResult traced = run(&obs, &wall);
    SimCounters sim = model.counters() - sim0;

    // Replay: the same seed over the now-warm cache, so every sample
    // hits and only operators, structural repair, hashing and lookups
    // remain.
    SpanObserver replayObs(&model);
    double replayWall = 0.0;
    cocco::SearchResult replay = run(&replayObs, &replayWall);

    std::vector<std::string> problems =
        checkOutcome(s->r.graph, s->r.accel, base, outcomeOf(traced));
    std::string diff = compareOutcomes(outcomeOf(traced), plain.outcome);
    if (!diff.empty())
        problems.push_back("traced run differs from untraced: " + diff);
    diff = compareOutcomes(outcomeOf(replay), plain.outcome);
    if (!diff.empty())
        problems.push_back("replay differs from untraced: " + diff);
    out->job(plain.problems);
    out->job(problems);

    const std::vector<double> &batches = obs.batchSeconds();
    SpanTotals tot;
    tot.threads = threads;
    tot.runWall = wall;
    tot.batchWall = sum(batches);
    tot.simInBatches = obs.simInBatches();
    tot.simTotal = static_cast<double>(sim.topNs) * 1e-9;
    double reconcile = reconcileShare(tot);
    if (std::fabs(reconcile - 1.0) > 0.1)
        out->invalidate(cocco::strprintf(
            "traced spans cover %.3f of the run's thread-time", reconcile));

    const cocco::EvalCacheStats &c = traced.cacheStats;
    double samples = static_cast<double>(traced.samples);
    out->add("core.spec_parse_s", s->phases.parse, "s");
    out->add("core.resolve_s", s->phases.resolve, "s");
    out->add("core.cache_load_s", s->cacheLoad, "s");
    out->add("core.cache_load_entries", s->loaded, "count");
    out->add("core.setup_s", setup, "s");

    if (plain.ttt)
        out->add("search.time_to_target_s", *plain.ttt, "s");
    out->add("search.samples", samples, "count");
    out->add("search.evals_unique", c.misses, "count");
    out->add("search.unique_ratio", c.misses / samples, "ratio");
    int64_t nb = static_cast<int64_t>(batches.size());
    out->add("search.batches", nb, "count");
    out->addPercentiles("search.batch_s", batches, "s");
    out->add("search.self_s", searchSelfSeconds(tot), "s");
    out->add("search.replay_s", replayWall, "s");
    out->add("search.replay_misses", replay.cacheStats.misses, "count");
    out->add("search.miss_eval_s", wall - replayWall, "s");
    out->add("search.crossovers", traced.deltaStats.rewrites, "count");
    out->add("search.delta_nodes", traced.deltaStats.nodesTouched, "count");
    out->add("search.hw_only", traced.deltaStats.hwOnly, "count");

    out->add("search.cache.genome_hits", c.hits, "count");
    out->add("search.cache.genome_misses", c.misses, "count");
    out->add("search.cache.genome_hit_ratio", c.hitRate(), "ratio");
    out->add("search.cache.block_hits", c.blockHits, "count");
    out->add("search.cache.block_misses", c.blockMisses, "count");
    out->add("search.cache.block_hit_ratio", c.blockHitRate(), "ratio");
    out->add("search.cache.entries", c.entries, "count");
    out->add("search.cache.evictions", c.evictions, "count");

    static const char *const kSimNames[kSimCalls] = {
        "sim.fits", "sim.partition_cost", "sim.subgraph_cost", "sim.bound"};
    for (int i = 0; i < kSimCalls; ++i) {
        out->add(std::string(kSimNames[i]) + "_calls",
                 static_cast<double>(sim.calls[i]), "count");
        out->add(std::string(kSimNames[i]) + "_s", sim.ns[i] * 1e-9, "s");
    }
    out->add("sim.total_s", tot.simTotal, "s");
    out->add("sim.thread_share", tot.simTotal / (threads * wall), "ratio");
    out->add("sim.profiles", static_cast<double>(model.cacheSize()), "count");
    cocco::CostPruneStats prune = model.pruneStats();
    out->add("sim.fits_short_circuits", prune.fitsShortCircuits, "count");
    out->add("sim.schemes_pruned", prune.schemesPruned, "count");

    out->add("trace.untraced_wall_s", plain.wall, "s");
    out->add("trace.wall_s", wall, "s");
    out->add("trace.overhead_share", wall / plain.wall - 1.0, "ratio");
    out->add("trace.reconcile_share", reconcile, "ratio");

    runProbe(s->r, deriveSeed(cfg.seed, "probe"), kProbeCalls, out);
}

} // namespace perfbench
