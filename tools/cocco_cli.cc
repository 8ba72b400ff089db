/**
 * @file
 * cocco — command-line driver for the library.
 *
 * Subcommands:
 *   models                          list built-in models (with knobs)
 *   describe  <model>               print the graph summary
 *   describe-model <model>          registry metadata + parameters
 *   export-model <model>            Graph JSON to stdout
 *   dot       <model> [--runs L]    DOT export (optionally partitioned)
 *   partition <model> --algo A      run one partitioner and report costs
 *             (A = greedy | dp | enum | any registered search driver)
 *   coexplore <model> [--style s]   hardware-mapping co-exploration
 *             (s = shared | separate; --algo picks the driver)
 *   run       --spec FILE           declarative JSON run spec (schema
 *                                   in the README)
 *   coschedule --spec FILE          multi-tenant co-scheduling: the
 *                                   spec's "workload_set" tenants
 *                                   jointly placed on one deployment
 *                                   (`run` takes the same documents)
 *   validate-metrics FILE           check a --metrics-out document
 * Listing: --list-algos (search drivers), --list-models,
 *          --list-platforms (accelerator presets).
 * Workload/platform flags (everywhere a <model> is accepted):
 *   --model-file F   use an imported Graph JSON workload instead of
 *                    a registry model name
 *   --model-seed N   RandWire wiring seed (deterministic per seed)
 *   --platform NAME / --platform-file F
 *                    accelerator preset or platform JSON (default
 *                    preset: simba)
 * Deployment flags (partition / coexplore; `run` takes the spec's
 * "deployment" section instead):
 *   --cores N        scale out over N crossbar-connected cores of the
 *                    run's platform (N = 1 is exactly the plain run)
 *   --deployment NAME / --deployment-file F
 *                    deployment preset or deployment JSON
 *   --list-deployments / describe-deployment NAME
 *                    registry listing / one preset's description
 * Common flags: --samples N, --alpha F, --metric ema|energy, --seed N,
 *               --threads N (parallel evaluation; 0 = all cores),
 *               --neighbor-batch N (SA speculative neighbors),
 *               --time-limit SEC, --stall-limit N (early stop),
 *               --timeline (render the result's Gantt chart, with
 *               per-core lanes on a deployment),
 *               --json (machine-readable output),
 *               --cache-size N (evaluation-cache entries; 0 disables),
 *               --cache-file F (persist/warm-start the cache),
 *               --metrics-out F (write a JSON run-metrics report)
 *
 * The search subcommands all dispatch through the SearcherRegistry,
 * workloads through the ModelRegistry (or Graph JSON import),
 * platforms through the PlatformRegistry (or platform JSON), and
 * scale-out through the DeploymentRegistry (or deployment JSON), so
 * new strategies, models, and presets registered at startup are
 * first-class citizens of every mode.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/cocco.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "schedule/co_scheduler.h"
#include "serve/batch.h"
#include "serve/events.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "graph/dot.h"
#include "graph/graph_json.h"
#include "graph/stats.h"
#include "partition/dp.h"
#include "partition/enumeration.h"
#include "partition/greedy.h"
#include "sim/timeline.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

using namespace cocco;

namespace {

struct CliArgs
{
    std::string command;
    std::string model;
    std::string modelFile;    ///< Graph JSON workload ("" = registry)
    uint64_t modelSeed = 1;   ///< RandWire wiring seed
    std::string platform;     ///< accelerator preset ("" = simba)
    std::string platformFile; ///< platform JSON ("" = preset)
    int cores = 0;            ///< scale-out width (0 = no deployment)
    std::string deployment;     ///< deployment preset ("" = none)
    std::string deploymentFile; ///< deployment JSON ("" = none)
    bool timeline = false;      ///< render the result's Gantt chart
    std::string algo = "ga";
    std::string style = "shared";
    int64_t samples = 5000;
    double alpha = 0.002;
    Metric metric = Metric::Energy;
    uint64_t seed = 1;
    bool json = false;
    int runs = 0;
    int threads = 1;
    int neighborBatch = 1;  ///< SA speculative neighbors per round
    double timeLimitSec = 0.0;
    int64_t stallLimit = 0;
    int64_t cacheSize =
        static_cast<int64_t>(EvalCache::kDefaultCapacity); ///< 0 = off
    bool pruning = true;    ///< --no-prune clears (bit-identical runs)
    std::string cacheFile;  ///< warm-start / persist path ("" = none)
    std::string metricsOut; ///< JSON metrics path ("" = none)
    std::string specFile;   ///< declarative run spec ("" = none)
    bool progress = false;  ///< NDJSON progress events on stderr
    std::string checkpointFile; ///< search checkpoint path ("" = none)
    bool deterministicRace = false; ///< pin portfolio culls to eval counts
    std::string frontierOut; ///< pareto frontier CSV path ("" = none)
    bool stdio = false;     ///< serve: NDJSON over stdin/stdout
    int port = -1;          ///< serve: HTTP port (0 = ephemeral)
    int serveWorkers = 2;   ///< serve: concurrently running jobs
    int serveQueue = 64;    ///< serve: max queued jobs
    int jobs = 2;           ///< batch: concurrently running specs
    std::string outDir;     ///< batch: output directory ("" = spec dir)
};

/** SIGINT latch for `run` / `batch` / `serve`: the first interrupt
 *  requests a cooperative stop (drivers cancel at the next batch
 *  boundary, partial metrics and checkpoints still flush); a second
 *  interrupt hard-exits — the escape hatch when a run is stuck. */
std::atomic<bool> g_interrupted{false};

extern "C" void
onSigint(int)
{
    if (g_interrupted.exchange(true))
        std::_Exit(130);
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: cocco <command> [args]\n"
        "  models | --list-models\n"
        "  --list-algos | --list-platforms | --list-deployments\n"
        "  describe  <model>\n"
        "  describe-model <model>\n"
        "  describe-deployment <name>\n"
        "  export-model <model>\n"
        "  timeline  <model>\n"
        "  dot       <model> [--runs L]\n"
        "  partition <model> --algo greedy|dp|enum|<search driver>\n"
        "  coexplore <model> [--style shared|separate] [--algo DRIVER]\n"
        "  run       --spec FILE [--progress] [--checkpoint F]\n"
        "            [--deterministic-race] [--frontier-out F]\n"
        "  coschedule --spec FILE [--progress]  (workload_set specs)\n"
        "  batch     <dir> [--jobs N] [--out DIR] [--progress]\n"
        "  serve     --port N | --stdio  [--serve-workers N] "
        "[--serve-queue N]\n"
        "  validate-metrics FILE\n"
        "workload/platform: --model-file F --model-seed N\n"
        "       --platform NAME --platform-file F\n"
        "deployment: --cores N --deployment NAME --deployment-file F\n"
        "flags: --samples N --alpha F --metric ema|energy --seed N "
        "--threads N --json\n"
        "       --neighbor-batch N --time-limit SEC --stall-limit N\n"
        "       --timeline --cache-size N --cache-file F "
        "--metrics-out F\n"
        "       --no-prune (disable bound-based pruning; results are\n"
        "                   bit-identical, only slower)\n");
    std::exit(2);
}

CliArgs
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    CliArgs a;
    a.command = argv[1];
    int i = 2;
    // The positional workload/file argument; optional, since
    // --model-file can address the workload instead.
    if (a.command != "models" && a.command != "run" &&
        a.command[0] != '-' && i < argc && argv[i][0] != '-')
        a.model = argv[i++];
    for (; i < argc; ++i) {
        std::string f = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (f == "--algo")
            a.algo = next();
        else if (f == "--model-file")
            a.modelFile = next();
        else if (f == "--model-seed")
            a.modelSeed = std::strtoull(next(), nullptr, 10);
        else if (f == "--platform")
            a.platform = next();
        else if (f == "--platform-file")
            a.platformFile = next();
        else if (f == "--cores") {
            // Strict: a zero/negative/garbage count silently meaning
            // "no deployment" would fake a scale-out experiment.
            const char *v = next();
            a.cores = std::atoi(v);
            if (a.cores < 1)
                fatal("--cores must be a positive integer (got '%s')",
                      v);
        }
        else if (f == "--deployment")
            a.deployment = next();
        else if (f == "--deployment-file")
            a.deploymentFile = next();
        else if (f == "--timeline")
            a.timeline = true;
        else if (f == "--style") {
            a.style = next();
            if (a.style != "shared" && a.style != "separate")
                usage();
        }
        else if (f == "--samples")
            a.samples = std::atoll(next());
        else if (f == "--alpha")
            a.alpha = std::atof(next());
        else if (f == "--seed")
            a.seed = std::strtoull(next(), nullptr, 10);
        else if (f == "--runs")
            a.runs = std::atoi(next());
        else if (f == "--threads")
            a.threads = std::atoi(next());
        else if (f == "--neighbor-batch")
            a.neighborBatch = std::atoi(next());
        else if (f == "--time-limit")
            a.timeLimitSec = std::atof(next());
        else if (f == "--stall-limit")
            a.stallLimit = std::atoll(next());
        else if (f == "--cache-size")
            a.cacheSize = std::atoll(next());
        else if (f == "--cache-file")
            a.cacheFile = next();
        else if (f == "--metrics-out")
            a.metricsOut = next();
        else if (f == "--spec")
            a.specFile = next();
        else if (f == "--progress")
            a.progress = true;
        else if (f == "--checkpoint")
            a.checkpointFile = next();
        else if (f == "--deterministic-race")
            a.deterministicRace = true;
        else if (f == "--frontier-out")
            a.frontierOut = next();
        else if (f == "--stdio")
            a.stdio = true;
        else if (f == "--port")
            a.port = std::atoi(next());
        else if (f == "--serve-workers")
            a.serveWorkers = std::atoi(next());
        else if (f == "--serve-queue")
            a.serveQueue = std::atoi(next());
        else if (f == "--jobs")
            a.jobs = std::atoi(next());
        else if (f == "--out")
            a.outDir = next();
        else if (f == "--metric") {
            const std::string m = next();
            if (m == "ema")
                a.metric = Metric::EMA;
            else if (m == "energy")
                a.metric = Metric::Energy;
            else
                usage();
        }
        else if (f == "--json")
            a.json = true;
        else if (f == "--no-prune")
            a.pruning = false;
        else
            usage();
    }
    return a;
}

/** The workload addressed by the CLI flags: a registry model (with
 *  --model-seed) or an imported Graph JSON (--model-file). Updates
 *  a.model to the graph's name for reports/metrics. */
Graph
cliWorkload(CliArgs &a)
{
    if (!a.modelFile.empty()) {
        if (!a.model.empty())
            fatal("give a model name or --model-file, not both");
        Graph g;
        std::string err;
        if (!loadGraphJson(a.modelFile, &g, &err))
            fatal("%s", err.c_str());
        a.model = g.name();
        return g;
    }
    if (a.model.empty())
        usage();
    ModelParams params;
    params.seed = a.modelSeed;
    return buildModel(a.model, params);
}

/** The platform addressed by the CLI flags (--platform /
 *  --platform-file; default: the "simba" preset). */
PlatformSpec
cliPlatformSpec(const CliArgs &a)
{
    PlatformSpec spec;
    spec.preset = a.platform;
    spec.file = a.platformFile;
    return spec;
}

/** cliPlatformSpec, resolved (fatal on any problem). */
AcceleratorConfig
cliPlatform(const CliArgs &a)
{
    AcceleratorConfig accel;
    std::string err;
    if (!resolvePlatform(cliPlatformSpec(a), &accel, &err))
        fatal("%s", err.c_str());
    return accel;
}

/** The deployment addressed by the CLI flags (--cores /
 *  --deployment / --deployment-file); disabled when none given.
 *  resolveDeployment rejects combinations ("not several"). */
DeploymentSpec
cliDeploymentSpec(const CliArgs &a)
{
    DeploymentSpec spec;
    if (a.cores != 0) {
        spec.enabled = true;
        spec.inlineDesc = true;
        spec.desc.cores = a.cores;
    }
    if (!a.deployment.empty()) {
        spec.enabled = true;
        spec.preset = a.deployment;
    }
    if (!a.deploymentFile.empty()) {
        spec.enabled = true;
        spec.file = a.deploymentFile;
    }
    return spec;
}

/** The framework over (workload, platform, deployment): a plain
 *  CostModel, or the composed DeploymentCostModel when a deployment
 *  is in play (fatal on a deployment problem). */
std::unique_ptr<CoccoFramework>
makeFramework(const Graph &g, const AcceleratorConfig &accel,
              const DeploymentSpec &dspec)
{
    if (!dspec.enabled)
        return std::make_unique<CoccoFramework>(g, accel);
    DeploymentConfig dep;
    std::string err;
    if (!resolveDeployment(dspec, accel, &dep, &err))
        fatal("%s", err.c_str());
    return std::make_unique<CoccoFramework>(g, dep);
}

/** Human-mode stdout summary of a multi-core run's scale-out (silent
 *  for a single core, so plain runs print exactly what they always
 *  did). */
void
printDeploymentLine(const DeploymentBreakdown &b)
{
    if (b.cores <= 1)
        return;
    double util = 0.0;
    for (double u : b.coreUtilization)
        util += u;
    if (!b.coreUtilization.empty())
        util /= static_cast<double>(b.coreUtilization.size());
    std::printf("deployment: %d cores, avg utilization %.1f%%, crossbar "
                "%.1f%% of energy / %.1f%% of latency\n",
                b.cores, 100.0 * util, 100.0 * b.crossbarEnergyShare,
                100.0 * b.crossbarLatencyShare);
}

/** --timeline: render the result's Gantt chart (per-core lanes on a
 *  deployment). Human mode only — --json output stays pure JSON. */
void
printTimeline(const CliArgs &a, CostModel &model, const Partition &p,
              const BufferConfig &buf)
{
    if (!a.timeline || a.json)
        return;
    Timeline tl = buildTimeline(model, p, buf);
    std::printf("timeline:\n%s", tl.gantt().c_str());
}

/** Spec assembled from plain CLI flags (partition/coexplore modes),
 *  with the workload, platform and deployment the flags address.
 *  Call after cliWorkload, which vets the workload flags. */
SearchSpec
specFromArgs(const CliArgs &a)
{
    SearchSpec spec;
    spec.algo = a.algo;
    if (a.modelFile.empty()) {
        spec.workload.model = a.model;
        spec.workload.params.seed = a.modelSeed;
    } else {
        spec.workload.file = a.modelFile;
    }
    spec.platform = cliPlatformSpec(a);
    spec.deployment = cliDeploymentSpec(a);
    spec.eval.sampleBudget = a.samples;
    spec.eval.alpha = a.alpha;
    spec.eval.metric = a.metric;
    spec.eval.seed = a.seed;
    spec.eval.threads = a.threads;
    spec.eval.timeLimitSec = a.timeLimitSec;
    spec.eval.stallLimit = a.stallLimit;
    spec.eval.pruning = a.pruning;
    spec.sa.neighborBatch = a.neighborBatch;
    return spec;
}

/** Build the run's evaluation cache per the CLI knobs; warm-start
 *  from --cache-file when it exists. Null when caching is off. */
std::shared_ptr<EvalCache>
openCache(const CliArgs &a)
{
    if (a.cacheSize <= 0)
        return nullptr;
    auto cache =
        std::make_shared<EvalCache>(static_cast<size_t>(a.cacheSize));
    if (!a.cacheFile.empty()) {
        std::string why;
        int n = loadEvalCache(*cache, a.cacheFile, &why);
        if (n >= 0)
            std::fprintf(stderr, "cache: warm-started %d entries from %s\n",
                         n, a.cacheFile.c_str());
        else
            std::fprintf(stderr, "cache: starting cold: %s\n", why.c_str());
    }
    return cache;
}

/** Persist the cache back to --cache-file (when both are in play). */
void
closeCache(const CliArgs &a, const std::shared_ptr<EvalCache> &cache)
{
    if (!cache || a.cacheFile.empty())
        return;
    if (saveEvalCache(*cache, a.cacheFile))
        std::fprintf(stderr, "cache: saved %zu entries to %s\n",
                     cache->size(), a.cacheFile.c_str());
    else
        std::fprintf(stderr, "cache: could not write %s\n",
                     a.cacheFile.c_str());
}

/** Write the run's JSON metrics record (when --metrics-out given):
 *  samples, cache counters and the portfolio block come from the
 *  search result @p r, as in `cocco run`. */
void
emitMetrics(const CliArgs &a, const std::string &name, double wall_seconds,
            double best_cost, bool cache_enabled, const CoccoResult &r,
            const DeploymentBreakdown &dep)
{
    if (a.metricsOut.empty())
        return;
    RunMetrics m;
    m.name = name;
    m.model = a.model;
    m.threads = ThreadPool::resolveThreads(a.threads);
    m.seed = a.seed;
    m.samples = r.samples;
    m.bestCost = best_cost;
    m.wallSeconds = wall_seconds;
    m.cacheEnabled = cache_enabled;
    m.cache = r.cacheStats;
    m.hasDeployment = true;
    m.deployment = dep;
    fillResultMetrics(r, false, &m);
    if (!writeMetricsFile(a.metricsOut, "cocco_cli", {m}))
        std::fprintf(stderr, "error: could not write metrics to %s\n",
                     a.metricsOut.c_str());
}

/** Human-mode stderr summary of a run's cache activity. */
void
printCacheLine(const EvalCacheStats &stats)
{
    std::fprintf(stderr, "cache: %llu/%llu evaluations served (%.1f%%)\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.hits + stats.misses),
                 100.0 * stats.hitRate());
}

/** Seconds elapsed since @p t0. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

void
printCost(const GraphCost &c, const BufferConfig &buf, double alpha,
          Metric metric)
{
    Table t({"metric", "value"});
    t.addRow({"buffer", buf.str()});
    t.addRow({"subgraphs", Table::fmtInt(c.subgraphs)});
    t.addRow({"EMA", Table::fmtMB(static_cast<double>(c.emaBytes))});
    t.addRow({"energy", Table::fmtDouble(c.energyPj / 1e9, 3) + " mJ"});
    t.addRow({"latency", Table::fmtDouble(c.latencyMs(), 3) + " ms"});
    t.addRow({"avg BW", Table::fmtDouble(c.avgBwGBps, 2) + " GB/s"});
    t.addRow({"peak BW", Table::fmtDouble(c.peakBwGBps, 2) + " GB/s"});
    t.addRow({"objective", Table::fmtSci(objective(c, buf, alpha, metric))});
    t.print();
}

/** Human-mode per-racer summary of a portfolio run. */
void
printRacerLines(const std::vector<RacerStats> &racers)
{
    for (const RacerStats &r : racers)
        std::fprintf(stderr,
                     "racer: %-10s %8lld evals  %5lld improvements  "
                     "best %.6g  %s%s%s\n",
                     r.algo.c_str(), static_cast<long long>(r.samples),
                     static_cast<long long>(r.improvements), r.bestCost,
                     stopReasonName(r.stop), r.culled ? " (culled)" : "",
                     r.winner ? " <- winner" : "");
}

/** Human-mode one-liner for a pareto-mode frontier. */
void
printFrontierLine(const CoccoResult &r)
{
    std::fprintf(stderr,
                 "frontier: %zu non-dominated points, hypervolume %.4f\n",
                 r.frontier.size(), r.hypervolume);
}

/** Write a pareto-mode frontier to --frontier-out as CSV. */
void
emitFrontierCsv(const std::string &path, const CoccoResult &r)
{
    CsvWriter csv({"buffer_bytes", "energy_pj", "latency_cycles",
                   "metric", "sample"});
    for (const ParetoEntry &e : r.frontier)
        csv.addRow({std::to_string(e.bufferBytes),
                    strprintf("%.17g", e.energyPj),
                    strprintf("%.17g", e.latencyCycles),
                    strprintf("%.17g", e.metric),
                    std::to_string(e.sample)});
    if (csv.writeFile(path))
        std::fprintf(stderr, "frontier: wrote %zu points to %s\n",
                     r.frontier.size(), path.c_str());
    else
        std::fprintf(stderr, "error: could not write frontier to %s\n",
                     path.c_str());
}

/** Early-stop note for human-mode output. */
void
printStopLine(StopReason stop)
{
    if (stop != StopReason::BudgetExhausted)
        std::fprintf(stderr, "stopped early: %s\n", stopReasonName(stop));
}

int
runPartition(CliArgs &a)
{
    Graph g = cliWorkload(a);
    std::unique_ptr<CoccoFramework> cocco =
        makeFramework(g, cliPlatform(a), cliDeploymentSpec(a));
    CostModel &model = cocco->model();
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 1024 * 1024;
    buf.weightBytes = 1152 * 1024;

    // Only the sampling searches evaluate genomes; greedy/dp/enum
    // never touch the cache, so don't open (or rewrite) it for them.
    bool sampling = SearcherRegistry::instance().contains(a.algo);
    std::shared_ptr<EvalCache> cache = sampling ? openCache(a) : nullptr;
    CoccoResult res; // filled by the sampling searches only
    auto t0 = std::chrono::steady_clock::now();

    Partition p;
    if (a.algo == "greedy") {
        p = greedyPartition(g, model, buf, a.metric);
    } else if (a.algo == "dp") {
        p = dpPartition(g, model, buf, a.metric);
    } else if (a.algo == "enum") {
        EnumerationResult r = enumeratePartition(g, model, buf, a.metric);
        if (!r.complete) {
            std::fprintf(stderr,
                         "enumeration exceeded its budget (%lld states)\n",
                         static_cast<long long>(r.statesVisited));
            return 1;
        }
        p = r.best;
    } else if (sampling) {
        // Any registered driver, partition-only under the fixed buffer.
        SearchSpec spec = specFromArgs(a);
        spec.eval.coExplore = false;
        spec.fixedBuffer = buf;
        fatalIf(runSpecError(spec));
        spec.eval.cacheEnabled = cache != nullptr;
        spec.eval.cache = cache;
        res = cocco->explore(spec);
        p = res.partition;
        printStopLine(res.stop);
        printRacerLines(res.racers);
    } else {
        usage();
    }

    double wall = secondsSince(t0);
    closeCache(a, cache);
    GraphCost c = model.partitionCost(p, buf);
    DeploymentBreakdown dep = model.breakdown(p, buf);
    if (a.json) {
        std::printf("%s\n", partitionToJson(g, p).c_str());
    } else {
        std::printf("%s: %s partition -> %zu subgraphs\n",
                    a.model.c_str(), a.algo.c_str(), p.blocks().size());
        printCost(c, buf, a.alpha, a.metric);
        printDeploymentLine(dep);
        if (cache && res.samples > 0)
            printCacheLine(res.cacheStats);
    }
    printTimeline(a, model, p, buf);
    emitMetrics(a, "partition-" + a.algo, wall, c.metricValue(a.metric),
                cache != nullptr, res, dep);
    return 0;
}

int
runCoExplore(CliArgs &a)
{
    Graph g = cliWorkload(a);
    AcceleratorConfig accel = cliPlatform(a);
    std::unique_ptr<CoccoFramework> cocco =
        makeFramework(g, accel, cliDeploymentSpec(a));
    SearchSpec spec = specFromArgs(a);
    spec.eval.coExplore = true;
    spec.style = a.style == "separate" ? BufferStyle::Separate
                                       : BufferStyle::Shared;
    fatalIf(runSpecError(spec));
    std::shared_ptr<EvalCache> cache = openCache(a);
    spec.eval.cacheEnabled = cache != nullptr;
    spec.eval.cache = cache;
    auto t0 = std::chrono::steady_clock::now();
    CoccoResult r = cocco->explore(spec);
    double wall = secondsSince(t0);
    closeCache(a, cache);
    if (a.json) {
        std::printf("%s\n", resultToJson(g, r).c_str());
    } else {
        std::printf("%s: %s recommends buffer %s after %lld samples\n",
                    a.model.c_str(), spec.algo.c_str(),
                    r.buffer.str().c_str(),
                    static_cast<long long>(r.samples));
        printCost(r.cost, r.buffer, a.alpha, a.metric);
        printDeploymentLine(r.deployment);
        printRacerLines(r.racers);
        printStopLine(r.stop);
        if (cache)
            printCacheLine(r.cacheStats);
    }
    printTimeline(a, cocco->model(), r.partition, r.buffer);
    emitMetrics(a, "coexplore-" + spec.algo, wall, r.objective,
                cache != nullptr, r, r.deployment);
    return 0;
}

/** Human-mode stdout summary of a co-schedule: the schedule-level
 *  outcome, then one line per tenant. */
void
printScheduleLines(SpecRun &run)
{
    const ScheduleResult &r = run.schedule();
    ScheduleCostModel &model = run.scheduler()->model();
    std::printf("%s: %s placed %d tenant(s) on %d core(s) -> "
                "%d SLA violation(s), mean latency %.3f ms\n",
                run.modelName().c_str(), run.spec().algo.c_str(),
                model.tenants(), model.cores(), r.cost.slaViolations,
                r.cost.meanLatencyMs);
    if (static_cast<int>(r.cost.tenants.size()) != model.tenants())
        return;
    for (int t = 0; t < model.tenants(); ++t) {
        const TenantSpec &ts = run.spec().workloadSet.tenants[t];
        const TenantCost &tc = r.cost.tenants[t];
        std::printf("  %-12s core %d  latency %10.3f ms "
                    "(SLA %.3f ms) %s\n",
                    ts.name.c_str(), r.schedule.coreOf[t], tc.latencyMs,
                    ts.slaLatencyMs, tc.slaViolation ? "VIOLATED" : "ok");
    }
}

/** `cocco run --spec FILE` and `cocco coschedule --spec FILE`: the
 *  declarative path, through the same SpecRun as `cocco serve`. The
 *  document is authoritative for the search configuration; the
 *  command line only adds output/persistence knobs. `coschedule`
 *  insists on a "workload_set" and labels its metrics
 *  "coschedule-<algo>". */
int
runSpec(CliArgs a)
{
    const bool coschedule = a.command == "coschedule";
    if (a.specFile.empty())
        fatal("%s needs --spec FILE", a.command.c_str());
    JsonValue doc;
    std::string err;
    if (!loadJsonFile(a.specFile, &doc, &err))
        fatal("%s", err.c_str());
    SearchSpec spec;
    if (!parseRunSpec(doc, &spec, &err))
        fatal("%s: %s", a.specFile.c_str(), err.c_str());
    if (coschedule && !spec.workloadSet.enabled())
        fatal("%s: coschedule needs a \"workload_set\" with >= 2 "
              "tenants (one tenant is a plain run; use `cocco run`)",
              a.specFile.c_str());
    if (a.deterministicRace)
        spec.portfolio.deterministicRace = true;
    if (!a.frontierOut.empty() && !spec.paretoMode)
        std::fprintf(stderr, "frontier: spec is not \"mode\": "
                             "\"pareto\"; --frontier-out ignored\n");
    if (!a.checkpointFile.empty() && spec.paretoMode)
        std::fprintf(stderr,
                     "checkpoint: the pareto archive is not part of "
                     "the checkpoint format; a resumed run's frontier "
                     "only covers samples after the resume point\n");

    SpecRun run;
    err = run.prepare(spec);
    if (!err.empty())
        fatal("%s: %s", a.specFile.c_str(), err.c_str());
    SearchSpec &rs = run.spec();

    // The progress/interrupt observer: --progress streams NDJSON
    // events (serve/events.h vocabulary, job id 0) to stderr; either
    // way a trapped SIGINT cancels the search at the next batch
    // boundary, so partial metrics and checkpoints still flush.
    NdjsonProgress progress(a.progress ? stderr : nullptr, 0,
                            &g_interrupted);
    rs.eval.observer = &progress;

    // --checkpoint FILE: resume from the file when it exists, persist
    // the search state there when the run is cancelled or times out.
    // Co-schedule runs have no checkpoint format (the inner searches
    // are short per-tenant probes, not one long trajectory).
    CheckpointHooks hooks;
    SearchCheckpoint resume;
    const bool checkpoint = !a.checkpointFile.empty() && !run.coSchedule();
    if (!a.checkpointFile.empty() && run.coSchedule())
        std::fprintf(stderr, "checkpoint: co-schedule runs do not "
                             "checkpoint; --checkpoint ignored\n");
    if (checkpoint) {
        std::string ckerr;
        if (std::FILE *probe =
                std::fopen(a.checkpointFile.c_str(), "r")) {
            std::fclose(probe);
            // An existing-but-corrupt checkpoint is fatal, not a
            // silent cold start: the user asked to resume.
            if (!loadCheckpoint(a.checkpointFile, &resume, &ckerr))
                fatal("%s", ckerr.c_str());
            hooks.resume = &resume;
            std::fprintf(stderr,
                         "checkpoint: resuming \"%s\" from %s at %lld "
                         "samples\n",
                         resume.algo.c_str(), a.checkpointFile.c_str(),
                         static_cast<long long>(resume.samples));
        }
        hooks.save = [&a, &progress](const SearchCheckpoint &c) {
            if (!saveCheckpoint(c, a.checkpointFile)) {
                std::fprintf(stderr, "checkpoint: could not write %s\n",
                             a.checkpointFile.c_str());
                return;
            }
            std::fprintf(stderr,
                         "checkpoint: saved %s at %lld samples\n",
                         a.checkpointFile.c_str(),
                         static_cast<long long>(c.samples));
            JobEvent e;
            e.kind = JobEvent::Kind::Checkpoint;
            e.sample = c.samples;
            progress.emit(e);
        };
        rs.eval.checkpoint = &hooks;
    }

    std::shared_ptr<EvalCache> cache;
    if (rs.eval.cacheEnabled) {
        a.cacheSize = static_cast<int64_t>(rs.eval.cacheCapacity);
        cache = openCache(a);
        rs.eval.cache = cache;
        rs.eval.cacheEnabled = cache != nullptr;
    }

    auto t0 = std::chrono::steady_clock::now();
    run.run();
    double wall = secondsSince(t0);
    closeCache(a, cache);

    RunMetrics m = run.metrics();
    if (a.json) {
        std::printf("%s\n", run.resultJson().c_str());
    } else {
        if (run.coSchedule()) {
            printScheduleLines(run);
        } else {
            const CoccoResult &r = run.result();
            std::printf("%s: %s (%s) -> buffer %s after %lld samples\n",
                        run.modelName().c_str(), rs.algo.c_str(),
                        rs.eval.coExplore ? "co-explore"
                                          : "partition-only",
                        r.buffer.str().c_str(),
                        static_cast<long long>(r.samples));
            printCost(r.cost, r.buffer, rs.eval.alpha, rs.eval.metric);
            printDeploymentLine(r.deployment);
            printRacerLines(r.racers);
            if (rs.paretoMode)
                printFrontierLine(r);
        }
        printStopLine(run.stop());
        if (cache)
            printCacheLine(m.cache);
    }
    if (run.coSchedule()) {
        if (a.timeline)
            std::printf("%s", scheduleGantt(run.scheduler()->model(),
                                            run.schedule())
                                  .c_str());
    } else {
        printTimeline(a, run.framework()->model(), run.result().partition,
                      run.result().buffer);
        if (!a.frontierOut.empty() && rs.paretoMode)
            emitFrontierCsv(a.frontierOut, run.result());
    }

    if (!a.metricsOut.empty()) {
        if (coschedule)
            m.name = "coschedule-" + rs.algo;
        m.threads = ThreadPool::resolveThreads(rs.eval.threads);
        m.wallSeconds = wall;
        m.cacheEnabled = cache != nullptr;
        if (!writeMetricsFile(a.metricsOut, "cocco_cli", {m}))
            std::fprintf(stderr, "error: could not write metrics to %s\n",
                         a.metricsOut.c_str());
    }

    // A run that ended for good (budget/stall) leaves no checkpoint
    // behind — resuming a finished run would be a silent no-op.
    if (checkpoint && (run.stop() == StopReason::BudgetExhausted ||
                       run.stop() == StopReason::Stalled))
        std::remove(a.checkpointFile.c_str());
    return g_interrupted.load(std::memory_order_relaxed) ? 130 : 0;
}

/** `cocco batch <dir>`: drain a directory of run specs through one
 *  JobManager (serve/batch.h); per-spec metrics/result documents plus
 *  a batch summary land in --out (default: the spec directory). */
int
runBatch(const CliArgs &a)
{
    if (a.model.empty())
        fatal("batch needs a directory of run specs");
    BatchOptions opts;
    opts.outDir = a.outDir;
    opts.jobs = a.jobs;
    opts.threadBudget = a.threads;
    opts.cacheEnabled = a.cacheSize > 0;
    opts.cacheCapacity =
        a.cacheSize > 0 ? static_cast<size_t>(a.cacheSize) : 0;
    opts.cacheFile = a.cacheFile;
    opts.progress = a.progress;
    opts.interrupt = &g_interrupted;

    BatchSummary summary;
    std::string err;
    bool ok = runBatchDir(a.model, opts, &summary, &err);
    if (!ok && summary.entries.empty())
        fatal("%s", err.c_str());
    if (!ok)
        std::fprintf(stderr, "batch: %s\n", err.c_str());
    std::printf("batch: %d done, %d cancelled, %d failed of %zu spec(s) "
                "in %.1fs (cache hit-rate %.1f%%)\n",
                summary.done, summary.cancelled, summary.failed,
                summary.entries.size(), summary.wallSeconds,
                100.0 * summary.cache.hitRate());
    if (summary.interrupted)
        return 130;
    return ok && summary.failed == 0 ? 0 : 1;
}

/** `cocco serve`: the long-lived exploration service — the stdio
 *  NDJSON protocol with --stdio, the local HTTP job API with --port
 *  (0 = ephemeral; the bound port is printed). --threads is the
 *  total evaluation-thread budget shared by running jobs. */
int
runServe(const CliArgs &a)
{
    if (!a.stdio && a.port < 0)
        fatal("serve needs --port N (0 = ephemeral) or --stdio");

    JobManagerOptions opts;
    opts.workers = a.serveWorkers;
    opts.threadBudget = a.threads;
    opts.queueCapacity = a.serveQueue;
    opts.cacheEnabled = a.cacheSize > 0;
    if (a.cacheSize > 0)
        opts.cacheCapacity = static_cast<size_t>(a.cacheSize);
    opts.cache = openCache(a);
    JobManager manager(opts);

    int rc = 0;
    if (a.stdio) {
        rc = runStdioServe(manager, stdin, stdout);
    } else {
        std::atomic<bool> shutdown{false};
        HttpServer server([&manager, &shutdown](const HttpRequest &req) {
            return serveHttpRequest(manager, req, &shutdown);
        });
        std::string err;
        if (!server.start(a.port, &err))
            fatal("%s", err.c_str());
        std::printf("cocco serve: listening on 127.0.0.1:%d\n",
                    server.port());
        std::fflush(stdout);
        while (!shutdown.load(std::memory_order_relaxed) &&
               !g_interrupted.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::fprintf(stderr, "serve: shutting down\n");
        server.stop();
        manager.cancelAll();
        manager.drain();
    }
    closeCache(a, manager.cache());
    return rc;
}

/** `cocco validate-metrics FILE`: structural check of a metrics
 *  document (core/metrics schema v1) using the JSON parser — what CI
 *  runs against every uploaded artifact. */
int
validateMetrics(const std::string &path)
{
    JsonValue doc;
    std::string err;
    if (!loadJsonFile(path, &doc, &err))
        fatal("%s", err.c_str());
    if (!doc.isObject())
        fatal("%s: document must be an object", path.c_str());

    const JsonValue *version = doc.find("schema_version");
    if (!version || !version->isNumber() || version->number() != 1.0)
        fatal("%s: schema_version must be 1", path.c_str());
    const JsonValue *generator = doc.find("generator");
    if (!generator || !generator->isString())
        fatal("%s: missing \"generator\"", path.c_str());
    const JsonValue *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        fatal("%s: missing \"runs\" array", path.c_str());

    static const char *string_fields[] = {"name", "model"};
    static const char *number_fields[] = {"threads", "seed", "samples",
                                          "best_cost", "wall_seconds"};
    int i = 0;
    for (const JsonValue &run : runs->array()) {
        if (!run.isObject())
            fatal("%s: runs[%d] is not an object", path.c_str(), i);
        for (const char *f : string_fields)
            if (!run.find(f) || !run.find(f)->isString())
                fatal("%s: runs[%d] missing string \"%s\"", path.c_str(),
                      i, f);
        for (const char *f : number_fields)
            if (!run.find(f) || !run.find(f)->isNumber())
                fatal("%s: runs[%d] missing number \"%s\"", path.c_str(),
                      i, f);
        const JsonValue *cache = run.find("cache");
        if (!cache || !cache->isObject())
            fatal("%s: runs[%d] missing \"cache\" object", path.c_str(), i);
        // The deployment block is optional; when present it must be
        // well-formed (cores + shares + the per-core utilization list).
        if (const JsonValue *dep = run.find("deployment")) {
            if (!dep->isObject())
                fatal("%s: runs[%d] \"deployment\" is not an object",
                      path.c_str(), i);
            static const char *dep_numbers[] = {"cores",
                                                "crossbar_energy_share",
                                                "crossbar_latency_share"};
            for (const char *f : dep_numbers)
                if (!dep->find(f) || !dep->find(f)->isNumber())
                    fatal("%s: runs[%d] deployment missing number "
                          "\"%s\"",
                          path.c_str(), i, f);
            const JsonValue *util = dep->find("core_utilization");
            if (!util || !util->isArray())
                fatal("%s: runs[%d] deployment missing "
                      "\"core_utilization\" array",
                      path.c_str(), i);
            if (static_cast<int>(util->array().size()) !=
                static_cast<int>(dep->find("cores")->number()))
                fatal("%s: runs[%d] deployment core_utilization has "
                      "%zu entries for %d cores",
                      path.c_str(), i, util->array().size(),
                      static_cast<int>(dep->find("cores")->number()));
        }
        // The job block is optional too (serve/batch documents); when
        // present it must carry the full serving context.
        if (const JsonValue *job = run.find("job")) {
            if (!job->isObject())
                fatal("%s: runs[%d] \"job\" is not an object",
                      path.c_str(), i);
            static const char *job_numbers[] = {"id", "queued_seconds"};
            for (const char *f : job_numbers)
                if (!job->find(f) || !job->find(f)->isNumber())
                    fatal("%s: runs[%d] job missing number \"%s\"",
                          path.c_str(), i, f);
            static const char *job_strings[] = {"tenant", "state"};
            for (const char *f : job_strings)
                if (!job->find(f) || !job->find(f)->isString())
                    fatal("%s: runs[%d] job missing string \"%s\"",
                          path.c_str(), i, f);
        }
        // The tenants block is optional (co-schedule documents); when
        // present its list must be per-tenant complete and match the
        // declared count.
        if (const JsonValue *ten = run.find("tenants")) {
            if (!ten->isObject())
                fatal("%s: runs[%d] \"tenants\" is not an object",
                      path.c_str(), i);
            static const char *ten_numbers[] = {"count", "sla_violations",
                                                "mean_latency_ms"};
            for (const char *f : ten_numbers)
                if (!ten->find(f) || !ten->find(f)->isNumber())
                    fatal("%s: runs[%d] tenants missing number \"%s\"",
                          path.c_str(), i, f);
            const JsonValue *list = ten->find("list");
            if (!list || !list->isArray())
                fatal("%s: runs[%d] tenants missing \"list\" array",
                      path.c_str(), i);
            if (static_cast<int>(list->array().size()) !=
                static_cast<int>(ten->find("count")->number()))
                fatal("%s: runs[%d] tenants list has %zu entries for "
                      "count %d",
                      path.c_str(), i, list->array().size(),
                      static_cast<int>(ten->find("count")->number()));
            int j = 0;
            for (const JsonValue &t : list->array()) {
                if (!t.isObject())
                    fatal("%s: runs[%d] tenants list[%d] is not an "
                          "object",
                          path.c_str(), i, j);
                if (!t.find("name") || !t.find("name")->isString())
                    fatal("%s: runs[%d] tenants list[%d] missing string "
                          "\"name\"",
                          path.c_str(), i, j);
                static const char *entry_numbers[] = {
                    "core", "arrival_rate_hz", "sla_latency_ms",
                    "latency_ms", "energy_pj"};
                for (const char *f : entry_numbers)
                    if (!t.find(f) || !t.find(f)->isNumber())
                        fatal("%s: runs[%d] tenants list[%d] missing "
                              "number \"%s\"",
                              path.c_str(), i, j, f);
                if (!t.find("sla_violation") ||
                    !t.find("sla_violation")->isBool())
                    fatal("%s: runs[%d] tenants list[%d] missing bool "
                          "\"sla_violation\"",
                          path.c_str(), i, j);
                ++j;
            }
        }
        // The portfolio block is optional (portfolio runs); when
        // present it must name the winner and carry a complete
        // per-racer record list.
        if (const JsonValue *pf = run.find("portfolio")) {
            if (!pf->isObject())
                fatal("%s: runs[%d] \"portfolio\" is not an object",
                      path.c_str(), i);
            if (!pf->find("winner") || !pf->find("winner")->isString())
                fatal("%s: runs[%d] portfolio missing string "
                      "\"winner\"",
                      path.c_str(), i);
            const JsonValue *racers = pf->find("racers");
            if (!racers || !racers->isArray() ||
                racers->array().empty())
                fatal("%s: runs[%d] portfolio missing non-empty "
                      "\"racers\" array",
                      path.c_str(), i);
            int j = 0;
            bool winner_seen = false;
            for (const JsonValue &rc : racers->array()) {
                if (!rc.isObject())
                    fatal("%s: runs[%d] portfolio racers[%d] is not an "
                          "object",
                          path.c_str(), i, j);
                static const char *racer_strings[] = {"algo", "stop"};
                for (const char *f : racer_strings)
                    if (!rc.find(f) || !rc.find(f)->isString())
                        fatal("%s: runs[%d] portfolio racers[%d] "
                              "missing string \"%s\"",
                              path.c_str(), i, j, f);
                static const char *racer_numbers[] = {
                    "samples", "best_cost", "improvements",
                    "wall_seconds", "threads", "regrants"};
                for (const char *f : racer_numbers)
                    if (!rc.find(f) || !rc.find(f)->isNumber())
                        fatal("%s: runs[%d] portfolio racers[%d] "
                              "missing number \"%s\"",
                              path.c_str(), i, j, f);
                static const char *racer_bools[] = {"culled", "winner"};
                for (const char *f : racer_bools)
                    if (!rc.find(f) || !rc.find(f)->isBool())
                        fatal("%s: runs[%d] portfolio racers[%d] "
                              "missing bool \"%s\"",
                              path.c_str(), i, j, f);
                if (rc.find("winner")->boolean() &&
                    rc.find("algo")->str() == pf->find("winner")->str())
                    winner_seen = true;
                ++j;
            }
            if (!winner_seen)
                fatal("%s: runs[%d] portfolio \"winner\" names no "
                      "winning racer",
                      path.c_str(), i);
        }
        // The pareto block is optional (pareto-mode runs); when
        // present its frontier must match the declared size and every
        // point must be complete.
        if (const JsonValue *pa = run.find("pareto")) {
            if (!pa->isObject())
                fatal("%s: runs[%d] \"pareto\" is not an object",
                      path.c_str(), i);
            static const char *pareto_numbers[] = {"frontier_size",
                                                   "hypervolume"};
            for (const char *f : pareto_numbers)
                if (!pa->find(f) || !pa->find(f)->isNumber())
                    fatal("%s: runs[%d] pareto missing number \"%s\"",
                          path.c_str(), i, f);
            const JsonValue *front = pa->find("frontier");
            if (!front || !front->isArray())
                fatal("%s: runs[%d] pareto missing \"frontier\" array",
                      path.c_str(), i);
            if (static_cast<int>(front->array().size()) !=
                static_cast<int>(pa->find("frontier_size")->number()))
                fatal("%s: runs[%d] pareto frontier has %zu entries "
                      "for frontier_size %d",
                      path.c_str(), i, front->array().size(),
                      static_cast<int>(
                          pa->find("frontier_size")->number()));
            int j = 0;
            for (const JsonValue &pt : front->array()) {
                if (!pt.isObject())
                    fatal("%s: runs[%d] pareto frontier[%d] is not an "
                          "object",
                          path.c_str(), i, j);
                static const char *point_numbers[] = {
                    "buffer_bytes", "energy_pj", "latency_cycles",
                    "metric", "sample"};
                for (const char *f : point_numbers)
                    if (!pt.find(f) || !pt.find(f)->isNumber())
                        fatal("%s: runs[%d] pareto frontier[%d] "
                              "missing number \"%s\"",
                              path.c_str(), i, j, f);
                ++j;
            }
        }
        ++i;
    }
    std::printf("%s: ok (%s, %d run%s)\n", path.c_str(),
                generator->str().c_str(), i, i == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs a = parse(argc, argv);

    // Graceful-interrupt modes only: elsewhere the default SIGINT
    // disposition (kill) is the right behavior.
    if (a.command == "run" || a.command == "coschedule" ||
        a.command == "batch" || a.command == "serve")
        std::signal(SIGINT, onSigint);

    if (a.command == "models" || a.command == "--list-models") {
        const ModelRegistry &reg = ModelRegistry::instance();
        for (const std::string &name : reg.keys()) {
            const ModelInfo &info = reg.info(name);
            std::printf("%-12s %-44s %s\n", name.c_str(),
                        modelKnobsStr(info).c_str(),
                        info.summary.c_str());
        }
        return 0;
    }
    if (a.command == "--list-algos") {
        const SearcherRegistry &reg = SearcherRegistry::instance();
        for (const std::string &key : reg.keys())
            std::printf("%-10s %s\n", key.c_str(),
                        reg.summary(key).c_str());
        return 0;
    }
    if (a.command == "--list-platforms") {
        const PlatformRegistry &reg = PlatformRegistry::instance();
        for (const std::string &name : reg.keys())
            std::printf("%-10s %s\n", name.c_str(),
                        reg.summary(name).c_str());
        return 0;
    }
    if (a.command == "--list-deployments") {
        const DeploymentRegistry &reg = DeploymentRegistry::instance();
        for (const std::string &name : reg.keys())
            std::printf("%-10s %s\n", name.c_str(),
                        reg.summary(name).c_str());
        return 0;
    }
    if (a.command == "describe-deployment") {
        if (a.model.empty())
            usage();
        // deploymentPreset is fatal on unknown names, with the list.
        DeploymentDesc desc = deploymentPreset(a.model);
        std::printf("%s: %s\n", a.model.c_str(),
                    DeploymentRegistry::instance().summary(a.model)
                        .c_str());
        std::printf("%s\n", deploymentToJson(desc).c_str());
        return 0;
    }
    if (a.command == "run" || a.command == "coschedule")
        return runSpec(a);
    if (a.command == "batch")
        return runBatch(a);
    if (a.command == "serve")
        return runServe(a);
    if (a.command == "validate-metrics") {
        if (a.model.empty())
            usage();
        return validateMetrics(a.model);
    }
    if (a.command == "describe") {
        Graph g = cliWorkload(a);
        std::printf("%s\n%s", g.str().c_str(),
                    computeStats(g).str().c_str());
        return 0;
    }
    if (a.command == "describe-model") {
        if (a.model.empty())
            usage();
        // info() is fatal on unknown names, with the known list.
        const ModelInfo &info =
            ModelRegistry::instance().info(a.model);
        ModelParams params = info.defaults;
        params.seed = a.modelSeed;
        Graph g = buildModel(a.model, params);
        std::printf("%s: %s\n", info.name.c_str(), info.summary.c_str());
        std::string knobs = modelKnobsStr(info);
        std::printf("params: %s\n",
                    knobs.empty() ? "(none)" : knobs.c_str());
        std::printf("%s", computeStats(g).str().c_str());
        return 0;
    }
    if (a.command == "export-model") {
        Graph g = cliWorkload(a);
        std::printf("%s\n", graphToJson(g).c_str());
        return 0;
    }
    if (a.command == "timeline") {
        Graph g = cliWorkload(a);
        AcceleratorConfig accel = cliPlatform(a);
        CostModel model(g, accel);
        BufferConfig buf;
        buf.style = BufferStyle::Separate;
        buf.actBytes = 1024 * 1024;
        buf.weightBytes = 1152 * 1024;
        Partition p = greedyPartition(g, model, buf, a.metric);
        Timeline tl = buildTimeline(model, p, buf);
        std::printf("%s: greedy partition timeline\n%s", a.model.c_str(),
                    tl.gantt().c_str());
        return 0;
    }
    if (a.command == "dot") {
        Graph g = cliWorkload(a);
        if (a.runs > 0) {
            Partition p = Partition::fixedRuns(g, a.runs);
            p.canonicalize(g);
            std::printf("%s", toDot(g, p).c_str());
        } else {
            std::printf("%s", toDot(g).c_str());
        }
        return 0;
    }
    if (a.command == "partition")
        return runPartition(a);
    if (a.command == "coexplore")
        return runCoExplore(a);
    usage();
}
