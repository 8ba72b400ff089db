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
 * Run flags (every search: run, coschedule, coexplore, partition
 * --algo <driver>): --progress, --checkpoint F, --deterministic-race,
 *               --frontier-out F
 *
 * One path from flags into a run: `coexplore` and `partition --algo
 * <driver>` build the SearchSpec their flags describe (specFromArgs,
 * the only place flags become one) and hand it to runSearch, the
 * SpecRun path a `run --spec` document takes, so flags and documents
 * cannot drift. `run` / `coschedule` take the run from the document
 * and refuse a <model> and every flag but --json, --timeline,
 * --metrics-out, --cache-file and the run flags; the flag modes refuse
 * --spec. greedy / dp / enum are the one non-search path.
 *
 * The search subcommands all dispatch through the SearcherRegistry,
 * workloads through the ModelRegistry (or Graph JSON import),
 * platforms through the PlatformRegistry (or platform JSON), and
 * scale-out through the DeploymentRegistry (or deployment JSON), so
 * new strategies, models, and presets registered at startup are
 * first-class citizens of every mode.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>

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
    std::vector<std::string> flags; ///< every flag given, in order
};

/** SIGINT latch for every search, `batch` and `serve`: the first
 *  interrupt requests a cooperative stop (drivers cancel at the next
 *  batch boundary, partial metrics and checkpoints still flush); a
 *  second interrupt hard-exits — the escape hatch when a run is
 *  stuck. */
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
        "            (their flags build the run spec that `run` reads)\n"
        "  run       --spec FILE  (the document sets the run: a <model>\n"
        "            and every flag but --json --timeline --metrics-out\n"
        "            --cache-file and the last line's are refused)\n"
        "  coschedule --spec FILE  (workload_set specs, same rules)\n"
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
        "                   bit-identical, only slower)\n"
        "every search (run, coschedule, coexplore, partition --algo "
        "<driver>):\n"
        "       --progress --checkpoint F --deterministic-race "
        "--frontier-out F\n");
    std::exit(2);
}

/** Read a numeric flag's value by the rule its document key follows
 *  (jsonReadIntAs, jsonReadNumber), under the flag's name: "2e2" is
 *  200, "2x" is no number. A malformed value exits 2, naming it. */
template <typename T>
void
readFlag(const std::string &flag, const char *text, T *out)
{
    JsonValue v;
    std::string err;
    const char *kind = std::is_integral_v<T> ? "an integer" : "a number";
    if (!parseJson(text, &v, &err) || !v.isNumber())
        err = "\"" + flag + "\" must be " + kind;
    else if constexpr (std::is_integral_v<T>)
        jsonReadIntAs(v, flag.c_str(), out, &err);
    else
        jsonReadNumber(v, flag.c_str(), out, &err);
    if (err.empty())
        return;
    std::fprintf(stderr, "cocco: %s (got '%s')\n", err.c_str(), text);
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
    if (a.command != "models" && a.command[0] != '-' && i < argc &&
        argv[i][0] != '-')
        a.model = argv[i++];
    for (; i < argc; ++i) {
        std::string f = argv[i];
        a.flags.push_back(f);
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
            readFlag(f, next(), &a.modelSeed);
        else if (f == "--platform")
            a.platform = next();
        else if (f == "--platform-file")
            a.platformFile = next();
        else if (f == "--cores") {
            // Strict: a zero/negative/garbage count silently meaning
            // "no deployment" would fake a scale-out experiment.
            const char *v = next();
            readFlag(f, v, &a.cores);
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
            readFlag(f, next(), &a.samples);
        else if (f == "--alpha")
            readFlag(f, next(), &a.alpha);
        else if (f == "--seed")
            readFlag(f, next(), &a.seed);
        else if (f == "--runs")
            readFlag(f, next(), &a.runs);
        else if (f == "--threads")
            readFlag(f, next(), &a.threads);
        else if (f == "--neighbor-batch")
            readFlag(f, next(), &a.neighborBatch);
        else if (f == "--time-limit")
            readFlag(f, next(), &a.timeLimitSec);
        else if (f == "--stall-limit")
            readFlag(f, next(), &a.stallLimit);
        else if (f == "--cache-size")
            readFlag(f, next(), &a.cacheSize);
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
            readFlag(f, next(), &a.port);
        else if (f == "--serve-workers")
            readFlag(f, next(), &a.serveWorkers);
        else if (f == "--serve-queue")
            readFlag(f, next(), &a.serveQueue);
        else if (f == "--jobs")
            readFlag(f, next(), &a.jobs);
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

/** The only flags `run` and `coschedule` read: the document sets the
 *  rest of the run. */
const char *const kDocumentFlags[] = {
    "--spec", "--json", "--timeline", "--metrics-out", "--cache-file",
    "--checkpoint", "--progress", "--deterministic-race", "--frontier-out"};

/** Exit 2 naming the first argument the command would drop: `run` and
 *  `coschedule` refuse a positional model and every flag outside
 *  kDocumentFlags; the flag modes refuse --spec. */
void
refuseForeignFlags(const CliArgs &a)
{
    const bool document = a.command == "run" || a.command == "coschedule";
    std::string bad = document && !a.model.empty()
                          ? "the positional model \"" + a.model + "\""
                          : "";
    for (const std::string &f : a.flags) {
        const bool read = std::find(std::begin(kDocumentFlags),
                                    std::end(kDocumentFlags),
                                    f) != std::end(kDocumentFlags);
        if (bad.empty() && (document ? !read : f == "--spec"))
            bad = f;
    }
    if (bad.empty())
        return;
    std::fprintf(stderr,
                 document ? "%s: %s is refused: the spec document sets "
                            "the run\n"
                          : "%s: %s is for `cocco run`; the flags are "
                            "the run spec here\n",
                 a.command.c_str(), bad.c_str());
    std::exit(2);
}

/** The SearchSpec the flags describe: the only place flags become one.
 *  It starts from what an empty run-spec document means (so partition
 *  runs get the documents' fixed 1 MB + 1.125 MB buffer) and adds what
 *  the command implies (`partition` is partition-only, the rest
 *  co-explore). Usage error without a workload; resolveWorkload vets
 *  the rest of the workload flags, as it vets a document's. */
SearchSpec
specFromArgs(const CliArgs &a)
{
    if (a.model.empty() && a.modelFile.empty())
        usage();
    SearchSpec spec;
    std::string err;
    parseRunSpecText("{}", &spec, &err);
    spec.algo = a.algo;
    spec.workload.model = a.model;
    spec.workload.file = a.modelFile;
    spec.workload.params.seed = a.modelSeed;
    spec.platform.preset = a.platform;
    spec.platform.file = a.platformFile;
    // resolveDeployment rejects combinations ("not several").
    DeploymentSpec &dep = spec.deployment;
    if (a.cores != 0) {
        dep.inlineDesc = true;
        dep.desc.cores = a.cores;
    }
    dep.preset = a.deployment;
    dep.file = a.deploymentFile;
    dep.enabled = dep.inlineDesc || !dep.preset.empty() || !dep.file.empty();
    spec.style = a.style == "separate" ? BufferStyle::Separate
                                       : BufferStyle::Shared;
    spec.eval.coExplore = a.command != "partition";
    spec.eval.sampleBudget = a.samples;
    spec.eval.alpha = a.alpha;
    spec.eval.metric = a.metric;
    spec.eval.seed = a.seed;
    spec.eval.threads = a.threads;
    spec.eval.timeLimitSec = a.timeLimitSec;
    spec.eval.stallLimit = a.stallLimit;
    spec.eval.pruning = a.pruning;
    spec.eval.cacheEnabled = a.cacheSize > 0;
    if (a.cacheSize > 0)
        spec.eval.cacheCapacity = static_cast<size_t>(a.cacheSize);
    spec.sa.neighborBatch = a.neighborBatch;
    return spec;
}

/** The workload @p w addresses (fatal with resolveWorkload's reason,
 *  the spec path's rule). */
Graph
cliWorkload(const WorkloadSpec &w)
{
    Graph g;
    std::string err;
    if (!resolveWorkload(w, &g, &err))
        fatal("%s", err.c_str());
    return g;
}

/** The framework over @p g on @p spec's platform and deployment
 *  (fatal on a problem): a plain CostModel, or the composed
 *  DeploymentCostModel when a deployment is in play. */
std::unique_ptr<CoccoFramework>
makeFramework(const Graph &g, const SearchSpec &spec)
{
    AcceleratorConfig accel;
    DeploymentConfig dep;
    std::string err;
    if (!resolvePlatform(spec.platform, &accel, &err) ||
        (spec.deployment.enabled &&
         !resolveDeployment(spec.deployment, accel, &dep, &err)))
        fatal("%s", err.c_str());
    if (!spec.deployment.enabled)
        return std::make_unique<CoccoFramework>(g, accel);
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

/** An evaluation cache of @p capacity entries (null when 0: caching
 *  off), warm-started from @p file when that exists. */
std::shared_ptr<EvalCache>
openCache(int64_t capacity, const std::string &file)
{
    if (capacity <= 0)
        return nullptr;
    auto cache = std::make_shared<EvalCache>(static_cast<size_t>(capacity));
    if (!file.empty()) {
        std::string why;
        int n = loadEvalCache(*cache, file, &why);
        if (n >= 0)
            std::fprintf(stderr, "cache: warm-started %d entries from %s\n",
                         n, file.c_str());
        else
            std::fprintf(stderr, "cache: starting cold: %s\n", why.c_str());
    }
    return cache;
}

/** Persist the cache back to @p file (when both are in play). */
void
closeCache(const std::string &file, const std::shared_ptr<EvalCache> &cache)
{
    if (!cache || file.empty())
        return;
    if (saveEvalCache(*cache, file))
        std::fprintf(stderr, "cache: saved %zu entries to %s\n",
                     cache->size(), file.c_str());
    else
        std::fprintf(stderr, "cache: could not write %s\n", file.c_str());
}

/** Write @p m to --metrics-out (when given), labelled
 *  "<command>-<algo>" ("spec-<algo>" under `run`), with the
 *  invocation's thread count, wall time and cache flag. */
void
writeMetrics(const CliArgs &a, RunMetrics m, const SearchSpec &spec,
             double wall_seconds, bool cache_enabled)
{
    if (a.metricsOut.empty())
        return;
    m.name = (a.command == "run" ? "spec" : a.command) + "-" + spec.algo;
    m.threads = ThreadPool::resolveThreads(spec.eval.threads);
    m.wallSeconds = wall_seconds;
    m.cacheEnabled = cache_enabled;
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

/** Human-mode stdout report of a solo run: the command's headline,
 *  the cost table and the lines every run prints. */
void
printSolo(const CliArgs &a, const std::string &model,
          const SearchSpec &spec, const CoccoResult &r)
{
    const char *name = model.c_str(), *algo = spec.algo.c_str();
    const long long samples = r.samples;
    if (a.command == "partition")
        std::printf("%s: %s partition -> %zu subgraphs\n", name, algo,
                    r.partition.blocks().size());
    else if (a.command == "coexplore")
        std::printf("%s: %s recommends buffer %s after %lld samples\n",
                    name, algo, r.buffer.str().c_str(), samples);
    else
        std::printf("%s: %s (%s) -> buffer %s after %lld samples\n", name,
                    algo,
                    spec.eval.coExplore ? "co-explore" : "partition-only",
                    r.buffer.str().c_str(), samples);
    printCost(r.cost, r.buffer, spec.eval.alpha, spec.eval.metric);
    printDeploymentLine(r.deployment);
    printRacerLines(r.racers);
    if (spec.paretoMode)
        printFrontierLine(r);
}

/** `partition --algo greedy|dp|enum`: the one non-search path (no
 *  samples, no cache, no observer) under the flags' fixed buffer. */
int
runPartitioner(const CliArgs &a)
{
    const SearchSpec spec = specFromArgs(a);
    Graph g = cliWorkload(spec.workload);
    std::unique_ptr<CoccoFramework> cocco = makeFramework(g, spec);
    CostModel &model = cocco->model();
    CoccoResult r;
    r.buffer = spec.fixedBuffer;
    auto t0 = std::chrono::steady_clock::now();
    if (a.algo == "greedy") {
        r.partition = greedyPartition(g, model, r.buffer, a.metric);
    } else if (a.algo == "dp") {
        r.partition = dpPartition(g, model, r.buffer, a.metric);
    } else {
        EnumerationResult e = enumeratePartition(g, model, r.buffer, a.metric);
        if (!e.complete) {
            std::fprintf(stderr,
                         "enumeration exceeded its budget (%lld states)\n",
                         static_cast<long long>(e.statesVisited));
            return 1;
        }
        r.partition = e.best;
    }
    double wall = secondsSince(t0);
    r.cost = model.partitionCost(r.partition, r.buffer);
    r.deployment = model.breakdown(r.partition, r.buffer);
    if (a.json)
        std::printf("%s\n", partitionToJson(g, r.partition).c_str());
    else
        printSolo(a, g.name(), spec, r);
    printTimeline(a, model, r.partition, r.buffer);
    RunMetrics m;
    m.model = g.name();
    m.seed = spec.eval.seed;
    m.bestCost = r.cost.metricValue(a.metric);
    m.hasDeployment = true;
    m.deployment = r.deployment;
    writeMetrics(a, m, spec, wall, false);
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

/** The one path from a SearchSpec to a search's output, shared by
 *  `run`, `coschedule`, `coexplore` and `partition --algo <driver>`,
 *  and the same SpecRun as `cocco serve`: prepare, the progress and
 *  SIGINT observer, checkpoint hooks, the cache, run, the report and
 *  the metrics record. The command picks only its headline, its
 *  --json form and its metrics label. @p where prefixes prepare()'s
 *  errors (the document's path, or "" for the flag modes). */
int
runSearch(const CliArgs &a, SearchSpec spec, const std::string &where)
{
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
    std::string err = run.prepare(spec);
    if (!err.empty())
        fatal("%s%s", where.c_str(), err.c_str());
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
            // An existing-but-corrupt checkpoint, or another run's,
            // is fatal before the run, not a silent cold start: the
            // user asked to resume. The file stays for that run.
            if (!loadCheckpoint(a.checkpointFile, &resume, &ckerr))
                fatal("%s", ckerr.c_str());
            ckerr = checkpointError(resume, run.framework()->model(),
                                    searchSpace(rs), rs);
            if (!ckerr.empty())
                fatal("%s: %s", a.checkpointFile.c_str(), ckerr.c_str());
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
        cache = openCache(static_cast<int64_t>(rs.eval.cacheCapacity),
                          a.cacheFile);
        rs.eval.cache = cache;
        rs.eval.cacheEnabled = cache != nullptr;
    }

    auto t0 = std::chrono::steady_clock::now();
    run.run();
    double wall = secondsSince(t0);
    closeCache(a.cacheFile, cache);

    RunMetrics m = run.metrics();
    if (a.json) {
        const std::string json =
            a.command == "partition"
                ? partitionToJson(run.framework()->model().graph(),
                                  run.result().partition)
                : run.resultJson();
        std::printf("%s\n", json.c_str());
    } else {
        if (run.coSchedule())
            printScheduleLines(run);
        else
            printSolo(a, run.modelName(), rs, run.result());
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
    writeMetrics(a, m, rs, wall, cache != nullptr);

    // A run that ended for good (budget/stall) leaves no checkpoint
    // behind — resuming a finished run would be a silent no-op.
    if (checkpoint && (run.stop() == StopReason::BudgetExhausted ||
                       run.stop() == StopReason::Stalled))
        std::remove(a.checkpointFile.c_str());
    return g_interrupted.load(std::memory_order_relaxed) ? 130 : 0;
}

/** `cocco run --spec FILE` and `cocco coschedule --spec FILE`: the
 *  document is the search (runSearch); the command line adds only
 *  output and persistence knobs. `coschedule` insists on a
 *  "workload_set". */
int
runDocument(const CliArgs &a)
{
    if (a.specFile.empty())
        fatal("%s needs --spec FILE", a.command.c_str());
    JsonValue doc;
    std::string err;
    if (!loadJsonFile(a.specFile, &doc, &err))
        fatal("%s", err.c_str());
    SearchSpec spec;
    if (!parseRunSpec(doc, &spec, &err))
        fatal("%s: %s", a.specFile.c_str(), err.c_str());
    if (a.command == "coschedule" && !spec.workloadSet.enabled())
        fatal("%s: coschedule needs a \"workload_set\" with >= 2 "
              "tenants (one tenant is a plain run; use `cocco run`)",
              a.specFile.c_str());
    return runSearch(a, spec, a.specFile + ": ");
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
    opts.cache = openCache(a.cacheSize, a.cacheFile);
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
    closeCache(a.cacheFile, manager.cache());
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs a = parse(argc, argv);
    const bool partitioner =
        a.command == "partition" &&
        (a.algo == "greedy" || a.algo == "dp" || a.algo == "enum");
    const bool document = a.command == "run" || a.command == "coschedule";
    const bool flag_search =
        (a.command == "coexplore" || a.command == "partition") &&
        !partitioner;
    if (document || flag_search || partitioner)
        refuseForeignFlags(a);

    // Graceful-interrupt modes: every search, batch and serve.
    // Elsewhere (greedy/dp/enum included) the default SIGINT
    // disposition (kill) is the right behavior.
    if (document || flag_search || a.command == "batch" ||
        a.command == "serve")
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
    if (document)
        return runDocument(a);
    if (a.command == "batch")
        return runBatch(a);
    if (a.command == "serve")
        return runServe(a);
    if (a.command == "validate-metrics") {
        if (a.model.empty())
            usage();
        JsonValue doc;
        std::string generator, err;
        std::vector<RunMetrics> runs;
        if (!loadJsonFile(a.model, &doc, &err))
            fatal("%s", err.c_str());
        if (!metricsFromJson(doc, &generator, &runs, &err))
            fatal("%s: %s", a.model.c_str(), err.c_str());
        std::printf("%s: ok (%s, %zu run%s)\n", a.model.c_str(),
                    generator.c_str(), runs.size(),
                    runs.size() == 1 ? "" : "s");
        return 0;
    }
    if (a.command == "describe") {
        Graph g = cliWorkload(specFromArgs(a).workload);
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
        Graph g = cliWorkload(specFromArgs(a).workload);
        std::printf("%s\n", graphToJson(g).c_str());
        return 0;
    }
    if (a.command == "timeline") {
        // On the framework `partition --algo greedy` builds, so a
        // deployment gets its per-core lanes.
        const SearchSpec spec = specFromArgs(a);
        Graph g = cliWorkload(spec.workload);
        std::unique_ptr<CoccoFramework> cocco = makeFramework(g, spec);
        const BufferConfig &buf = spec.fixedBuffer;
        Partition p = greedyPartition(g, cocco->model(), buf, a.metric);
        Timeline tl = buildTimeline(cocco->model(), p, buf);
        std::printf("%s: greedy partition timeline\n%s", g.name().c_str(),
                    tl.gantt().c_str());
        return 0;
    }
    if (a.command == "dot") {
        Graph g = cliWorkload(specFromArgs(a).workload);
        if (a.runs > 0) {
            Partition p = Partition::fixedRuns(g, a.runs);
            p.canonicalize(g);
            std::printf("%s", toDot(g, p).c_str());
        } else {
            std::printf("%s", toDot(g).c_str());
        }
        return 0;
    }
    if (partitioner)
        return runPartitioner(a);
    if (flag_search) {
        if (a.command == "partition" &&
            !SearcherRegistry::instance().contains(a.algo))
            usage();
        return runSearch(a, specFromArgs(a), "");
    }
    usage();
}
