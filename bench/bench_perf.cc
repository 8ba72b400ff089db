/**
 * @file
 * Pinned performance basket (perf_diff gate input).
 *
 * Runs a fixed set of timed workloads — cold/warm GA evaluation
 * throughput, raw partitionCost assembly rate, a co-exploration wall
 * clock, incumbent-screened evaluation (pruning) vs. exhaustive
 * evaluation, the exploration-service drain rate, multi-tenant
 * schedule evaluation throughput, the racing portfolio's
 * time-to-target against the best solo algorithm, and the pareto-mode
 * frontier production rate — and writes one flat JSON snapshot:
 *
 *   {"schema_version":1, "generator":"bench_perf", "date":"...",
 *    "series":{"<name>":{"value":N,"unit":"...",
 *              "higher_is_better":bool}, ...}}
 *
 * CI diffs the snapshot against the committed BENCH_<date>.json
 * baseline with tools/perf_diff and fails on a >10% regression in any
 * series. Timed sections run best-of-N to damp scheduler noise.
 *
 * The basket also asserts the pruning contract while it measures it:
 * the screened and exhaustive streams must track the same incumbent
 * bit-for-bit, a pruned and an unpruned GA run must return the same
 * result, and the screening speedup must clear a 1.5x floor. Any
 * violation exits non-zero, so the CI perf job doubles as a
 * correctness gate.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/cocco.h"
#include "core/serialize.h"
#include "partition/repair.h"
#include "schedule/co_scheduler.h"
#include "search/operators.h"
#include "serve/job_manager.h"
#include "util/json.h"

using namespace cocco;
using namespace cocco::bench;

namespace {

struct Series
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
    bool higherIsBetter = true;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** GA co-exploration run on a fresh CostModel (no cross-run memo). */
struct GaRun
{
    double seconds = 0.0;
    SearchResult result;
};

GaRun
runGa(const Graph &g, const AcceleratorConfig &accel, int64_t budget,
      int population, uint64_t seed, bool pruning,
      const std::shared_ptr<EvalCache> &cache)
{
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions opts;
    opts.population = population;
    opts.sampleBudget = budget;
    opts.seed = seed;
    opts.threads = 1;
    opts.pruning = pruning;
    opts.cacheEnabled = cache != nullptr;
    opts.cache = cache;
    GaRun r;
    double t0 = now();
    r.result = GeneticSearch(model, space, opts).run();
    r.seconds = now() - t0;
    return r;
}

bool
sameResult(const SearchResult &a, const SearchResult &b)
{
    if (a.bestCost != b.bestCost || a.samples != b.samples ||
        a.trace.size() != b.trace.size())
        return false;
    for (size_t i = 0; i < a.trace.size(); ++i)
        if (a.trace[i].sample != b.trace[i].sample ||
            a.trace[i].bestCost != b.trace[i].bestCost)
            return false;
    return true;
}

std::string
today()
{
    std::time_t t = std::time(nullptr);
    char buf[16];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d", std::localtime(&t));
    return buf;
}

bool
writeSnapshot(const std::string &path, const std::vector<Series> &series)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version", 1);
    w.field("generator", "bench_perf");
    w.field("date", today());
    w.key("series").beginObject();
    for (const Series &s : series) {
        w.key(s.name).beginObject();
        w.field("value", s.value);
        w.field("unit", s.unit);
        w.field("higher_is_better", s.higherIsBetter);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::string doc = w.str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(argc, argv, "pinned performance basket");
    std::string out = "BENCH_" + today() + ".json";
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[i + 1];
    banner("Pinned performance basket (perf_diff gate input)", args);

    const int repeats = 3; // timed sections keep their best repeat
    AcceleratorConfig accel = paperAccelerator();
    Graph g = buildModel("GoogleNet");
    int64_t budget = args.full ? 20000 : 3000;
    int population = args.full ? 500 : 50;
    bool failed = false;
    std::vector<Series> series;

    // --- Cold / warm GA evaluation throughput + cache hit rate. ---
    {
        double cold_rate = 0.0, warm_rate = 0.0, hit_rate = 0.0;
        double cold_s = 0.0, warm_s = 0.0;
        for (int r = 0; r < repeats; ++r) {
            auto cache = std::make_shared<EvalCache>();
            GaRun cold = runGa(g, accel, budget, population, args.seed,
                               true, cache);
            GaRun warm = runGa(g, accel, budget, population, args.seed,
                               true, cache);
            double cr = cold.result.samples / cold.seconds;
            double wr = warm.result.samples / warm.seconds;
            if (cr > cold_rate) {
                cold_rate = cr;
                cold_s = cold.seconds;
            }
            if (wr > warm_rate) {
                warm_rate = wr;
                warm_s = warm.seconds;
                hit_rate = warm.result.cacheStats.hitRate();
            }
        }
        std::printf("cold: %lld evals in %.2fs, warm: %.2fs "
                    "(hit rate %.0f%%)\n",
                    static_cast<long long>(budget), cold_s, warm_s,
                    100.0 * hit_rate);
        series.push_back({"eval_throughput_cold", cold_rate, "evals/s",
                          true});
        series.push_back({"eval_throughput_warm", warm_rate, "evals/s",
                          true});
        series.push_back({"cache_hit_rate_warm", hit_rate, "ratio", true});
    }

    // --- Raw partitionCost assembly rate on a warmed profile memo. ---
    {
        CostModel model(g, accel);
        DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
        BufferConfig buf = space.fixed;
        buf.style = BufferStyle::Shared;
        buf.sharedBytes = 2 * 1024 * 1024;
        Rng rng(args.seed);
        std::vector<Partition> parts;
        for (int i = 0; i < 64; ++i) {
            Genome x = randomGenome(g, space, rng);
            parts.push_back(repairToCapacity(g, std::move(x.part), model,
                                             buf));
        }
        for (const Partition &p : parts) // warm the memo
            model.partitionCost(p, buf);
        double best = 0.0;
        for (int r = 0; r < repeats; ++r) {
            int calls = 0;
            double t0 = now(), elapsed = 0.0;
            while (elapsed < 0.2) {
                for (const Partition &p : parts)
                    model.partitionCost(p, buf);
                calls += static_cast<int>(parts.size());
                elapsed = now() - t0;
            }
            best = std::max(best, calls / elapsed);
        }
        std::printf("partitionCost: %.0f calls/s (warm memo)\n", best);
        series.push_back({"partition_cost_per_sec", best, "calls/s", true});
    }

    // --- Co-exploration wall clock (the CLI's default GA path). ---
    {
        double best_s = 0.0;
        double objective = 0.0;
        for (int r = 0; r < repeats; ++r) {
            GaRun run = runGa(g, accel, budget, population, args.seed,
                              true, std::make_shared<EvalCache>());
            if (best_s == 0.0 || run.seconds < best_s)
                best_s = run.seconds;
            objective = run.result.bestCost;
        }
        std::printf("coexplore: %lld samples in %.2fs (objective %.4g)\n",
                    static_cast<long long>(budget), best_s, objective);
        series.push_back({"coexplore_wall_seconds", best_s, "s", false});
    }

    // --- Incumbent-screened vs exhaustive evaluation (pruning). ---
    {
        DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
        int64_t n = args.full ? 20000 : 3000;
        Rng rng(args.seed * 77 + 1);
        std::vector<Genome> stream;
        for (int64_t i = 0; i < n; ++i)
            stream.push_back(randomGenome(g, space, rng));

        // Incumbent from a short exhaustive warm-up.
        double incumbent = kInfeasiblePenalty;
        {
            CostModel model(g, accel);
            EvalOptions opts;
            opts.cacheEnabled = false;
            opts.threads = 1;
            EvalEngine eng(model, space, opts);
            for (size_t i = 0; i < 100 && i < stream.size(); ++i) {
                Genome t = stream[i];
                incumbent = std::min(incumbent, eng.evaluate(t));
            }
        }

        double rate_off = 0.0, rate_on = 0.0;
        double best_off = 0.0, best_on = 0.0;
        uint64_t pruned = 0;
        for (int r = 0; r < repeats; ++r) {
            { // exhaustive
                CostModel model(g, accel);
                EvalOptions opts;
                opts.cacheEnabled = false;
                opts.threads = 1;
                opts.pruning = false;
                EvalEngine eng(model, space, opts);
                std::vector<Genome> gs = stream;
                double best = incumbent;
                double t0 = now();
                for (Genome &x : gs)
                    best = std::min(best, eng.evaluate(x));
                rate_off = std::max(rate_off, n / (now() - t0));
                best_off = best;
            }
            { // screened against the running incumbent
                CostModel model(g, accel);
                EvalOptions opts;
                opts.cacheEnabled = false;
                opts.threads = 1;
                opts.pruning = true;
                EvalEngine eng(model, space, opts);
                std::vector<Genome> gs = stream;
                double best = incumbent;
                double t0 = now();
                for (Genome &x : gs) {
                    bool skipped = false;
                    double c = eng.evaluateBounded(x, best, &skipped);
                    if (!skipped)
                        best = std::min(best, c);
                }
                rate_on = std::max(rate_on, n / (now() - t0));
                best_on = best;
                pruned = eng.boundRejections();
            }
        }
        double speedup = rate_off > 0.0 ? rate_on / rate_off : 0.0;
        std::printf("pruning off: %.0f evals/s, on: %.0f evals/s "
                    "(%.2fx; %llu pruned)\n",
                    rate_off, rate_on, speedup,
                    static_cast<unsigned long long>(pruned));
        if (best_off != best_on) {
            std::fprintf(stderr,
                         "FAIL: pruning changed the search result "
                         "(best %.17g vs %.17g)\n",
                         best_off, best_on);
            failed = true;
        }
        if (speedup < 1.5) {
            std::fprintf(stderr,
                         "FAIL: prune_speedup %.2fx below the 1.5x floor\n",
                         speedup);
            failed = true;
        }
        series.push_back({"eval_rate_unpruned", rate_off, "evals/s", true});
        series.push_back({"eval_rate_pruned", rate_on, "evals/s", true});
        series.push_back({"prune_speedup", speedup, "ratio", true});
    }

    // --- End-to-end identity: a pruned and an unpruned GA run. ---
    {
        GaRun off = runGa(g, accel, std::min<int64_t>(budget, 2000),
                          population, args.seed, false, nullptr);
        GaRun on = runGa(g, accel, std::min<int64_t>(budget, 2000),
                         population, args.seed, true, nullptr);
        if (!sameResult(off.result, on.result)) {
            std::fprintf(stderr,
                         "FAIL: pruning changed the search result "
                         "(best %.17g vs %.17g)\n",
                         off.result.bestCost, on.result.bestCost);
            failed = true;
        }
    }

    // --- Exploration-service throughput (JobManager drain rate). ---
    {
        int n_jobs = args.full ? 100 : 20;
        double best_rate = 0.0;
        for (int r = 0; r < repeats; ++r) {
            JobManagerOptions mopts;
            mopts.workers = 2;
            mopts.threadBudget = 2;
            mopts.queueCapacity = n_jobs;
            JobManager manager(mopts);
            double t0 = now();
            for (int i = 0; i < n_jobs; ++i) {
                SearchSpec spec;
                spec.algo = "ga";
                spec.workload.model = "GoogleNet";
                spec.eval.sampleBudget = 150;
                spec.eval.seed = 1 + static_cast<uint64_t>(i % 4);
                spec.eval.threads = 1;
                spec.ga.population = 25;
                std::string err;
                if (manager.submit(spec, "bench", &err) < 0) {
                    std::fprintf(stderr, "FAIL: serve submit: %s\n",
                                 err.c_str());
                    failed = true;
                    break;
                }
            }
            manager.drain();
            for (const JobStatus &s : manager.jobs())
                if (s.state != JobState::Done) {
                    std::fprintf(stderr,
                                 "FAIL: serve job %lld ended %s\n",
                                 static_cast<long long>(s.id),
                                 jobStateName(s.state));
                    failed = true;
                }
            best_rate = std::max(best_rate, n_jobs / (now() - t0));
        }
        std::printf("serve: %d jobs drained at %.1f jobs/s (2 workers)\n",
                    n_jobs, best_rate);
        series.push_back({"serve_jobs_per_sec", best_rate, "jobs/s",
                          true});
    }

    // --- Co-schedule evaluation throughput (ScheduleCostModel). ---
    // A 2-tenant set on the big-little preset: search once per
    // strategy (asserting the searched placement is no worse than the
    // myopic baseline), then time pure schedule evaluations over
    // every placement of the searched buffer/partitions.
    {
        WorkloadSet set;
        TenantSpec vision;
        vision.name = "vision";
        vision.workload.model = "GoogleNet";
        vision.arrivalRateHz = 40.0;
        vision.slaLatencyMs = 18.0;
        TenantSpec mobile;
        mobile.name = "mobile";
        mobile.workload.model = "MobileNetV2";
        mobile.arrivalRateHz = 25.0;
        mobile.slaLatencyMs = 30.0;
        set.tenants = {vision, mobile};
        std::vector<Graph> graphs;
        graphs.push_back(buildModel("GoogleNet"));
        graphs.push_back(buildModel("MobileNetV2"));

        DeploymentSpec dspec;
        dspec.enabled = true;
        dspec.preset = "big-little";
        DeploymentConfig dep;
        std::string err;
        if (!resolveDeployment(dspec, accel, &dep, &err)) {
            std::fprintf(stderr, "FAIL: coschedule deployment: %s\n",
                         err.c_str());
            failed = true;
        } else {
            SearchSpec sspec;
            sspec.eval.sampleBudget = args.full ? 2000 : 400;
            sspec.eval.seed = args.seed;
            sspec.ga.population = 12;

            sspec.algo = "greedy-place";
            ScheduleResult greedy =
                CoScheduler(graphs, set, dep).explore(sspec);
            sspec.algo = "ga";
            CoScheduler sched(graphs, set, dep);
            ScheduleResult searched = sched.explore(sspec);
            if (searched.objective > greedy.objective) {
                std::fprintf(stderr,
                             "FAIL: searched schedule (%.17g) worse "
                             "than greedy-place (%.17g)\n",
                             searched.objective, greedy.objective);
                failed = true;
            }

            ScheduleCostModel &model = sched.model();
            const int cores = model.cores();
            double best_rate = 0.0;
            for (int r = 0; r < repeats; ++r) {
                int64_t evals = 0;
                double t0 = now(), elapsed = 0.0;
                while (elapsed < 0.2) {
                    Schedule s = searched.schedule;
                    for (int c0 = 0; c0 < cores; ++c0)
                        for (int c1 = 0; c1 < cores; ++c1) {
                            s.coreOf = {c0, c1};
                            model.evaluate(s);
                            ++evals;
                        }
                    elapsed = now() - t0;
                }
                best_rate = std::max(best_rate, evals / elapsed);
            }
            std::printf("coschedule: %.0f schedule evals/s "
                        "(2 tenants on big-little)\n",
                        best_rate);
            series.push_back({"coschedule_evals_per_sec", best_rate,
                              "evals/s", true});
        }
    }

    // --- Portfolio time-to-target vs. the best single algorithm. ---
    // Four solo runs (fresh model + cache each, threads=1) establish
    // the target: the best final cost any single algorithm reaches at
    // this budget. The portfolio then races the same four over ONE
    // shared cache (deterministic mode, so the basket is
    // reproducible) and must reach that target — shared-cache racing
    // must not regress the winner. The wall-clock floor scales the
    // best solo's time-to-target by the race overhead: with a core
    // per racer the portfolio tracks the winning solo, while on
    // smaller hosts the racers time-share the winner's core until the
    // losers are culled, so the floor widens by the racer count. The
    // committed snapshot + perf_diff tracks the raw seconds tightly.
    {
        struct ImproveLog final : SearchObserver
        {
            double t0 = 0.0;
            std::vector<std::pair<double, double>> hits; // (sec, cost)
            void
            onImprove(const TracePoint &tp) override
            {
                hits.emplace_back(now() - t0, tp.bestCost);
            }
        };
        auto timeToTarget = [](const ImproveLog &log, double target) {
            for (const auto &h : log.hits)
                if (h.second <= target)
                    return h.first;
            return -1.0;
        };

        const std::vector<std::string> racers{"ga", "sa", "ts-random",
                                              "ts-grid"};
        std::vector<ImproveLog> logs(racers.size());
        double min_best = kInfeasiblePenalty;
        for (size_t i = 0; i < racers.size(); ++i) {
            SearchSpec spec = searchSpec(racers[i], args);
            spec.eval.coExplore = true;
            spec.eval.sampleBudget = budget;
            spec.eval.threads = 1;
            spec.eval.observer = &logs[i];
            CoccoFramework cocco(g, accel);
            logs[i].t0 = now();
            CoccoResult r = cocco.explore(spec);
            min_best = std::min(min_best, r.objective);
        }
        double best_solo = -1.0;
        for (const ImproveLog &log : logs) {
            double t = timeToTarget(log, min_best);
            if (t >= 0.0 && (best_solo < 0.0 || t < best_solo))
                best_solo = t;
        }

        SearchSpec pspec = searchSpec("portfolio", args);
        pspec.eval.coExplore = true;
        pspec.eval.sampleBudget = budget;
        pspec.eval.threads = static_cast<int>(racers.size());
        pspec.portfolio.racers = racers;
        pspec.portfolio.deterministicRace = true;
        pspec.portfolio.checkEvals = 250;
        pspec.portfolio.warmupEvals = 500;
        ImproveLog plog;
        pspec.eval.observer = &plog;
        CoccoFramework cocco(g, accel);
        plog.t0 = now();
        CoccoResult pr = cocco.explore(pspec);
        double ttt = timeToTarget(plog, min_best);

        const char *winner = "?";
        for (const RacerStats &rs : pr.racers)
            if (rs.winner)
                winner = rs.algo.c_str();
        std::printf("portfolio: target %.6g reached in %.2fs "
                    "(best solo %.2fs, winner %s, %lld total evals)\n",
                    min_best, ttt, best_solo, winner,
                    static_cast<long long>(pr.samples));

        if (pr.objective > min_best) {
            std::fprintf(stderr,
                         "FAIL: portfolio winner (%.17g) regressed the "
                         "best solo result (%.17g)\n",
                         pr.objective, min_best);
            failed = true;
        }
        if (ttt < 0.0) {
            std::fprintf(stderr, "FAIL: portfolio never reached the "
                                 "best solo target\n");
            failed = true;
        } else if (best_solo >= 0.0) {
            unsigned cores = std::thread::hardware_concurrency();
            double oversub = cores != 0 && cores < racers.size()
                                 ? static_cast<double>(racers.size())
                                 : 1.0;
            double allowed = best_solo * 1.5 * oversub;
            if (ttt > allowed) {
                std::fprintf(stderr,
                             "FAIL: portfolio time-to-target %.2fs "
                             "above the %.2fs floor (best solo %.2fs)\n",
                             ttt, allowed, best_solo);
                failed = true;
            }
        }
        series.push_back({"portfolio_time_to_target_seconds", ttt, "s",
                          false});
    }

    // --- Pareto frontier throughput (`"mode": "pareto"`). ---
    // One frontier-producing co-exploration: the non-dominated
    // {buffer, energy, latency} archive rides the eval loop, so the
    // series prices the whole trade-off curve, not one scalarization.
    {
        double best_rate = 0.0, best_s = 0.0;
        size_t points = 0;
        for (int r = 0; r < repeats; ++r) {
            SearchSpec spec = searchSpec("ga", args);
            spec.paretoMode = true;
            spec.eval.coExplore = true;
            spec.eval.sampleBudget = budget;
            spec.eval.threads = 1;
            spec.eval.alpha = 2e-3;
            spec.eval.metric = Metric::Energy;
            CoccoFramework cocco(g, accel);
            double t0 = now();
            CoccoResult res = cocco.explore(spec);
            double s = now() - t0;
            double rate = static_cast<double>(res.frontier.size()) / s;
            if (rate > best_rate) {
                best_rate = rate;
                best_s = s;
                points = res.frontier.size();
            }
        }
        std::printf("pareto: %zu frontier points in %.2fs "
                    "(%.1f points/s)\n",
                    points, best_s, best_rate);
        if (points < 3) {
            std::fprintf(stderr, "FAIL: pareto frontier resolved only "
                                 "%zu points (need >= 3)\n",
                         points);
            failed = true;
        }
        series.push_back({"pareto_frontier_points_per_sec", best_rate,
                          "points/s", true});
    }

    if (!writeSnapshot(out, series)) {
        std::fprintf(stderr, "error: could not write %s\n", out.c_str());
        return 1;
    }
    std::printf("\nsnapshot: %s (%zu series) — diff against a baseline "
                "with perf_diff\n",
                out.c_str(), series.size());
    return failed ? 1 : 0;
}
