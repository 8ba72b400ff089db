#include "search/ga.h"

#include <algorithm>

#include "partition/repair.h"
#include "search/checkpoint.h"
#include "search/operators.h"
#include "search/pareto.h"
#include "util/logging.h"

namespace cocco {

std::string
gaParamsError(const GaParams &p)
{
    if (p.population < 2)
        return "ga.population must be >= 2";
    if (p.tournament < 1)
        return "ga.tournament must be >= 1";
    return "";
}

namespace {

/** Guard the GA knobs (specs are checked before they get here); the
 *  engine consumes the EvalOptions base of the same struct directly
 *  (GaOptions slices to it). */
const GaOptions &
validated(const GaOptions &opts)
{
    fatalIf(gaParamsError(opts));
    return opts;
}

} // namespace

GeneticSearch::GeneticSearch(CostModel &model, const DseSpace &space,
                             const GaOptions &opts,
                             std::shared_ptr<ThreadPool> pool)
    : model_(model), space_(space), opts_(opts),
      engine_(model, space, validated(opts), std::move(pool))
{
}

double
GeneticSearch::evaluate(Genome &genome)
{
    return engine_.evaluate(genome);
}

SearchResult
GeneticSearch::run(const std::vector<Genome> &seeds)
{
    // Master stream: selection only. Variation and evaluation draw
    // from per-offspring streams inside the engine, so population
    // batches parallelize without perturbing this sequence.
    Rng rng(opts_.seed);
    SearchResult res;
    SearchMonitor &mon = engine_.monitor();
    EvalCacheStats cache_start;
    if (engine_.cache())
        cache_start = engine_.cache()->stats();

    struct Scored
    {
        Genome genome;
        double cost = kInfeasiblePenalty;
    };
    std::vector<Scored> pop;
    pop.reserve(opts_.population);

    auto record = [&](const Scored &s) {
        ++res.samples;
        bool improved = s.cost < res.bestCost;
        if (improved) {
            res.bestCost = s.cost;
            res.best = s.genome;
        }
        res.trace.push_back({res.samples, res.bestCost});
        mon.recordSample(res.trace.back(), improved);
        if (opts_.recordPoints || opts_.pareto) {
            BufferConfig buf = s.genome.buffer(space_);
            GraphCost gc = model_.partitionCost(s.genome.part, buf);
            if (opts_.recordPoints)
                res.points.push_back({res.samples,
                                      gc.metricValue(opts_.metric),
                                      buf.totalBytes()});
            if (opts_.pareto && gc.feasible)
                opts_.pareto->offer({buf.totalBytes(), gc.energyPj,
                                     gc.latencyCycles,
                                     gc.metricValue(opts_.metric),
                                     res.samples});
        }
    };

    auto tournament_pick = [&](const std::vector<Scored> &pool,
                               Rng &r) -> const Scored & {
        const Scored *best = &pool[r.index(pool.size())];
        for (int t = 1; t < opts_.tournament; ++t) {
            const Scored &c = pool[r.index(pool.size())];
            if (c.cost < best->cost)
                best = &c;
        }
        return *best;
    };

    // --- Checkpointing: snapshots are taken only at generation
    //     boundaries (after selection refilled the population), where
    //     (rng, stream counter, population, incumbent, trace) form a
    //     consistent serial state. `boundary` holds the stream counter
    //     captured there — the live counter is already past it while a
    //     batch is in flight, including discarded partial ones. ---
    CheckpointHooks *ck = opts_.checkpoint;
    const uint64_t fence =
        ck ? gaCheckpointFence(model_, space_, opts_) : 0;
    uint64_t boundary = 0;
    auto snapshot = [&]() {
        SearchCheckpoint c;
        c.algo = "ga";
        c.fence = fence;
        c.seed = opts_.seed;
        c.samples = res.samples;
        c.bestCost = res.bestCost;
        c.best = res.best;
        c.trace = res.trace;
        c.points = res.points;
        c.rng = rng.state();
        c.streamCounter = boundary;
        c.sinceImprove = mon.samplesSinceImprove();
        for (const Scored &s : pop) {
            c.population.push_back(s.genome);
            c.popCosts.push_back(s.cost);
        }
        return c;
    };
    auto serve_request = [&]() {
        if (ck && ck->save &&
            ck->request.exchange(false, std::memory_order_acq_rel))
            ck->save(snapshot());
    };

    // --- Initialization: resume from a checkpoint, or run one batch
    //     through the engine (optionally seeded with external
    //     results). A batch cut short by a hard stop is discarded
    //     whole: which elements ran depends on timing, so recording
    //     any of them would break determinism. ---
    bool complete;
    if (ck && ck->resume) {
        const SearchCheckpoint &c = *ck->resume;
        if (c.algo != "ga" || c.fence != fence)
            fatal("checkpoint does not match this run (saved by \"%s\", "
                  "fence mismatch or different configuration)",
                  c.algo.c_str());
        if (c.population.size() != static_cast<size_t>(opts_.population) ||
            c.popCosts.size() != c.population.size())
            fatal("checkpoint population does not match the configured "
                  "GA population");
        res.samples = c.samples;
        res.bestCost = c.bestCost;
        res.best = c.best;
        res.trace = c.trace;
        res.points = c.points;
        rng.setState(c.rng);
        engine_.setStreamCounter(c.streamCounter);
        boundary = c.streamCounter;
        mon.restoreStall(c.sinceImprove);
        for (size_t i = 0; i < c.population.size(); ++i)
            pop.push_back({c.population[i], c.popCosts[i]});
        complete = true;
    } else {
        size_t n = static_cast<size_t>(opts_.population);
        size_t n_seed = std::min(seeds.size(), n);
        std::vector<Scored> init(n);
        for (size_t i = 0; i < n_seed; ++i)
            init[i].genome = seeds[i];
        complete = engine_.forEachStream(n, [&](size_t i, Rng &r) {
            if (i >= n_seed)
                init[i].genome = randomGenome(model_.graph(), space_, r);
            init[i].cost = engine_.evaluate(init[i].genome);
        });
        if (complete) {
            for (Scored &s : init) {
                record(s);
                pop.push_back(std::move(s));
            }
            mon.batchDone(res.samples, res.bestCost);
            boundary = engine_.streamCounter();
            serve_request();
        }
    }

    // --- Generations. ---
    while (complete && !mon.shouldStop() &&
           res.samples < opts_.sampleBudget) {
        size_t want = static_cast<size_t>(
            std::min<int64_t>(opts_.population,
                              opts_.sampleBudget - res.samples));
        if (want == 0)
            break;

        // Offspring are produced *and* evaluated inside the batch:
        // slot i draws its crossover/mutation decisions from stream i
        // against the read-only parent population, so the batch is
        // embarrassingly parallel yet deterministic.
        std::vector<Scored> offspring(want);
        const std::vector<Scored> &parents = pop;
        complete = engine_.forEachStream(want, [&](size_t i, Rng &r) {
            Genome child;
            GeneDelta delta;
            if (r.bernoulli(opts_.crossoverRate)) {
                const Scored &dad = tournament_pick(parents, r);
                const Scored &mom = tournament_pick(parents, r);
                child = crossover(model_.graph(), space_, dad.genome,
                                  mom.genome, r, &delta);
            } else {
                child = tournament_pick(parents, r).genome;
            }
            if (r.bernoulli(opts_.mutPartitionRate)) {
                switch (r.index(3)) {
                  case 0:
                    mutateModifyNode(model_.graph(), child, r, &delta);
                    break;
                  case 1:
                    mutateSplitSubgraph(model_.graph(), child, r, &delta);
                    break;
                  default:
                    mutateMergeSubgraph(model_.graph(), child, r, &delta);
                }
            }
            if (space_.searchHw && r.bernoulli(opts_.mutDseRate))
                mutateDse(space_, child, r, 2.0, &delta);

            offspring[i].genome = std::move(child);
            offspring[i].cost =
                engine_.evaluate(offspring[i].genome, &delta);
        });
        if (!complete)
            break; // partial batch: discard and end the run
        for (const Scored &sc : offspring)
            record(sc);
        mon.batchDone(res.samples, res.bestCost);

        // --- Tournament selection over the merged pool, keeping the
        //     elite unconditionally. ---
        std::vector<Scored> pool = std::move(pop);
        pool.insert(pool.end(), std::make_move_iterator(offspring.begin()),
                    std::make_move_iterator(offspring.end()));
        std::sort(pool.begin(), pool.end(),
                  [](const Scored &a, const Scored &b) {
                      return a.cost < b.cost;
                  });
        pop.clear();
        int elite = std::min<int>(opts_.elite, static_cast<int>(pool.size()));
        for (int e = 0; e < elite; ++e)
            pop.push_back(pool[e]);
        while (static_cast<int>(pop.size()) < opts_.population)
            pop.push_back(tournament_pick(pool, rng));

        boundary = engine_.streamCounter();
        serve_request();
    }

    res.stop = mon.stopReason();
    // The killed-job path: the run ended early, so persist the last
    // boundary — resuming from it replays the rest bit-identically.
    // (A budget/stall end is final; nothing left to resume.)
    if (ck && ck->save && ck->saveOnStop && !pop.empty() &&
        (res.stop == StopReason::Cancelled ||
         res.stop == StopReason::TimeLimit))
        ck->save(snapshot());
    if (res.samples > 0) {
        res.bestBuffer = res.best.buffer(space_);
        res.bestGraphCost =
            model_.partitionCost(res.best.part, res.bestBuffer);
    }
    if (engine_.cache())
        res.cacheStats = engine_.cache()->stats() - cache_start;
    res.deltaStats = engine_.deltaStats();
    return res;
}

} // namespace cocco
