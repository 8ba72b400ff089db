#include "search/sa.h"

#include <algorithm>
#include <cmath>

#include "search/checkpoint.h"
#include "search/operators.h"
#include "search/pareto.h"
#include "util/logging.h"

namespace cocco {

std::string
saParamsError(const SaParams &p)
{
    return p.neighborBatch < 1 ? "sa.neighborBatch must be >= 1" : "";
}

SearchResult
simulatedAnnealing(CostModel &model, const DseSpace &space,
                   const SaOptions &opts)
{
    fatalIf(saParamsError(opts)); // specs are checked before this
    Rng rng(opts.seed);

    // Same evaluation environment as the GA (in-situ capacity tuning
    // included), shared through the parallel engine. SaOptions slices
    // to the shared EvalOptions core.
    EvalEngine engine(model, space, opts);
    SearchMonitor &mon = engine.monitor();
    EvalCacheStats cache_start;
    if (engine.cache())
        cache_start = engine.cache()->stats();

    const int batch = opts.neighborBatch;

    SearchResult res;
    Genome cur;
    double cur_cost = 0.0;
    double t0 = 0.0;

    auto record = [&](const Genome &genome, double cost) {
        ++res.samples;
        bool improved = cost < res.bestCost;
        if (improved) {
            res.bestCost = cost;
            res.best = genome;
        }
        res.trace.push_back({res.samples, res.bestCost});
        mon.recordSample(res.trace.back(), improved);
        if (opts.pareto) {
            BufferConfig buf = genome.buffer(space);
            GraphCost gc = model.partitionCost(genome.part, buf);
            if (gc.feasible)
                opts.pareto->offer({buf.totalBytes(), gc.energyPj,
                                    gc.latencyCycles,
                                    gc.metricValue(opts.metric),
                                    res.samples});
        }
    };

    // --- Checkpointing at sweep boundaries (see GA): `boundary` is
    //     the stream counter after the last fully recorded sweep; t0
    //     rides along because the temperature schedule is frozen from
    //     the very first evaluation. ---
    CheckpointHooks *ck = opts.checkpoint;
    const uint64_t fence = ck ? saCheckpointFence(model, space, opts) : 0;
    uint64_t boundary = 0;
    auto strip = [](Genome g) {
        g.evalRecord = nullptr;
        return g;
    };
    auto make_checkpoint = [&]() {
        SearchCheckpoint c;
        c.algo = "sa";
        c.fence = fence;
        c.seed = opts.seed;
        c.samples = res.samples;
        c.bestCost = res.bestCost;
        c.best = strip(res.best);
        c.trace = res.trace;
        c.rng = rng.state();
        c.streamCounter = boundary;
        c.sinceImprove = mon.samplesSinceImprove();
        c.hasSa = true;
        c.saCur = strip(cur);
        c.saCurCost = cur_cost;
        c.saT0 = t0;
        return c;
    };

    if (ck && ck->resume) {
        const SearchCheckpoint &c = *ck->resume;
        if (c.algo != "sa" || c.fence != fence)
            fatal("checkpoint does not match this run (saved by \"%s\", "
                  "fence mismatch or different configuration)",
                  c.algo.c_str());
        if (!c.hasSa)
            fatal("checkpoint is missing the SA state section");
        res.samples = c.samples;
        res.bestCost = c.bestCost;
        res.best = c.best;
        res.trace = c.trace;
        rng.setState(c.rng);
        engine.setStreamCounter(c.streamCounter);
        boundary = c.streamCounter;
        mon.restoreStall(c.sinceImprove);
        cur = c.saCur;
        cur_cost = c.saCurCost;
        t0 = c.saT0;
    } else {
        // The initial state is evaluated serially (no stream draw), so
        // the boundary stream counter stays 0 here.
        cur = randomGenome(model.graph(), space, rng);
        cur_cost = engine.evaluate(cur);
        record(cur, cur_cost);
        mon.batchDone(res.samples, res.bestCost);
        t0 = std::max(cur_cost * opts.tempStartFrac, 1.0);
    }
    double t_end = t0 * opts.tempEndFrac;

    while (!mon.shouldStop() && res.samples < opts.sampleBudget) {
        size_t want = static_cast<size_t>(std::min<int64_t>(
            batch, opts.sampleBudget - res.samples));

        // Speculatively mutate `want` neighbors of the current state
        // and evaluate them as one batch; per-neighbor RNG streams
        // keep the batch deterministic for any thread count. A batch
        // cut short by a hard stop is discarded whole (see GA).
        const Genome snapshot = cur;
        std::vector<Genome> cands(want);
        std::vector<double> costs(want, kInfeasiblePenalty);
        bool complete = engine.forEachStream(want, [&](size_t i, Rng &r) {
            Genome cand = snapshot;
            GeneDelta delta;
            switch (r.index(3)) {
              case 0:
                mutateModifyNode(model.graph(), cand, r, &delta);
                break;
              case 1:
                mutateSplitSubgraph(model.graph(), cand, r, &delta);
                break;
              default:
                mutateMergeSubgraph(model.graph(), cand, r, &delta);
            }
            if (space.searchHw && r.bernoulli(opts.dseMutationRate))
                mutateDse(space, cand, r, 2.0, &delta);
            cands[i] = std::move(cand);
            costs[i] = engine.evaluate(cands[i], &delta);
        });

        if (!complete)
            break;

        // Sequential Metropolis sweep in index order.
        for (size_t i = 0; i < want; ++i) {
            double progress =
                static_cast<double>(res.samples) / opts.sampleBudget;
            double temp = t0 * std::pow(t_end / t0, progress);
            record(cands[i], costs[i]);
            double delta = costs[i] - cur_cost;
            if (delta <= 0 || rng.bernoulli(std::exp(-delta / temp))) {
                cur = std::move(cands[i]);
                cur_cost = costs[i];
            }
        }
        mon.batchDone(res.samples, res.bestCost);
        boundary = engine.streamCounter();
        if (ck && ck->save &&
            ck->request.exchange(false, std::memory_order_acq_rel))
            ck->save(make_checkpoint());
    }

    res.stop = mon.stopReason();
    if (ck && ck->save && ck->saveOnStop && res.samples > 0 &&
        (res.stop == StopReason::Cancelled ||
         res.stop == StopReason::TimeLimit))
        ck->save(make_checkpoint());
    res.bestBuffer = res.best.buffer(space);
    res.bestGraphCost = model.partitionCost(res.best.part, res.bestBuffer);
    if (engine.cache())
        res.cacheStats = engine.cache()->stats() - cache_start;
    res.cacheStats.incReusedBlocks = engine.recordBlocksReused();
    res.cacheStats.incRecostBlocks = engine.recordBlocksRecosted();
    res.deltaStats = engine.deltaStats();
    return res;
}

} // namespace cocco
