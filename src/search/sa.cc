#include "search/sa.h"

#include <algorithm>
#include <cmath>

#include "search/checkpoint.h"
#include "search/operators.h"
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

    const int batch = opts.neighborBatch;

    Genome cur;
    double cur_cost = 0.0;
    double t0 = 0.0;

    // Snapshots are taken at sweep boundaries (see GA). SA's own
    // section is its current state, and t0 rides along because the
    // temperature schedule is frozen from the very first evaluation.
    RunRecord rec(engine, &rng, "sa",
                  opts.checkpoint ? saCheckpointFence(model, space, opts)
                                  : 0,
                  [&] { return SaSection{cur, cur_cost, t0}; });
    const SearchResult &res = rec.result();

    if (const SearchCheckpoint *c = rec.resume()) {
        const auto *sa = std::get_if<SaSection>(&c->section);
        if (!sa)
            fatal("checkpoint is missing the SA state section");
        cur = sa->cur;
        cur_cost = sa->curCost;
        t0 = sa->t0;
    } else {
        // The initial state is evaluated serially (no stream draw), so
        // the boundary stream counter stays 0 here.
        cur = randomGenome(model.graph(), space, rng);
        cur_cost = engine.evaluate(cur);
        rec.record(cur, cur_cost);
        rec.batchDone();
        t0 = std::max(cur_cost * opts.tempStartFrac, 1.0);
    }
    double t_end = t0 * opts.tempEndFrac;

    while (rec.running()) {
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
            rec.record(cands[i], costs[i]);
            double delta = costs[i] - cur_cost;
            if (delta <= 0 || rng.bernoulli(std::exp(-delta / temp))) {
                cur = std::move(cands[i]);
                cur_cost = costs[i];
            }
        }
        rec.batchDone();
        rec.boundary();
    }
    return rec.finish();
}

} // namespace cocco
