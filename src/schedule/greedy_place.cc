#include "schedule/greedy_place.h"

#include <algorithm>

#include "search/checkpoint.h"
#include "search/eval_engine.h"

namespace cocco {

namespace {

/** Merge blocks b and b+1 of a valid partition (numbering stays
 *  contiguous; the quotient stays acyclic because the blocks are
 *  adjacent in a topological order of the quotient). */
Partition
mergeAdjacent(const Partition &p, int b)
{
    Partition out = p;
    for (int &blk : out.block)
        if (blk > b)
            --blk;
    out.numBlocks = p.numBlocks - 1;
    return out;
}

class GreedyPlaceSearcher : public Searcher
{
  public:
    GreedyPlaceSearcher(CostModel &model, const DseSpace &space,
                        const SearchSpec &spec)
        : model_(model), space_(space), opts_(spec.eval)
    {
    }

    std::string name() const override { return "greedy-place"; }

    std::string
    describe() const override
    {
        return "greedy constructor: axis-swept buffer pick + best "
               "improving adjacent-block merges (deterministic, no "
               "randomness; seeds ignored)";
    }

    SearchResult
    run(const std::vector<Genome> &seeds = {}) override
    {
        (void)seeds; // no population to warm-start
        return greedyPlaceSearch(model_, space_, opts_);
    }

  private:
    CostModel &model_;
    DseSpace space_;
    EvalOptions opts_;
};

std::unique_ptr<Searcher>
makeGreedyPlace(CostModel &model, const DseSpace &space,
                const SearchSpec &spec)
{
    return std::make_unique<GreedyPlaceSearcher>(model, space, spec);
}

} // namespace

SearchResult
greedyPlaceSearch(CostModel &model, const DseSpace &space,
                  const EvalOptions &opts)
{
    // Deterministic and cheap to rerun, so it serves no checkpoint:
    // with the hooks cleared the record neither saves nor resumes.
    EvalOptions own = opts;
    own.checkpoint = nullptr;
    EvalEngine eng(model, space, own);
    RunRecord rec(eng, nullptr, "greedy-place", 0, {});
    const SearchResult &res = rec.result();

    const Graph &g = model.graph();
    const int64_t budget = std::max<int64_t>(opts.sampleBudget, 1);

    // Evaluate one genome through the engine (repairs in place) and
    // record the sample like every other strategy.
    auto evaluate = [&](Genome &x) {
        double c = eng.evaluate(x);
        rec.record(x, c);
        return c;
    };
    auto exhausted = [&] {
        return res.samples >= budget || eng.monitor().shouldStop();
    };

    // --- Buffer pick: two independent axis sweeps on singletons. ---
    Genome cur;
    cur.part = Partition::singletons(g);
    cur.actIdx = space.actGrid.count / 2;
    cur.weightIdx = space.weightGrid.count / 2;
    cur.sharedIdx = space.sharedGrid.count / 2;
    evaluate(cur);
    Genome incumbent = res.best;
    if (space.searchHw) {
        auto sweep = [&](int Genome::*idx, int count) {
            Genome pick = incumbent;
            double pick_cost = res.bestCost;
            for (int i = 0; i < count && !exhausted(); ++i) {
                if (i == incumbent.*idx)
                    continue; // already scored
                Genome x = incumbent;
                x.*idx = i;
                x.part = Partition::singletons(g);
                double c = evaluate(x);
                if (c < pick_cost) {
                    pick = x;
                    pick_cost = c;
                }
            }
            incumbent = pick;
        };
        if (space.style == BufferStyle::Shared) {
            sweep(&Genome::sharedIdx, space.sharedGrid.count);
        } else {
            sweep(&Genome::actIdx, space.actGrid.count);
            sweep(&Genome::weightIdx, space.weightGrid.count);
        }
    }
    cur = incumbent;

    // --- Partition growth: best improving adjacent merge, repeat. ---
    double cur_cost = res.bestCost;
    bool improved_any = true;
    while (improved_any && !exhausted()) {
        improved_any = false;
        Genome pick;
        double pick_cost = cur_cost;
        int nb = *std::max_element(cur.part.block.begin(),
                                   cur.part.block.end()) +
                 1;
        for (int b = 0; b + 1 < nb && !exhausted(); ++b) {
            Partition cand = mergeAdjacent(cur.part, b);
            if (!cand.valid(g))
                continue;
            Genome x = cur;
            x.part = std::move(cand);
            double c = evaluate(x);
            if (c < pick_cost) {
                pick = x;
                pick_cost = c;
            }
        }
        if (pick_cost < cur_cost) {
            cur = pick;
            cur_cost = pick_cost;
            improved_any = true;
        }
    }

    return rec.finish();
}

void
registerGreedyPlaceSearcher(SearcherRegistry &r)
{
    r.add("greedy-place",
          "greedy constructor (buffer axis sweep + adjacent merges); "
          "the co-scheduler's placement baseline",
          &makeGreedyPlace);
}

} // namespace cocco
