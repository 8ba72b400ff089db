#include "search/ga.h"

#include <algorithm>

#include "partition/repair.h"
#include "search/checkpoint.h"
#include "search/operators.h"
#include "util/logging.h"

namespace cocco {

std::string
gaParamsError(const GaParams &p)
{
    if (p.population < 2)
        return "ga.population must be >= 2";
    if (p.tournament < 1)
        return "ga.tournament must be >= 1";
    if (p.elite < 0 || p.elite > p.population)
        return "ga.elite must be in [0, ga.population]";
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

    using Scored = ScoredGenome;
    std::vector<Scored> pop;
    pop.reserve(opts_.population);

    // Snapshots are taken at generation boundaries (after selection
    // refilled the population), where (rng, stream counter,
    // population, incumbent, trace) form a consistent serial state.
    // The population is the GA's own section.
    RunRecord rec(
        engine_, &rng, "ga",
        opts_.checkpoint ? gaCheckpointFence(model_, space_, opts_) : 0,
        [&] { return GaSection{pop}; }, opts_.recordPoints);
    const SearchResult &res = rec.result();

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

    // --- Initialization: resume from a checkpoint, or run one batch
    //     through the engine (optionally seeded with external
    //     results). A batch cut short by a hard stop is discarded
    //     whole: which elements ran depends on timing, so recording
    //     any of them would break determinism. ---
    bool complete = true;
    if (const SearchCheckpoint *c = rec.resume()) {
        const auto *ga = std::get_if<GaSection>(&c->section);
        if (!ga ||
            ga->population.size() != static_cast<size_t>(opts_.population))
            fatal("checkpoint population does not match the configured "
                  "GA population");
        pop = ga->population;
    } else {
        size_t n = static_cast<size_t>(opts_.population);
        size_t n_seed = std::min(seeds.size(), n);
        std::vector<Scored> init(n);
        for (size_t i = 0; i < n_seed; ++i) {
            // A seed comes from outside the search, perhaps flagged on
            // another graph: it enters unflagged and takes the full
            // structural repair.
            init[i].genome = seeds[i];
            init[i].genome.part.block = seeds[i].part.block.ids();
        }
        complete = engine_.forEachStream(n, [&](size_t i, Rng &r) {
            if (i >= n_seed)
                init[i].genome = randomGenome(model_.graph(), space_, r);
            init[i].cost = engine_.evaluate(init[i].genome);
        });
        if (complete) {
            for (Scored &s : init) {
                rec.record(s.genome, s.cost);
                pop.push_back(std::move(s));
            }
            rec.batchDone();
            rec.boundary();
        }
    }

    // --- Generations. ---
    while (complete && rec.running()) {
        size_t want = static_cast<size_t>(
            std::min<int64_t>(opts_.population,
                              opts_.sampleBudget - res.samples));

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
            rec.record(sc.genome, sc.cost);
        rec.batchDone();

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
        for (int e = 0; e < opts_.elite; ++e) // elite <= population
            pop.push_back(pool[e]);
        while (static_cast<int>(pop.size()) < opts_.population)
            pop.push_back(tournament_pick(pool, rng));

        rec.boundary();
    }
    return rec.finish();
}

} // namespace cocco
