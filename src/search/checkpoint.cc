#include "search/checkpoint.h"

#include "sim/cost_model.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** The fence lanes every driver shares: evaluation context (model,
 *  space, objective knobs) plus the run identity (algo, seed, budget).
 *  Mirrors the evaluation-context salt but adds what the salt
 *  deliberately leaves out — seed and budget — because a checkpoint
 *  is a position inside ONE specific run, not a shareable value. */
uint64_t
baseFence(const CostModel &model, const DseSpace &space,
          const EvalOptions &opts, const std::string &algo)
{
    uint64_t h = model.contextHash(kHashSeed);
    h = hashDseSpace(h, space);
    h = hashString(h, algo);
    h = hashU64(h, opts.seed);
    h = hashI64(h, opts.sampleBudget);
    h = hashDouble(h, opts.alpha);
    h = hashU64(h, static_cast<uint64_t>(opts.metric));
    h = hashU64(h, opts.coExplore ? 1 : 0);
    h = hashU64(h, opts.inSituSplit ? 1 : 0);
    return h;
}

} // namespace

std::string
checkpointGenomeError(SearchCheckpoint &c, const Graph &g)
{
    const int nodes = g.size();
    auto wrong = [&](const Genome &genome, const std::string &what) {
        const size_t len = genome.part.block.size();
        return len == static_cast<size_t>(nodes)
                   ? std::string()
                   : strprintf("%s has %zu nodes, the model has %d",
                               what.c_str(), len, nodes);
    };
    // Operator inputs: the check also sets their canonical flag.
    auto uncanonical = [&](Genome &genome, const std::string &what) {
        return genome.part.checkCanonical(g)
                   ? std::string()
                   : strprintf("%s is not a canonical partition (structural "
                               "repair would renumber or split it)",
                               what.c_str());
    };
    std::string err;
    if (!c.best.part.block.empty())
        err = wrong(c.best, "incumbent genome");
    for (size_t i = 0; err.empty() && i < c.population.size(); ++i) {
        const std::string what = strprintf("population genome %zu", i);
        err = wrong(c.population[i], what);
        if (err.empty())
            err = uncanonical(c.population[i], what);
    }
    if (err.empty() && c.hasSa) {
        err = wrong(c.saCur, "SA current genome");
        if (err.empty())
            err = uncanonical(c.saCur, "SA current genome");
    }
    for (size_t i = 0; err.empty() && i < c.racers.size(); ++i) {
        err = checkpointGenomeError(c.racers[i], g);
        if (!err.empty())
            err = strprintf("racer %zu: ", i) + err;
    }
    return err;
}

uint64_t
gaCheckpointFence(const CostModel &model, const DseSpace &space,
                  const GaOptions &opts)
{
    uint64_t h = baseFence(model, space, opts, "ga");
    h = hashI64(h, opts.population);
    h = hashDouble(h, opts.crossoverRate);
    h = hashDouble(h, opts.mutPartitionRate);
    h = hashDouble(h, opts.mutDseRate);
    h = hashI64(h, opts.tournament);
    h = hashI64(h, opts.elite);
    h = hashU64(h, opts.recordPoints ? 1 : 0);
    return hashFinalize(h);
}

uint64_t
saCheckpointFence(const CostModel &model, const DseSpace &space,
                  const SaOptions &opts)
{
    uint64_t h = baseFence(model, space, opts, "sa");
    h = hashDouble(h, opts.tempStartFrac);
    h = hashDouble(h, opts.tempEndFrac);
    h = hashDouble(h, opts.dseMutationRate);
    h = hashI64(h, opts.neighborBatch);
    return hashFinalize(h);
}

uint64_t
twoStepCheckpointFence(const CostModel &model, const DseSpace &space,
                       const TwoStepOptions &opts, const std::string &algo)
{
    uint64_t h = baseFence(model, space, opts, algo);
    h = hashI64(h, opts.samplesPerCandidate);
    h = hashI64(h, opts.population);
    return hashFinalize(h);
}

uint64_t
portfolioCheckpointFence(const CostModel &model, const DseSpace &space,
                         const EvalOptions &opts,
                         const PortfolioParams &params)
{
    uint64_t h = baseFence(model, space, opts, "portfolio");
    h = hashI64(h, static_cast<int64_t>(params.racers.size()));
    for (const std::string &racer : params.racers)
        h = hashString(h, racer);
    h = hashU64(h, params.deterministicRace ? 1 : 0);
    h = hashI64(h, params.checkEvals);
    h = hashI64(h, params.warmupEvals);
    return hashFinalize(h);
}

} // namespace cocco
