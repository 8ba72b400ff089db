#include "search/checkpoint.h"

#include "search/pareto.h"
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

RunRecord::RunRecord(EvalEngine &engine, Rng *rng, const char *algo,
                     uint64_t fence, Section section, bool recordPoints)
    : RunRecord(engine.model(), engine.space(), engine.options(),
                engine.monitor(), engine.cache().get(), algo, fence,
                std::move(section))
{
    engine_ = &engine;
    rng_ = rng;
    pareto_ = opts_.pareto;
    recordPoints_ = recordPoints;
}

RunRecord::RunRecord(CostModel &model, const DseSpace &space,
                     const EvalOptions &opts, SearchMonitor &monitor,
                     EvalCache *cache, const char *algo, uint64_t fence,
                     Section section)
    : model_(model), space_(space), opts_(opts), mon_(monitor),
      cache_(cache), cacheStart_(cache ? cache->stats() : EvalCacheStats()),
      algo_(algo), fence_(fence), section_(std::move(section))
{
}

bool
RunRecord::record(const Genome &genome, double cost)
{
    ++res_.samples;
    const bool improved = cost < res_.bestCost;
    if (improved) {
        res_.bestCost = cost;
        res_.best = genome;
    }
    res_.trace.push_back({res_.samples, res_.bestCost});
    mon_.recordSample(res_.trace.back(), improved);
    if (recordPoints_ || pareto_) {
        // An archive offer reads only what Objective scope completes
        // for a feasible partition; a recorded point keeps an
        // infeasible sample's metric, a partial sum there.
        const BufferConfig buf = genome.buffer(space_);
        const GraphCost gc = model_.partitionCost(
            genome.part, buf, nullptr,
            recordPoints_ ? CostModel::CostScope::Full
                          : CostModel::CostScope::Objective);
        const double metric = gc.metricValue(opts_.metric);
        if (recordPoints_)
            res_.points.push_back({res_.samples, metric, buf.totalBytes()});
        if (pareto_ && gc.feasible)
            pareto_->offer({buf.totalBytes(), gc.energyPj, gc.latencyCycles,
                            metric, res_.samples});
    }
    return improved;
}

SearchCheckpoint
RunRecord::snapshot() const
{
    SearchCheckpoint c;
    c.algo = algo_;
    c.fence = fence_;
    c.seed = opts_.seed;
    copyShared(res_, c);
    if (rng_)
        c.rng = rng_->state();
    c.streamCounter = boundary_;
    c.sinceImprove = mon_.samplesSinceImprove();
    section_(c);
    return c;
}

const SearchCheckpoint *
RunRecord::resume()
{
    const CheckpointHooks *ck = opts_.checkpoint;
    if (!ck || !ck->resume)
        return nullptr;
    const SearchCheckpoint &c = *ck->resume;
    if (c.algo != algo_ || c.fence != fence_)
        fatal("checkpoint does not match this run (saved by \"%s\", "
              "fence mismatch or different configuration)",
              c.algo.c_str());
    copyShared(c, res_);
    if (rng_)
        rng_->setState(c.rng);
    if (engine_)
        engine_->setStreamCounter(boundary_ = c.streamCounter);
    mon_.restoreStall(c.sinceImprove);
    return &c;
}

void
RunRecord::boundary()
{
    // The live counter runs ahead of the boundary while a batch is in
    // flight (discarded partial batches included), so capture it here.
    if (engine_)
        boundary_ = engine_->streamCounter();
    CheckpointHooks *ck = opts_.checkpoint;
    if (ck && ck->save &&
        ck->request.exchange(false, std::memory_order_acq_rel))
        ck->save(held_ ? *held_ : snapshot());
}

void
RunRecord::hold()
{
    if (opts_.checkpoint && opts_.checkpoint->save)
        held_ = snapshot();
}

SearchResult
RunRecord::finish(const BufferConfig *heldBuffer)
{
    res_.stop = mon_.stopReason();
    // The killed-job path: persist the last boundary, from which a
    // resume replays the rest bit-identically. (A budget or stall end
    // is final; nothing is left to resume.)
    CheckpointHooks *ck = opts_.checkpoint;
    if (ck && ck->save && ck->saveOnStop &&
        (res_.stop == StopReason::Cancelled ||
         res_.stop == StopReason::TimeLimit) &&
        (held_ || (engine_ && res_.samples > 0)))
        ck->save(held_ ? *held_ : snapshot());
    if (heldBuffer ? res_.bestCost < kInfeasiblePenalty : res_.samples > 0) {
        res_.bestBuffer = heldBuffer ? *heldBuffer : res_.best.buffer(space_);
        res_.bestGraphCost =
            model_.partitionCost(res_.best.part, res_.bestBuffer);
    }
    if (cache_)
        res_.cacheStats = cache_->stats() - cacheStart_;
    if (engine_)
        res_.deltaStats = engine_->deltaStats();
    return std::move(res_);
}

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
