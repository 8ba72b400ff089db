#include "search/eval_engine.h"

#include <utility>

#include "partition/repair.h"
#include "util/hash.h"

namespace cocco {

namespace {

/** SplitMix64-style mix so adjacent stream ids decorrelate and the
 *  streams never coincide with a driver's own Rng(seed). */
uint64_t
mixStream(uint64_t seed, uint64_t stream)
{
    uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Fingerprint of everything the objective value depends on. Seed and
 *  thread count are deliberately absent: results are independent of
 *  both, so caches warm across seeds and machines. The model folds
 *  its own identity (graph + accelerator, plus every core of a
 *  deployment) via contextHash, so entries from different deployments
 *  can never alias. The pruning flag is absent for the same reason:
 *  bounds only skip work that cannot win, so pruned and unpruned
 *  engines produce — and may share — identical entries. */
uint64_t
contextSalt(const CostModel &model, const DseSpace &space,
            const EvalOptions &opts)
{
    uint64_t h = model.contextHash(kHashSeed);
    h = hashDseSpace(h, space);
    h = hashDouble(h, opts.alpha);
    h = hashU64(h, static_cast<uint64_t>(opts.metric));
    h = hashU64(h, opts.coExplore ? 1 : 0);
    h = hashU64(h, opts.inSituSplit ? 1 : 0);
    return hashFinalize(h);
}

} // namespace

EvalEngine::EvalEngine(CostModel &model, const DseSpace &space,
                       const EvalOptions &opts,
                       std::shared_ptr<ThreadPool> pool,
                       std::shared_ptr<EvalCache> cache)
    : model_(model), space_(space), opts_(opts), pool_(std::move(pool)),
      cache_(std::move(cache)),
      monitor_(opts.observer, opts.timeLimitSec, opts.stallLimit)
{
    if (!pool_) {
        int total = ThreadPool::resolveThreads(opts.threads);
        if (total > 1)
            pool_ = std::make_shared<ThreadPool>(total);
    } else if (pool_->size() == 1) {
        pool_ = nullptr; // a serial pool is just the inline path
    }
    if (!cache_)
        cache_ = opts_.cache;
    if (!cache_ && opts_.cacheEnabled)
        cache_ = std::make_shared<EvalCache>(opts_.cacheCapacity);
    if (!opts_.cacheEnabled)
        cache_ = nullptr;
    model_.setPruning(opts_.pruning);
    salt_ = contextSalt(model_, space_, opts_);
    // Block costs depend only on the model, so fencing them by this
    // narrower salt lets engines that differ in alpha/metric/space
    // still share per-subgraph work through one cache.
    modelSalt_ = hashFinalize(model_.contextHash(kHashSeed));
}

uint64_t
EvalEngine::genomeHash(const Genome &genome) const
{
    uint64_t h = hashU64(kHashSeed, salt_);
    return hashFinalize(hashGenome(h, genome, space_));
}

EvalCache::KeyView
EvalEngine::makeKey(uint64_t hash, const std::vector<int> &block,
                    const Genome &genome) const
{
    EvalCache::KeyView key{hash, salt_, block, 0, 0, 0};
    // Only live hardware genes participate: dead genes (frozen space,
    // other buffer style) are normalized to 0 so genomes that decode
    // identically share one entry.
    if (space_.searchHw) {
        if (space_.style == BufferStyle::Shared) {
            key.sharedIdx = genome.sharedIdx;
        } else {
            key.actIdx = genome.actIdx;
            key.weightIdx = genome.weightIdx;
        }
    }
    return key;
}

double
EvalEngine::evaluateUncached(Genome &genome)
{
    BufferConfig buf = genome.buffer(space_);
    if (opts_.inSituSplit) {
        genome.part = repairToCapacity(model_.graph(),
                                       std::move(genome.part), model_, buf);
    }
    // The objective never reads the bandwidth summaries, so pruned
    // evaluations stop at the fields it does read (bit-identically).
    CostModel::CostScope scope = opts_.pruning
                                     ? CostModel::CostScope::Objective
                                     : CostModel::CostScope::Full;
    GraphCost gc;
    if (cache_) {
        // The cache's block level is the incremental-reuse path: it
        // serves unchanged blocks across genomes with full key
        // verification, so only the changed blocks are re-costed.
        EvalCache::BlockView blocks = cache_->blockView(modelSalt_);
        gc = model_.partitionCost(genome.part, buf, &blocks, scope);
    } else {
        gc = model_.partitionCost(genome.part, buf, nullptr, scope);
    }
    if (opts_.coExplore)
        return objective(gc, buf, opts_.alpha, opts_.metric);
    if (!gc.feasible)
        return kInfeasiblePenalty;
    return gc.metricValue(opts_.metric);
}

void
EvalEngine::noteDelta(const GeneDelta &delta)
{
    deltaReports_.fetch_add(1, std::memory_order_relaxed);
    deltaNodes_.fetch_add(delta.nodes.size(), std::memory_order_relaxed);
    if (delta.hwChanged && !delta.partitionChanged)
        deltaHwOnly_.fetch_add(1, std::memory_order_relaxed);
    if (delta.rewrite)
        deltaRewrites_.fetch_add(1, std::memory_order_relaxed);
}

DeltaStats
EvalEngine::deltaStats() const
{
    DeltaStats s;
    s.reports = deltaReports_.load(std::memory_order_relaxed);
    s.nodesTouched = deltaNodes_.load(std::memory_order_relaxed);
    s.hwOnly = deltaHwOnly_.load(std::memory_order_relaxed);
    s.rewrites = deltaRewrites_.load(std::memory_order_relaxed);
    return s;
}

double
EvalEngine::evaluate(Genome &genome, const GeneDelta *delta)
{
    if (delta)
        noteDelta(*delta);
    if (!cache_)
        return evaluateUncached(genome);

    const EvalCache::KeyView key =
        makeKey(genomeHash(genome), genome.part.block, genome);
    double cost = 0.0;
    if (cache_->lookup(key, model_.graph(), &genome.part, &cost))
        return cost;

    // Pack the pre-repair key material: evaluation mutates the
    // partition in place (in-situ capacity tuning).
    EvalCache::Entry entry = key;
    cost = evaluateUncached(genome);
    cache_->insert(std::move(entry), genome.part, cost);
    return cost;
}

double
EvalEngine::objectiveBound(const Genome &genome)
{
    BufferConfig buf = genome.buffer(space_);
    SubgraphBound b = model_.partitionLowerBound(genome.part, buf);
    double metric = b.metricValue(opts_.metric);
    if (opts_.coExplore)
        return static_cast<double>(buf.totalBytes()) +
               opts_.alpha * metric;
    return metric;
}

double
EvalEngine::evaluateBounded(Genome &genome, double incumbent,
                            bool *skipped)
{
    if (skipped)
        *skipped = false;
    // A negative alpha would flip the objective fold's direction and
    // invalidate the bound; infeasible incumbents reject nothing
    // (every bound is far below the penalty).
    if (opts_.pruning && incumbent < kInfeasiblePenalty &&
        (!opts_.coExplore || opts_.alpha >= 0.0)) {
        double lb = objectiveBound(genome);
        if (lb > incumbent) {
            boundRejections_.fetch_add(1, std::memory_order_relaxed);
            if (skipped)
                *skipped = true;
            return lb;
        }
    }
    return evaluate(genome);
}

uint64_t
EvalEngine::boundRejections() const
{
    return boundRejections_.load(std::memory_order_relaxed);
}

bool
EvalEngine::forEachStream(size_t n,
                          const std::function<void(size_t, Rng &)> &fn)
{
    uint64_t base = streamCounter_;
    streamCounter_ += n;
    // Cooperative cancellation: a hard stop (observer cancel / time
    // limit) skips the remaining elements. The caller discards such
    // a partial batch, so which elements already ran never shows up
    // in any result.
    std::atomic<bool> aborted{false};
    auto task = [&](size_t i) {
        if (monitor_.cancelRequested()) {
            aborted.store(true, std::memory_order_relaxed);
            return;
        }
        Rng rng(mixStream(opts_.seed, base + i));
        fn(i, rng);
    };
    if (pool_) {
        pool_->parallelFor(n, task);
    } else {
        for (size_t i = 0; i < n; ++i)
            task(i);
    }
    return !aborted.load(std::memory_order_relaxed);
}

std::vector<double>
EvalEngine::evaluateBatch(std::vector<Genome> &genomes)
{
    std::vector<double> costs(genomes.size(), kInfeasiblePenalty);
    forEachStream(genomes.size(), [&](size_t i, Rng &rng) {
        (void)rng; // evaluation itself is deterministic today
        costs[i] = evaluate(genomes[i]);
    });
    return costs;
}

} // namespace cocco
