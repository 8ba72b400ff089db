/**
 * @file
 * The parallel evaluation engine: evaluates batches of genomes
 * (decode buffer, in-situ capacity tuning, cost-model assembly)
 * concurrently on a fixed thread pool, with deterministic semantics.
 *
 * Determinism contract: a batch produces bit-identical results for
 * any thread count. This rests on three rules:
 *   - every stochastic decision made on behalf of batch element i
 *     draws from a private RNG stream derived from (seed, stream
 *     counter + i), never from a shared generator;
 *   - results are written back by index, so completion order is
 *     irrelevant;
 *   - the CostModel's profile memo is shared and thread-safe, and
 *     profiles are pure functions of the node set, so cache warm-up
 *     order cannot change any value.
 *
 * GA populations, SA neighbor batches and the two-step baselines all
 * submit work through this engine (paper Section 4.4's evaluation
 * stage, parallelized).
 *
 * Caching: unless disabled, every evaluation is memoized in an
 * EvalCache keyed by a content hash of (evaluation context, genome).
 * A hit restores the cached objective AND the cached in-situ-repaired
 * partition, so cached and uncached runs are bit-identical. Pass a
 * shared cache to warm-start across engines/runs (e.g. two-step
 * candidate sweeps, repeated CLI runs via the on-disk format). Every
 * evaluation that is computed, cache or no cache, costs its blocks
 * through this thread's BlockCostRow for (model, buffer): capacity
 * repair records each block it checks and cost assembly reads them
 * back, and a genome that shares most blocks with the thread's
 * previous evaluation under that buffer (the common case after one
 * mutation) only costs the changed blocks.
 */

#ifndef COCCO_SEARCH_EVAL_ENGINE_H
#define COCCO_SEARCH_EVAL_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "search/eval_cache.h"
#include "search/genome.h"
#include "search/observer.h"
#include "sim/cost_model.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace cocco {

struct CheckpointHooks; // search/checkpoint.h
class ParetoArchive;    // search/pareto.h

/**
 * The evaluation-environment core shared by every search driver:
 * GaOptions / SaOptions / TwoStepOptions all layer their algorithm
 * parameters on top of this struct, and a SearchSpec carries it
 * verbatim, so budget/seed/objective/parallelism/cache/early-stop
 * knobs are declared (and documented) exactly once.
 */
struct EvalOptions
{
    int64_t sampleBudget = 50000; ///< total evaluations for the run
    uint64_t seed = 1;           ///< base of the per-genome RNG streams
    double alpha = 0.002;        ///< Formula 2 weight
    Metric metric = Metric::Energy;
    bool coExplore = true;       ///< false = Formula 1 (metric only)
    bool inSituSplit = true;     ///< capacity repair at evaluation
    int threads = 1;             ///< total parallelism; <= 0 = all cores

    /**
     * Bound-based pruning (CLI --no-prune clears it). Bounds may
     * only skip work that cannot win: results are bit-identical
     * either way, which is why the flag is absent from the
     * evaluation-context salt — pruned and unpruned runs
     * legitimately share cache entries. Off buys a slower run whose
     * every intermediate is computed the long way, for benchmarking
     * and for verifying that claim.
     */
    bool pruning = true;

    bool cacheEnabled = true;    ///< memoize evaluations in an EvalCache
    size_t cacheCapacity = EvalCache::kDefaultCapacity; ///< genome entries

    /** Optional shared cache (warm-start / cross-run accumulation);
     *  null = the engine owns one per cacheCapacity. */
    std::shared_ptr<EvalCache> cache;

    /** Optional progress/cancellation callbacks (not owned; must
     *  outlive the run). Null = silent. */
    SearchObserver *observer = nullptr;

    /** Early stop: end the run after this much wall-clock (seconds;
     *  0 = unlimited). Checked between and, cooperatively, inside
     *  evaluation batches. */
    double timeLimitSec = 0.0;

    /** Early stop: end the run after this many recorded samples
     *  without the incumbent improving (0 = never). */
    int64_t stallLimit = 0;

    /** Optional checkpoint/resume wiring (search/checkpoint.h; not
     *  owned, must outlive the run). Read by the GA/SA/two-step
     *  drivers, ignored by the engine itself. Null = none. */
    CheckpointHooks *checkpoint = nullptr;

    /**
     * Optional non-dominated archive (search/pareto.h; not owned,
     * must outlive the run). When set, every feasible recorded sample
     * is offered as a {buffer, energy, latency} point on the driver
     * thread — this is `"mode": "pareto"`. Like the observer, it
     * never changes results, so it is absent from the evaluation-
     * context salt. Null = off.
     */
    ParetoArchive *pareto = nullptr;
};

/** Operator-reported gene-change accounting (see GeneDelta). */
struct DeltaStats
{
    uint64_t reports = 0;      ///< evaluations arriving with a delta
    uint64_t nodesTouched = 0; ///< total reassigned nodes across them
    uint64_t hwOnly = 0;       ///< deltas that touched hardware genes only
    uint64_t rewrites = 0;     ///< crossover offspring (delta.rewrite)

    /** Counter-wise accumulation (e.g. across two-step inner GAs). */
    DeltaStats &
    operator+=(const DeltaStats &o)
    {
        reports += o.reports;
        nodesTouched += o.nodesTouched;
        hwOnly += o.hwOnly;
        rewrites += o.rewrites;
        return *this;
    }
};

/**
 * One thread's block costs under one (model, buffer): the
 * SubgraphCostCache the engine hands to repairToCapacity and
 * partitionCost. A slot per first node holds the last block recorded
 * with that first node, and answers only that exact node list under
 * the row's buffer. Take rows through blockCostRow.
 */
class BlockCostRow : public SubgraphCostCache
{
  public:
    bool lookupBlock(const std::vector<NodeId> &nodes,
                     const BufferConfig &buf, SubgraphCost *out) override;
    void insertBlock(const std::vector<NodeId> &nodes,
                     const BufferConfig &buf,
                     const SubgraphCost &cost) override;

    uint64_t hits = 0;   ///< lookups answered
    uint64_t misses = 0; ///< lookups not answered

  private:
    friend BlockCostRow &blockCostRow(const CostModel &model,
                                      const BufferConfig &buf);

    struct Slot
    {
        uint64_t gen = 0; ///< holds a block iff gen_ when recorded
        std::vector<NodeId> nodes;
        SubgraphCost cost;
    };

    /** The slot for @p nodes under @p buf, or null (another buffer). */
    Slot *slot(const std::vector<NodeId> &nodes, const BufferConfig &buf);

    uint64_t model_ = 0; ///< CostModel::id(); 0 = no model
    BufferConfig buf_;
    uint64_t gen_ = 0; ///< bumped when the row changes hands
    std::vector<Slot> slots_; ///< by first node
};

/**
 * This thread's row for (@p model, @p buf). A thread keeps the rows of
 * the last two (model, buffer) pairs it asked for; a third pair takes
 * the less recent row, emptied. So hold a row only within one
 * evaluation, and take no other row while holding one.
 */
BlockCostRow &blockCostRow(const CostModel &model, const BufferConfig &buf);

/** Batched, thread-parallel genome evaluator. */
class EvalEngine
{
  public:
    /**
     * @param pool  an existing pool to share (e.g. across the inner
     *              GAs of a two-step sweep); null = own one sized by
     *              opts.threads. Shared pools must not be used from
     *              two engines concurrently (parallelFor is not
     *              reentrant).
     * @param cache an existing cache to share/warm-start from; null =
     *              opts.cache, else own one sized by opts.cacheCapacity
     *              (none at all when opts.cacheEnabled is false).
     *              Shared caches may serve any number of engines
     *              concurrently.
     */
    EvalEngine(CostModel &model, const DseSpace &space,
               const EvalOptions &opts,
               std::shared_ptr<ThreadPool> pool = nullptr,
               std::shared_ptr<EvalCache> cache = nullptr);

    /** Resolved parallelism (>= 1). */
    int threads() const { return pool_ ? pool_->size() : 1; }

    /** The evaluation environment. */
    CostModel &model() { return model_; }
    const DseSpace &space() const { return space_; }
    const EvalOptions &options() const { return opts_; }

    /** The evaluation cache (null when disabled). */
    std::shared_ptr<EvalCache> cache() const { return cache_; }

    /** The run's observer/early-stop bookkeeping, built from the
     *  options (drivers record samples and poll stop through it). */
    SearchMonitor &monitor() { return monitor_; }

    /** Evaluation-context fingerprint: graph, accelerator, space and
     *  the result-affecting options (not seed/threads). Two engines
     *  share cache entries iff their salts match. */
    uint64_t salt() const { return salt_; }

    /** Gene-change accounting accumulated from evaluate() deltas. */
    DeltaStats deltaStats() const;

    /**
     * Evaluate one genome in the calling thread: decode its buffer,
     * apply in-situ capacity tuning (mutates genome.part), and return
     * the objective (Formula 2) or metric (Formula 1) value. Served
     * from the cache when the genome was evaluated before (the cached
     * repaired partition is restored, so hits are indistinguishable
     * from recomputation). @p delta, when provided, reports which
     * genes the producing operator chain touched (accounting only —
     * correctness never depends on it).
     */
    double evaluate(Genome &genome, const GeneDelta *delta = nullptr);

    /**
     * Cheap lower bound on what evaluate(genome) would return: the
     * cost model's per-block roofline bounds over the genome's
     * pre-repair partition, folded into objective space. No in-situ
     * repair, no tile-flow enumeration — orders of magnitude cheaper
     * than a full evaluation. Valid against the post-repair cost
     * because capacity repair only ever splits blocks, and a block's
     * bound also bounds every split of it.
     */
    double objectiveBound(const Genome &genome);

    /**
     * Incumbent-screened evaluation: exact evaluate() whenever the
     * genome could beat @p incumbent. When pruning is on and
     * objectiveBound() already exceeds the incumbent, the expensive
     * evaluation (repair + tile-flow) is skipped and the bound is
     * returned instead — the return value is then NOT the genome's
     * cost, only a certificate that the cost exceeds the incumbent,
     * and genome.part is left unrepaired. For best-tracking callers
     * (two-step sweeps, throughput benches): never feed the returned
     * value into rank-sensitive logic like tournament selection or
     * Metropolis acceptance, where the exact costs of non-improving
     * genomes still matter. @p skipped, when non-null, reports
     * whether screening fired (counted in boundRejections()).
     */
    double evaluateBounded(Genome &genome, double incumbent,
                           bool *skipped = nullptr);

    /** Evaluations screened out by evaluateBounded() so far. */
    uint64_t boundRejections() const;

    /**
     * Evaluate a batch concurrently; genome i's cost lands in slot i
     * of the returned vector. In-situ tuning mutates each genome in
     * place, exactly as the serial path does.
     */
    std::vector<double> evaluateBatch(std::vector<Genome> &genomes);

    /**
     * Run fn(i, rng) for every i in [0, n) on the pool, where rng is
     * a private stream derived from (seed, stream counter + i). Use
     * this to generate *and* evaluate batch elements concurrently:
     * the per-index streams keep any stochastic construction (e.g.
     * GA variation operators) deterministic for any thread count.
     * Advances the stream counter by n.
     *
     * Cooperative cancellation: when the monitor reports a hard stop
     * (observer cancellation or the wall-clock limit) the remaining
     * elements are skipped. @return true when every element ran —
     * false means the batch is partial and the caller must discard
     * it and end the run (results would otherwise depend on timing).
     */
    bool forEachStream(size_t n,
                       const std::function<void(size_t, Rng &)> &fn);

    /** The stream counter (checkpointing: capture it at a completed
     *  batch boundary — forEachStream advances it up front, so after
     *  a discarded partial batch the live value is already past the
     *  boundary state). */
    uint64_t streamCounter() const { return streamCounter_; }

    /** Restore a counter captured by streamCounter() (resume). */
    void setStreamCounter(uint64_t counter) { streamCounter_ = counter; }

  private:
    double evaluateUncached(Genome &genome);
    EvalCache::KeyView makeKey(uint64_t hash,
                               const std::vector<int> &block,
                               const Genome &genome) const;
    uint64_t genomeHash(const Genome &genome) const;
    void noteDelta(const GeneDelta &delta);

    CostModel &model_;
    DseSpace space_;
    EvalOptions opts_;
    std::shared_ptr<ThreadPool> pool_; ///< null when threads == 1
    std::shared_ptr<EvalCache> cache_; ///< null when caching disabled
    SearchMonitor monitor_;            ///< observer + early-stop state
    uint64_t salt_ = 0; ///< full evaluation context
    uint64_t streamCounter_ = 0;

    std::atomic<uint64_t> deltaReports_{0};
    std::atomic<uint64_t> deltaNodes_{0};
    std::atomic<uint64_t> deltaHwOnly_{0};
    std::atomic<uint64_t> deltaRewrites_{0};
    std::atomic<uint64_t> boundRejections_{0};
};

} // namespace cocco

#endif // COCCO_SEARCH_EVAL_ENGINE_H
