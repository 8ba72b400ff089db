#include "search/two_step.h"

#include <algorithm>
#include <cmath>

#include "search/checkpoint.h"
#include "util/logging.h"

namespace cocco {

namespace {

/** Candidate hardware point = grid indices. */
struct HwPoint
{
    int actIdx = 0;
    int weightIdx = 0;
    int sharedIdx = 0;
};

BufferConfig
decode(const DseSpace &space, const HwPoint &pt)
{
    if (!space.searchHw)
        return space.fixed;
    BufferConfig c;
    c.style = space.style;
    if (space.style == BufferStyle::Shared) {
        c.sharedBytes = space.sharedGrid.value(pt.sharedIdx);
    } else {
        c.actBytes = space.actGrid.value(pt.actIdx);
        c.weightBytes = space.weightGrid.value(pt.weightIdx);
    }
    return c;
}

/**
 * Forwards only cancellation into the inner GAs: the outer sweep owns
 * the observer's trace (folded global samples), so inner callbacks
 * stay silent, but a cancel must still interrupt an inner run
 * mid-batch rather than wait for the candidate to finish.
 */
class InnerCancel : public SearchObserver
{
  public:
    explicit InnerCancel(SearchObserver *outer) : outer_(outer) {}

    bool
    cancelled() override
    {
        return outer_ && outer_->cancelled();
    }

  private:
    SearchObserver *outer_;
};

SearchResult
runCandidates(CostModel &model, const DseSpace &space,
              const std::vector<HwPoint> &candidates,
              const TwoStepOptions &opts, const char *algo)
{
    SearchResult global;
    uint64_t sub_seed = opts.seed;
    SearchMonitor mon(opts.observer, opts.timeLimitSec, opts.stallLimit);
    InnerCancel inner_cancel(opts.observer);

    // Bound-based candidate rejection: the whole graph as one block is
    // a valid roofline lower bound over every partition of it (any cut
    // only adds boundary traffic; weights and MACs are exact sums), so
    // a capacity whose bound already exceeds the incumbent cannot
    // yield an improvement and its inner GA is skipped wholesale. The
    // skip replicates the un-run GA's observable effects exactly — the
    // folded trace entries, monitor bookkeeping, and the candidate's
    // seed draw — so pruned and unpruned sweeps stay bit-identical.
    // An observer does not change that: inner GAs see only its
    // cancelled(), and its callbacks (the folded samples) are the same
    // either way, so a cancel that moves only through them lands on
    // the same sample; an asynchronous one (SIGINT, a job cancel, a
    // race's regrant) moves a stop point that depends on timing
    // anyway, and a race's culls wait at milestone rendezvous inside
    // those callbacks. Guarded off under a wall-clock limit, where an
    // inner run could legitimately be cut short mid-batch.
    const bool can_reject = opts.pruning && opts.timeLimitSec == 0.0 &&
                            opts.alpha >= 0.0;
    std::vector<NodeId> all_nodes(
        static_cast<size_t>(model.graph().size()));
    for (size_t i = 0; i < all_nodes.size(); ++i)
        all_nodes[i] = static_cast<NodeId>(i);
    uint64_t bound_rejections = 0, bound_skipped = 0;

    // One worker pool shared by every inner GA: the candidate loop
    // must not pay thread spawn/join per hardware point.
    std::shared_ptr<ThreadPool> pool;
    if (ThreadPool::resolveThreads(opts.threads) > 1)
        pool = std::make_shared<ThreadPool>(opts.threads);

    // One evaluation cache shared by every inner GA likewise.
    std::shared_ptr<EvalCache> cache = opts.cache;
    if (!cache && opts.cacheEnabled)
        cache = std::make_shared<EvalCache>(opts.cacheCapacity);
    EvalCacheStats cache_start;
    if (cache)
        cache_start = cache->stats();

    // --- Checkpointing at candidate boundaries: the sweep's serial
    //     state between candidates is (index, sub_seed, folded trace,
    //     incumbent, counters). Inner GAs run without hooks of their
    //     own, so an interrupt mid-candidate resumes by re-running
    //     that candidate wholly from the pre-candidate snapshot —
    //     `pending` — which is exactly what the uninterrupted run did
    //     too (bit-identity holds either way). A candidate that DID
    //     finish advances `pending` past itself so a later save never
    //     redoes completed work. ---
    CheckpointHooks *ck = opts.checkpoint;
    const uint64_t fence =
        ck ? twoStepCheckpointFence(model, space, opts, algo) : 0;
    size_t start_idx = 0;
    if (ck && ck->resume) {
        const SearchCheckpoint &c = *ck->resume;
        if (c.algo != algo || c.fence != fence)
            fatal("checkpoint does not match this run (saved by \"%s\", "
                  "fence mismatch or different configuration)",
                  c.algo.c_str());
        if (!c.hasTs)
            fatal("checkpoint is missing the two-step state section");
        global.samples = c.samples;
        global.bestCost = c.bestCost;
        global.best = c.best;
        global.bestBuffer = c.tsBestBuffer;
        global.trace = c.trace;
        global.deltaStats = c.tsDelta;
        sub_seed = c.tsSubSeed;
        start_idx = static_cast<size_t>(c.tsCandidate);
        mon.restoreStall(c.sinceImprove);
        bound_rejections = c.tsBoundRejections;
        bound_skipped = c.tsBoundSkippedSamples;
    }
    auto snapshot = [&](size_t next_idx) {
        SearchCheckpoint c;
        c.algo = algo;
        c.fence = fence;
        c.seed = opts.seed;
        c.samples = global.samples;
        c.bestCost = global.bestCost;
        c.best = global.best;
        c.trace = global.trace;
        c.sinceImprove = mon.samplesSinceImprove();
        c.hasTs = true;
        c.tsCandidate = static_cast<int64_t>(next_idx);
        c.tsSubSeed = sub_seed;
        c.tsBestBuffer = global.bestBuffer;
        c.tsBoundRejections = bound_rejections;
        c.tsBoundSkippedSamples = bound_skipped;
        c.tsDelta = global.deltaStats;
        return c;
    };
    SearchCheckpoint pending;
    bool have_pending = false;

    for (size_t idx = start_idx; idx < candidates.size(); ++idx) {
        if (mon.shouldStop() || global.samples >= opts.sampleBudget)
            break;
        if (ck && ck->save) {
            pending = snapshot(idx);
            have_pending = true;
            if (ck->request.exchange(false, std::memory_order_acq_rel))
                ck->save(pending);
        }
        const HwPoint &pt = candidates[idx];
        BufferConfig buf = decode(space, pt);

        if (can_reject && global.bestCost < kInfeasiblePenalty) {
            SubgraphBound gb = model.subgraphBound(all_nodes, buf);
            double lb = gb.metricValue(opts.metric);
            if (opts.coExplore)
                lb = static_cast<double>(buf.totalBytes()) +
                     opts.alpha * lb;
            if (lb > global.bestCost) {
                // Every folded cost this GA could produce is >= lb
                // (feasible: metric >= the bound; infeasible: the
                // penalty, which exceeds the incumbent by the guard),
                // so no trace entry would improve. Fold the exact
                // sample count the inner GA would have recorded: the
                // full init population, then generations up to the
                // budget.
                int64_t inner_budget = std::min<int64_t>(
                    opts.samplesPerCandidate,
                    opts.sampleBudget - global.samples);
                int64_t folded = std::max<int64_t>(
                    static_cast<int64_t>(opts.population), inner_budget);
                ++sub_seed; // consume the candidate's seed draw
                ++bound_rejections;
                bound_skipped += static_cast<uint64_t>(folded);
                for (int64_t s = 0; s < folded; ++s) {
                    ++global.samples;
                    global.trace.push_back(
                        {global.samples, global.bestCost});
                    mon.recordSample(global.trace.back(), false);
                }
                mon.batchDone(global.samples, global.bestCost);
                if (ck && ck->save) {
                    pending = snapshot(idx + 1);
                    have_pending = true;
                }
                continue;
            }
        }

        GaOptions ga;
        ga.population = opts.population;
        ga.sampleBudget = std::min<int64_t>(
            opts.samplesPerCandidate, opts.sampleBudget - global.samples);
        ga.seed = ++sub_seed;
        ga.alpha = opts.alpha;
        ga.metric = opts.metric;
        ga.coExplore = false; // partition-only under this capacity
        ga.inSituSplit = opts.inSituSplit;
        ga.pruning = opts.pruning;
        ga.threads = opts.threads; // batch populations through the engine
        ga.cacheEnabled = opts.cacheEnabled;
        ga.cacheCapacity = opts.cacheCapacity;
        ga.cache = cache;
        ga.pareto = opts.pareto; // frontier offers from every candidate
        // Early stop propagates as cancellation + remaining wall
        // clock; the stall limit stays an outer concern (it counts
        // folded global samples, not inner ones).
        if (opts.observer)
            ga.observer = &inner_cancel;
        if (opts.timeLimitSec > 0.0)
            ga.timeLimitSec = std::max(mon.remainingSec(), 1e-9);

        DseSpace fixed = DseSpace::fixedSpace(buf);
        GeneticSearch search(model, fixed, ga, pool);
        SearchResult inner = search.run();
        global.deltaStats += inner.deltaStats;

        // Fold the inner (metric-only) trace into the global trace:
        // Formula 2 per candidate capacity when co-exploring (the
        // paper's setup), the raw metric when partition-only.
        for (const TracePoint &tp : inner.trace) {
            double cost = tp.bestCost;
            if (opts.coExplore && cost < kInfeasiblePenalty)
                cost = buf.totalBytes() + opts.alpha * cost;
            ++global.samples;
            bool improved = cost < global.bestCost;
            if (improved) {
                global.bestCost = cost;
                global.best = inner.best;
                global.bestBuffer = buf;
            }
            global.trace.push_back({global.samples, global.bestCost});
            mon.recordSample(global.trace.back(), improved);
        }
        mon.batchDone(global.samples, global.bestCost);

        // Only a full inner run advances the boundary: one cut short
        // (cancel / time limit) folded a timing-dependent partial
        // trace, so the pre-candidate snapshot stays authoritative and
        // a resume re-runs this candidate from scratch.
        if (ck && ck->save && inner.stop == StopReason::BudgetExhausted) {
            pending = snapshot(idx + 1);
            have_pending = true;
        }
    }

    global.stop = mon.stopReason();
    if (ck && ck->save && ck->saveOnStop && have_pending &&
        (global.stop == StopReason::Cancelled ||
         global.stop == StopReason::TimeLimit))
        ck->save(pending);
    if (global.bestCost < kInfeasiblePenalty) {
        global.bestGraphCost =
            model.partitionCost(global.best.part, global.bestBuffer);
    }
    if (cache)
        global.cacheStats = cache->stats() - cache_start;
    global.cacheStats.boundRejections = bound_rejections;
    global.cacheStats.boundSkippedSamples = bound_skipped;
    return global;
}

/**
 * Frozen space (partition-only): capacity sampling is degenerate —
 * the sweep collapses to the one fixed buffer, which gets the whole
 * sample budget instead of a per-candidate slice.
 */
bool
frozenSweep(CostModel &model, const DseSpace &space,
            const TwoStepOptions &opts, SearchResult *out,
            const char *algo)
{
    if (space.searchHw)
        return false;
    TwoStepOptions single = opts;
    single.samplesPerCandidate = opts.sampleBudget;
    *out = runCandidates(model, space, {HwPoint{}}, single, algo);
    return true;
}

} // namespace

std::string
twoStepParamsError(const TwoStepParams &p)
{
    if (p.population < 2)
        return "twoStep.population must be >= 2";
    if (p.samplesPerCandidate < 1)
        return "twoStep.samplesPerCandidate must be >= 1";
    return "";
}

SearchResult
twoStepRandom(CostModel &model, const DseSpace &space,
              const TwoStepOptions &opts)
{
    fatalIf(twoStepParamsError(opts)); // specs are checked before this
    SearchResult frozen;
    if (frozenSweep(model, space, opts, &frozen, "ts-random"))
        return frozen;
    Rng rng(opts.seed * 31 + 7);
    int64_t n = std::max<int64_t>(
        1, opts.sampleBudget / std::max<int64_t>(1,
                                                 opts.samplesPerCandidate));
    std::vector<HwPoint> candidates;
    for (int64_t i = 0; i < n; ++i) {
        HwPoint pt;
        pt.actIdx = static_cast<int>(rng.uniformInt(0,
                                                    space.actGrid.count - 1));
        pt.weightIdx =
            static_cast<int>(rng.uniformInt(0, space.weightGrid.count - 1));
        pt.sharedIdx =
            static_cast<int>(rng.uniformInt(0, space.sharedGrid.count - 1));
        candidates.push_back(pt);
    }
    return runCandidates(model, space, candidates, opts, "ts-random");
}

SearchResult
twoStepGrid(CostModel &model, const DseSpace &space,
            const TwoStepOptions &opts)
{
    fatalIf(twoStepParamsError(opts));
    SearchResult frozen;
    if (frozenSweep(model, space, opts, &frozen, "ts-grid"))
        return frozen;
    int64_t n = std::max<int64_t>(
        1, opts.sampleBudget / std::max<int64_t>(1,
                                                 opts.samplesPerCandidate));
    std::vector<HwPoint> candidates;

    if (space.style == BufferStyle::Shared) {
        int stride = std::max<int>(
            1, static_cast<int>(space.sharedGrid.count / n));
        for (int i = space.sharedGrid.count - 1; i >= 0; i -= stride) {
            HwPoint pt;
            pt.sharedIdx = i;
            candidates.push_back(pt);
        }
    } else {
        // Coarsen both dimensions so the pair count fits the budget,
        // then walk from large to small total capacity.
        int total = space.actGrid.count * space.weightGrid.count;
        int stride = std::max<int>(
            1, static_cast<int>(std::ceil(std::sqrt(
                   static_cast<double>(total) / static_cast<double>(n)))));
        for (int a = space.actGrid.count - 1; a >= 0; a -= stride)
            for (int w = space.weightGrid.count - 1; w >= 0; w -= stride) {
                HwPoint pt;
                pt.actIdx = a;
                pt.weightIdx = w;
                candidates.push_back(pt);
            }
        std::sort(candidates.begin(), candidates.end(),
                  [&](const HwPoint &x, const HwPoint &y) {
                      return decode(space, x).totalBytes() >
                             decode(space, y).totalBytes();
                  });
    }
    return runCandidates(model, space, candidates, opts, "ts-grid");
}

} // namespace cocco
