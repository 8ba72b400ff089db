/**
 * @file
 * Checkpoint/resume for in-flight searches.
 *
 * A SearchCheckpoint is a complete snapshot of a driver's state at a
 * batch boundary — the only points where parallel runs have a
 * well-defined serial state (forEachStream discards cut-short batches
 * whole, so a boundary snapshot never captures half a batch). Resuming
 * from one replays the remainder of the run bit-identically to the
 * uninterrupted original, for any thread count: everything
 * thread-count-independent that feeds the result stream is captured
 * (master RNG, engine stream counter, incumbent, trace, per-algorithm
 * working state), and nothing timing-dependent is.
 *
 * Callers reach checkpointing through CheckpointHooks on
 * EvalOptions::checkpoint, and drivers through RunRecord, which serves
 * the hooks for every one of them:
 *   - hooks.resume:   a snapshot to restore before the first batch;
 *   - hooks.request:  set from any thread to ask for a snapshot at the
 *                     next boundary (served once, then auto-cleared);
 *   - hooks.save:     receives every snapshot taken;
 *   - hooks.saveOnStop: additionally snapshot when the run ends early
 *                     (cancellation or the wall-clock limit) — the
 *                     "killed job" path, where the last boundary state
 *                     is exactly what a restart needs.
 *
 * A snapshot is only meaningful for the exact run configuration that
 * produced it, so each one carries a fence hash of everything
 * result-affecting: model, space, algorithm + its parameters, seed,
 * budget, objective knobs. Thread count and pruning are deliberately
 * excluded — both are guaranteed not to change results, so a job may
 * legitimately resume with different parallelism. Drivers fatal on a
 * fence mismatch rather than silently producing a forked run.
 *
 * Persistence (save/loadCheckpoint) lives in core/serialize next to
 * the cache file format and follows the same versioning rule.
 */

#ifndef COCCO_SEARCH_CHECKPOINT_H
#define COCCO_SEARCH_CHECKPOINT_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "search/ga.h"
#include "search/portfolio.h"
#include "search/sa.h"
#include "search/two_step.h"

namespace cocco {

/** One mid-run snapshot at a batch boundary (see file comment). */
struct SearchCheckpoint
{
    /** Persisted-format version (core/serialize). Bump on ANY change
     *  to this struct or its encoding; loaders reject other versions
     *  (a half-understood resume state would fork the run). */
    static constexpr int kVersion = 3; ///< v3: no record counters in W

    std::string algo;   ///< driver key ("ga", "sa", "ts-random", ...)
    uint64_t fence = 0; ///< run-identity hash (checkpointFence below)
    uint64_t seed = 0;

    // --- State shared by every driver. ---
    int64_t samples = 0;
    double bestCost = kInfeasiblePenalty;
    Genome best;
    std::vector<TracePoint> trace;
    std::vector<SamplePoint> points;   ///< GA --record-points stream
    std::array<uint64_t, 4> rng{};     ///< the driver's master Rng
    uint64_t streamCounter = 0;        ///< engine counter at the boundary
    int64_t sinceImprove = 0;          ///< stall counter

    // --- GA: the population at the generation boundary. ---
    std::vector<Genome> population;
    std::vector<double> popCosts; ///< parallel to population

    // --- SA: current state + the frozen temperature schedule. ---
    bool hasSa = false;
    Genome saCur;
    double saCurCost = 0.0;
    double saT0 = 0.0; ///< derived from the first evaluation; frozen

    // --- Two-step: sweep position + folded accounting. ---
    bool hasTs = false;
    int64_t tsCandidate = 0; ///< next candidate index to run
    uint64_t tsSubSeed = 0;
    BufferConfig tsBestBuffer;
    uint64_t tsBoundRejections = 0;
    uint64_t tsBoundSkippedSamples = 0;
    DeltaStats tsDelta;

    // --- Portfolio: one nested per-racer snapshot each (never nested
    //     twice — racer snapshots are plain single-driver ones). ---
    /** Racer checkpoint state: still racing (resumed by its driver,
     *  sub-fence validated), culled by the monitor, or finished. */
    enum RacerState
    {
        kRacerActive = 0,
        kRacerCulled = 1,
        kRacerFinished = 2,
    };
    bool hasPortfolio = false;
    std::vector<SearchCheckpoint> racers; ///< index-parallel to spec
    std::vector<int> racerState;          ///< RacerState per racer
};

/** Driver-facing checkpoint wiring (EvalOptions::checkpoint). */
struct CheckpointHooks
{
    /** Snapshot to restore before the first batch; null = fresh run.
     *  Must outlive the run. Fence-validated (fatal on mismatch). */
    const SearchCheckpoint *resume = nullptr;

    /** Receives every snapshot taken. Called on the driver thread at
     *  a batch boundary — keep it quick (a file write is fine). */
    std::function<void(const SearchCheckpoint &)> save;

    /** Set from any thread to request a snapshot at the next batch
     *  boundary; cleared once served. */
    std::atomic<bool> request{false};

    /** Snapshot the last boundary when the run stops early
     *  (Cancelled / TimeLimit) — the resume-after-kill path. */
    bool saveOnStop = true;
};

/**
 * The run state every search driver shares, and the bookkeeping over
 * it: record samples (count, incumbent, trace, monitor, and the one
 * re-cost that feeds ga.recordPoints points and pareto offers), fill
 * and restore the shared snapshot fields with the algo/fence check,
 * save snapshots on request and on an early stop, finish the result.
 *
 * An engine run (GA, SA) evaluates through an EvalEngine and a master
 * Rng; its live state at a stop is its last boundary. A folding run
 * (the two-step sweep) records inner runs' traces, whose samples they
 * offered themselves; a candidate cut short leaves folded samples past
 * the boundary, so the sweep hold()s a snapshot before each candidate.
 */
class RunRecord
{
  public:
    /** Writes the driver's own section into a snapshot. */
    using Section = std::function<void(SearchCheckpoint &)>;

    /** An engine run (with the driver's @p rng, if it draws one);
     *  @p fence matters only under checkpoint hooks. */
    RunRecord(EvalEngine &engine, Rng *rng, const char *algo,
              uint64_t fence, Section section, bool recordPoints = false);

    /** A folding run over @p cache, the one its inner runs share. */
    RunRecord(CostModel &model, const DseSpace &space,
              const EvalOptions &opts, SearchMonitor &monitor,
              EvalCache *cache, const char *algo, uint64_t fence,
              Section section);

    const SearchResult &result() const { return res_; }

    /** No early stop tripped and budget remains. */
    bool
    running() const
    {
        return !mon_.shouldStop() && res_.samples < opts_.sampleBudget;
    }

    /** Record one sample of cost @p cost, whose genome becomes the
     *  incumbent if it improves on it. @return whether it did. */
    bool record(const Genome &genome, double cost);

    /** Announce a finished batch to the observer. */
    void batchDone() { mon_.batchDone(res_.samples, res_.bestCost); }

    /** Restore the shared fields from the hooks' resume snapshot
     *  (fatal when it is another run's). @return it, for the driver's
     *  own section; null for a fresh run. */
    const SearchCheckpoint *resume();

    /** The live state is a batch boundary: capture the engine's stream
     *  counter, then serve a pending checkpoint request. */
    void boundary();

    /** Keep the live state as the snapshot that requests and an early
     *  stop save. */
    void hold();

    /** End the run and hand back its result. An early stop saves the
     *  held snapshot, else an engine run's live state once it has a
     *  sample. The incumbent is costed at @p heldBuffer (a folding
     *  run's) once feasible, else at its decoded buffer once the run
     *  has a sample. */
    SearchResult finish(const BufferConfig *heldBuffer = nullptr);

    /** Copy the fields a snapshot and a result share (samples,
     *  incumbent, trace, points) from one to the other, either way. */
    template <typename From, typename To>
    static void
    copyShared(const From &from, To &to)
    {
        to.samples = from.samples;
        to.bestCost = from.bestCost;
        to.best = from.best;
        to.trace = from.trace;
        to.points = from.points;
    }

  private:
    SearchCheckpoint snapshot() const;

    CostModel &model_;
    const DseSpace &space_;
    const EvalOptions &opts_;
    SearchMonitor &mon_;
    EvalEngine *engine_ = nullptr;
    Rng *rng_ = nullptr;
    ParetoArchive *pareto_ = nullptr; ///< an engine run's offers
    bool recordPoints_ = false;
    EvalCache *cache_;
    EvalCacheStats cacheStart_;
    std::string algo_;
    uint64_t fence_;
    Section section_;
    uint64_t boundary_ = 0; ///< stream counter at the last boundary
    std::optional<SearchCheckpoint> held_;
    SearchResult res_;
};

/**
 * Why @p c cannot resume a run over @p g: its incumbent, a GA
 * population genome, the SA current state, or one of those in a
 * portfolio racer's body has another length, or a population genome
 * or SA state (the operators' inputs) is not canonical
 * (Partition::isCanonical). "" when every genome fits; the check then
 * leaves those inputs flagged canonical (Partition::checkCanonical),
 * so the operators repair them locally. An empty incumbent is allowed
 * (no sample has beaten the infeasibility penalty yet). The file
 * loader cannot check this (it knows no model), and a genome of
 * another length would abort structural repair, so run it before
 * resuming.
 */
std::string checkpointGenomeError(SearchCheckpoint &c, const Graph &g);

/** Fence hash for a GA run (model + space + result-affecting options
 *  + the GA knobs; threads/pruning excluded — see file comment). */
uint64_t gaCheckpointFence(const CostModel &model, const DseSpace &space,
                           const GaOptions &opts);

/** Fence hash for an SA run. */
uint64_t saCheckpointFence(const CostModel &model, const DseSpace &space,
                           const SaOptions &opts);

/** Fence hash for a two-step sweep; @p algo distinguishes the
 *  candidate schedule ("ts-random" vs "ts-grid"). */
uint64_t twoStepCheckpointFence(const CostModel &model,
                                const DseSpace &space,
                                const TwoStepOptions &opts,
                                const std::string &algo);

/** Fence hash for a portfolio race: the shared evaluation core plus
 *  the racer line-up and race knobs (each racer's own parameters are
 *  fenced by its nested snapshot, validated when that racer
 *  resumes). */
uint64_t portfolioCheckpointFence(const CostModel &model,
                                  const DseSpace &space,
                                  const EvalOptions &opts,
                                  const PortfolioParams &params);

} // namespace cocco

#endif // COCCO_SEARCH_CHECKPOINT_H
