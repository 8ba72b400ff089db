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
 * (master RNG, engine stream counter, incumbent, trace, the driver's
 * own section), and nothing timing-dependent is.
 *
 * A snapshot holds the state every driver shares and exactly one
 * driver section: the GA's population, the SA chain, the two-step
 * sweep's position, or a race's per-racer entries. A section struct
 * (below) holds its state beside its line codec, its genome check and
 * its fence, so a new driver adds a section rather than fields on a
 * shared struct.
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
 * legitimately resume with different parallelism. checkpointError
 * refuses another run's snapshot before the run starts, with the
 * reason; the drivers keep a fatal check of their own against direct
 * library misuse, rather than silently producing a forked run.
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
#include <string_view>
#include <variant>
#include <vector>

#include "search/ga.h"
#include "search/portfolio.h"
#include "search/sa.h"
#include "search/two_step.h"

namespace cocco {

struct SearchSpec; // search/driver.h

// --- Driver sections. Each holds its driver's state and, in one
//     place, how it is checked and persisted: its line tag ("G" opens
//     a GA section in the file), its name in reasons, the algos that
//     save it, fence() (the fence its driver computes from a spec),
//     genomeError() (its genomes against the model; checkpointError)
//     and lines(), its line codec. checkpoint.cc walks lines() with a
//     writer (S const) and with a strict reader, so a section is
//     written down once for both; a count()'s second argument is the
//     reader's ceiling. ---

/** A genome and its cost: one GA population member. */
struct ScoredGenome
{
    Genome genome;
    double cost = kInfeasiblePenalty;
};

/** GA: the population at the generation boundary, with its costs. */
struct GaSection
{
    static constexpr const char *kTag = "G";
    static constexpr const char *kName = "ga";
    static bool owns(const std::string &algo) { return algo == "ga"; }
    static uint64_t fence(const CostModel &model, const DseSpace &space,
                          const SearchSpec &spec);

    std::vector<ScoredGenome> population;

    std::string genomeError(const Graph &g);

    template <typename L, typename S>
    static void
    lines(L &l, S &s)
    {
        l.line(kTag, "population header").count(s.population, 1 << 20).end();
        for (auto &m : s.population)
            l.line("g", "population entry").real(m.cost).genome(m.genome).end();
    }
};

/** SA: the chain state, and t0, the temperature schedule frozen from
 *  the very first evaluation. */
struct SaSection
{
    static constexpr const char *kTag = "V";
    static constexpr const char *kName = "sa";
    static bool owns(const std::string &algo) { return algo == "sa"; }
    static uint64_t fence(const CostModel &model, const DseSpace &space,
                          const SearchSpec &spec);

    Genome cur;
    double curCost = 0.0;
    double t0 = 0.0;

    std::string genomeError(const Graph &g);

    template <typename L, typename S>
    static void
    lines(L &l, S &s)
    {
        l.line(kTag, "SA section")
            .real(s.curCost)
            .real(s.t0)
            .genome(s.cur)
            .end();
    }
};

/** Two-step sweep: the position between candidates and the folded
 *  accounting. */
struct SweepSection
{
    static constexpr const char *kTag = "W";
    static constexpr const char *kName = "sweep";
    static bool
    owns(const std::string &algo)
    {
        return algo == "ts-random" || algo == "ts-grid";
    }
    static uint64_t fence(const CostModel &model, const DseSpace &space,
                          const SearchSpec &spec);

    int64_t candidate = 0; ///< next candidate index to run
    uint64_t subSeed = 0;
    BufferConfig bestBuffer; ///< the incumbent's candidate buffer
    uint64_t boundRejections = 0;
    uint64_t boundSkippedSamples = 0;
    DeltaStats delta;

    /** The incumbent, its one genome, is checked for every section. */
    std::string genomeError(const Graph &) { return ""; }

    template <typename L, typename S>
    static void
    lines(L &l, S &s)
    {
        l.line(kTag, "sweep section")
            .num(s.candidate, 0, INT64_MAX)
            .hex(s.subSeed)
            .num(s.boundRejections)
            .num(s.boundSkippedSamples)
            .num(s.delta.reports)
            .num(s.delta.nodesTouched)
            .num(s.delta.hwOnly)
            .num(s.delta.rewrites)
            .buffer(s.bestBuffer)
            .end();
    }
};

struct RaceEntry; // below: it holds a whole SearchCheckpoint

/** Portfolio race: one entry per racer, index-parallel to the
 *  line-up. Nesting is one level deep: a racer never races. */
struct RaceSection
{
    static constexpr const char *kTag = "Q";
    static constexpr const char *kName = "race";
    static bool
    owns(const std::string &algo)
    {
        return algo == "portfolio";
    }
    static uint64_t fence(const CostModel &model, const DseSpace &space,
                          const SearchSpec &spec);

    std::vector<RaceEntry> racers;

    std::string genomeError(const Graph &g);

    template <typename L, typename S> static void lines(L &l, S &s);
};

/** One mid-run snapshot at a batch boundary (see file comment). */
struct SearchCheckpoint
{
    /** Persisted-format version (core/serialize). Bump on ANY change
     *  to this struct, a section or their encoding; loaders reject
     *  other versions (a half-understood resume state would fork the
     *  run). */
    static constexpr int kVersion = 4; ///< v4: one section per driver

    std::string algo;   ///< driver key ("ga", "sa", "ts-random", ...)
    uint64_t fence = 0; ///< run-identity hash (checkpointFence below)

    // --- State shared by every driver. ---
    int64_t samples = 0;
    double bestCost = kInfeasiblePenalty;
    Genome best;
    std::vector<TracePoint> trace;
    std::vector<SamplePoint> points;   ///< GA --record-points stream
    std::array<uint64_t, 4> rng{};     ///< the driver's master Rng
    uint64_t streamCounter = 0;        ///< engine counter at the boundary
    int64_t sinceImprove = 0;          ///< stall counter

    /** The saving driver's own state; none for a racer that never
     *  reached a boundary or has ended. */
    using Section = std::variant<std::monostate, GaSection, SaSection,
                                 SweepSection, RaceSection>;
    Section section;
};

/** One racer of a RaceSection. */
struct RaceEntry
{
    /** Still racing (resumed by its driver, fence checked), culled by
     *  the monitor, or finished. */
    enum State
    {
        kActive = 0,
        kCulled = 1,
        kFinished = 2,
    };
    int state = kActive;
    /** An ended racer's final best buffer, as its result reported it
     *  (the snapshot's genome does not fix it for every driver). */
    BufferConfig bestBuffer;
    /** An active racer's last boundary (no section when it reached
     *  none), or an ended racer's final state (never a section). */
    SearchCheckpoint snapshot;

    /** Its driver resumes it: still racing, with samples recorded
     *  (else it starts afresh). */
    bool
    resumes() const
    {
        return state == kActive &&
               (snapshot.samples > 0 || !snapshot.trace.empty());
    }
};

template <typename L, typename S>
void
RaceSection::lines(L &l, S &s)
{
    l.line(kTag, "race header").count(s.racers, 64).end();
    for (auto &e : s.racers) {
        l.line("q", "racer state")
            .num(e.state, RaceEntry::kActive, RaceEntry::kFinished)
            .buffer(e.bestBuffer)
            .end();
        l.racer(e); // its snapshot, one level down
    }
}

/** Driver-facing checkpoint wiring (EvalOptions::checkpoint). */
struct CheckpointHooks
{
    /** Snapshot to restore before the first batch; null = fresh run.
     *  Must outlive the run. Check it with checkpointError first; the
     *  drivers' own checks are fatal. */
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
 * the boundary, so the sweep hold()s its position before each
 * candidate.
 */
class RunRecord
{
  public:
    /** The driver's own section of its live state. */
    using SectionFn = std::function<SearchCheckpoint::Section()>;

    /** An engine run (with the driver's @p rng, if it draws one);
     *  @p fence matters only under checkpoint hooks. */
    RunRecord(EvalEngine &engine, Rng *rng, const char *algo,
              uint64_t fence, SectionFn section, bool recordPoints = false);

    /** A folding run over @p cache, the one its inner runs share. */
    RunRecord(CostModel &model, const DseSpace &space,
              const EvalOptions &opts, SearchMonitor &monitor,
              EvalCache *cache, const char *algo, uint64_t fence,
              SectionFn section);

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
     *  stop save: its small fields and section, and the lengths of the
     *  trace and points, which only grow, so the saved snapshot is
     *  their prefix. O(state), not O(samples). */
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
    /** The small fields and the section of the live state; no trace
     *  or points. */
    SearchCheckpoint head() const;
    /** The snapshot a save writes: the held one, else the live one. */
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
    SectionFn section_;
    uint64_t boundary_ = 0; ///< stream counter at the last boundary
    std::optional<SearchCheckpoint> held_; ///< head() at the hold
    size_t heldTrace_ = 0, heldPoints_ = 0; ///< their lengths then
    SearchResult res_;
};

/**
 * Why @p c cannot resume the run of @p spec over @p model and
 * @p space, checked in this order: the algo; the fence (the one the
 * spec's driver computes, checkpointFence); that the section is the
 * algo's; the GA population size; a race's racer count, algos and
 * states, and each resumable racer's fence, section and population;
 * then every genome. A genome has another length than the model, or a
 * population genome or SA state (the operators' inputs) is not
 * canonical (Partition::isCanonical). "" when the snapshot fits; the
 * check then leaves those inputs flagged canonical
 * (Partition::checkCanonical), so the operators repair them locally.
 * An empty incumbent is allowed (no sample has beaten the
 * infeasibility penalty yet). The file loader cannot check this (it
 * knows no run), and a genome of another length would abort
 * structural repair, so run it before resuming.
 */
std::string checkpointError(SearchCheckpoint &c, const CostModel &model,
                            const DseSpace &space, const SearchSpec &spec);

/** The fence the driver of @p spec.algo computes for a run over
 *  @p model and @p space; 0 for an algo that saves no checkpoint. */
uint64_t checkpointFence(const CostModel &model, const DseSpace &space,
                         const SearchSpec &spec);

/** @p c as checkpoint-file text (format SearchCheckpoint::kVersion):
 *  a header line, the shared lines, the one section, END. */
std::string encodeCheckpoint(const SearchCheckpoint &c);

/** Parse encodeCheckpoint's text into @p out. @return "" or the
 *  reason (a line number and what is wrong there), with @p out
 *  untouched. Every field must have its exact form and range; the
 *  section must be the algo's, and a race's entries one level deep. */
std::string decodeCheckpoint(std::string_view text, SearchCheckpoint *out);

/** Fence hash for a GA run (model + space + result-affecting options
 *  + the GA knobs; threads/pruning excluded — see file comment). */
uint64_t gaCheckpointFence(const CostModel &model, const DseSpace &space,
                           const GaOptions &opts);

/** Fence hash for an SA run. */
uint64_t saCheckpointFence(const CostModel &model, const DseSpace &space,
                           const SaOptions &opts);

/** Fence hash for a two-step sweep; @p algo distinguishes the
 *  candidate schedule ("ts-random" vs "ts-grid"). A frozen space
 *  sweeps its one buffer with the whole budget, so the per-candidate
 *  slice is not part of that run's identity. */
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
