#include "search/portfolio.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "search/checkpoint.h"
#include "search/driver.h"
#include "search/pareto.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cocco {

namespace {

/** Why a racer's stop flag was raised (beyond global cancellation). */
enum class StopWhy
{
    None,    ///< running normally
    Cull,    ///< early-stopped as a loser
    Regrant, ///< stopped to restart with a larger thread grant
};

/** What a racer thread should do after its driver returned. */
enum class ReturnAction
{
    Done,          ///< the racer is finished
    RestartResume, ///< restart from the stash with the new grant
    RestartFresh,  ///< restart from scratch (no stash was available)
};

/**
 * The PortfolioMonitor: every piece of shared race state behind one
 * mutex — per-racer live stats and milestone snapshots, the thread
 * ledger, cull decisions, the latest per-racer checkpoint stash, and
 * the deterministic-race rendezvous barrier.
 *
 * Milestones are registered from SearchObserver::onTrace, which every
 * driver fires once per recorded sample in order, so the snapshot a
 * racer leaves at milestone m (best cost, improvement count, exact
 * sample) is a pure function of that racer's own trajectory — never
 * of wall-clock. Cull decisions consume only those snapshots, which
 * is what makes `deterministicRace` reproducible across thread
 * budgets and across checkpoint/resume (a resume rebuilds the
 * snapshots by replaying each racer's persisted trace).
 */
class RaceController
{
  public:
    struct Racer
    {
        std::string algo;
        CheckpointHooks *hooks = nullptr; ///< the racer's own stash hooks

        int checkpointState = SearchCheckpoint::kRacerActive;
        bool done = false; ///< racer thread finished for good
        StopWhy why = StopWhy::None;
        std::atomic<bool> stopFlag{false};

        // Live stats (under the controller mutex).
        int64_t samples = 0;
        double best = kInfeasiblePenalty;
        int64_t improvements = 0;

        // Milestone ledger: snap*[m] holds the racer's state when its
        // recorded-sample count crossed m * checkEvals (index 0 = the
        // start of the run).
        int64_t reached = 0;
        // Milestone at which a cull froze this racer's say in later
        // decisions (-1 = not culled). The driver overruns its stop
        // flag by a timing-dependent number of samples, so ledger
        // entries past this point must not feed decisions.
        int64_t endMilestone = -1;
        std::vector<double> snapBest{kInfeasiblePenalty};
        std::vector<int64_t> snapImp{0};
        std::vector<int64_t> snapSamples{0};

        // Thread ledger.
        int grant = 0;
        int lastGrant = 0; ///< grant at the time the racer stopped
        int pendingGrant = 0;
        int regrants = 0;

        double wallSeconds = 0.0;

        bool haveResult = false;
        SearchResult result;

        // Latest snapshot from the racer's own checkpoint hooks.
        bool stashValid = false;
        uint64_t stashVersion = 0;
        SearchCheckpoint stash;
    };

    RaceController(const PortfolioParams &params, SearchObserver *parent,
                   int threadBudget)
        : params_(params), parent_(parent),
          racers_(params.racers.size()), threadBudget_(threadBudget)
    {
        for (size_t i = 0; i < racers_.size(); ++i)
            racers_[i].algo = params_.racers[i];
    }

    Racer &racer(size_t i) { return racers_[i]; }
    size_t racerCount() const { return racers_.size(); }

    /** Distribute the thread budget over the racers that will run
     *  (JobManager ledger semantics: integer grants, floor of one, so
     *  a small budget oversubscribes rather than starving racers). */
    void
    initGrants()
    {
        std::lock_guard<std::mutex> lk(mu_);
        int running = 0;
        for (const Racer &r : racers_)
            running += r.done ? 0 : 1;
        if (running == 0)
            return;
        int base = threadBudget_ / running, rem = threadBudget_ % running;
        int k = 0, granted = 0;
        for (Racer &r : racers_) {
            if (r.done)
                continue;
            r.grant = std::max(1, base + (k < rem ? 1 : 0));
            r.lastGrant = r.grant;
            granted += r.grant;
            ++k;
        }
        headroom_ = threadBudget_ - granted; // <= 0 when oversubscribed
    }

    int
    grantFor(size_t idx)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::max(1, racers_[idx].grant);
    }

    /**
     * Restore one racer's monitor state from a persisted snapshot:
     * replay its trace through the same registration logic the live
     * observer path uses, so milestone snapshots (and therefore every
     * re-made cull decision) are bit-identical to the original run's.
     */
    void
    seedFromCheckpoint(size_t idx, const SearchCheckpoint &sub, int state)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Racer &r = racers_[idx];
        r.stash = sub;
        r.stashValid = true;
        r.checkpointState = state;
        double prevBest = kInfeasiblePenalty;
        for (const TracePoint &tp : sub.trace) {
            r.samples = tp.sample;
            r.best = tp.bestCost;
            registerMilestonesLocked(r, tp);
            if (tp.bestCost < prevBest) {
                ++r.improvements;
                prevBest = tp.bestCost;
            }
        }
        r.samples = sub.samples;
        r.best = std::min(r.best, sub.bestCost);
        globalBest_ = std::min(globalBest_, r.best);
        if (state != SearchCheckpoint::kRacerActive)
            r.done = true;
    }

    /** Attach the reconstructed final result of a racer that was
     *  already terminal in the resumed checkpoint. */
    void
    setTerminalResult(size_t idx, SearchResult res)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Racer &r = racers_[idx];
        r.best = std::min(r.best, res.bestCost);
        r.result = std::move(res);
        r.haveResult = true;
    }

    /** Replay any cull decisions the resumed trajectories already
     *  determine (deterministic mode), before racer threads launch. */
    void
    primeDecisions()
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (params_.deterministicRace)
            tryDecideLocked();
    }

    // --- Observer entry points (called from racer driver threads). ---

    void
    onTrace(size_t idx, const TracePoint &tp)
    {
        std::unique_lock<std::mutex> lk(mu_);
        Racer &r = racers_[idx];
        r.samples = tp.sample;
        r.best = tp.bestCost;
        bool crossed = registerMilestonesLocked(r, tp);
        if (crossed) {
            if (params_.deterministicRace)
                tryDecideLocked();
            else
                liveCullCheckLocked(idx);
        }
        if (params_.deterministicRace) {
            // Rendezvous: no racer runs past a milestone before the
            // cull decision for it was made, so losers stop at exact
            // sample positions. wait_for polls parent cancellation
            // (no notification crosses that boundary).
            while (decided_ < r.reached && !r.stopFlag.load() &&
                   !parentCancelled())
                cv_.wait_for(lk, std::chrono::milliseconds(50));
        }
    }

    void
    onImprove(size_t idx, const TracePoint &tp)
    {
        bool globalImprove = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++racers_[idx].improvements;
            if (tp.bestCost < globalBest_) {
                globalBest_ = tp.bestCost;
                globalImprove = true;
            }
        }
        // Forward portfolio-wide improvements to the parent observer
        // (outside the lock: the parent may do I/O). Racer-local
        // improvements that don't beat the race's incumbent stay
        // internal, so the parent sees one monotone stream.
        if (globalImprove && parent_)
            parent_->onImprove(tp);
    }

    /** A racer finished an evaluation batch: refresh the parent
     *  observer's view with portfolio-wide totals (cancellation by
     *  sample count must see the whole race's progress, not one
     *  racer's). */
    void
    onBatchDone(size_t idx, int64_t samples, double best)
    {
        (void)best;
        int64_t total = 0;
        double gb;
        {
            std::lock_guard<std::mutex> lk(mu_);
            Racer &r = racers_[idx];
            r.samples = std::max(r.samples, samples);
            for (const Racer &rc : racers_)
                total += rc.samples;
            gb = globalBest_;
        }
        if (parent_)
            parent_->onBatchDone(total, gb);
    }

    /** Cooperative-cancellation poll for one racer; called from its
     *  evaluation workers, so no mutex (atomic flag + the parent
     *  observer's own thread-safe cancelled()). */
    bool
    cancelledFor(size_t idx)
    {
        return racers_[idx].stopFlag.load(std::memory_order_relaxed) ||
               parentCancelled();
    }

    /** The racer's driver returned; decide what its thread does. */
    ReturnAction
    onRacerReturn(size_t idx, SearchResult res, double wallSeconds)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Racer &r = racers_[idx];
        r.wallSeconds += wallSeconds;
        if (r.why == StopWhy::Regrant &&
            res.stop == StopReason::Cancelled && !parentCancelled()) {
            // The stop was only the thread-regrant restart: resume
            // from the stash with the larger grant. Batch-boundary
            // snapshots resume bit-identically at any thread count,
            // so the restart cannot change this racer's results.
            r.grant = r.pendingGrant;
            if (headroom_ > 0) {
                // Headroom released while this racer was already
                // stopping rides along on the same restart.
                r.grant += headroom_;
                headroom_ = 0;
            }
            r.lastGrant = r.grant;
            r.pendingGrant = 0;
            ++r.regrants;
            r.why = StopWhy::None;
            r.stopFlag = false;
            return r.stashValid ? ReturnAction::RestartResume
                                : ReturnAction::RestartFresh;
        }

        r.done = true;
        r.haveResult = true;
        r.samples = res.samples;
        r.best = std::min(r.best, res.bestCost);
        r.result = std::move(res);
        if (r.why == StopWhy::Regrant) {
            // The racer ended for real before its regrant restart
            // could happen: reclaim the headroom it had absorbed so
            // releaseGrantLocked can hand it to a survivor instead of
            // losing those threads for the rest of the race.
            headroom_ += r.pendingGrant - r.grant;
            r.pendingGrant = 0;
            r.why = StopWhy::None;
        }
        if (r.why == StopWhy::Cull &&
            r.result.stop == StopReason::Cancelled) {
            r.checkpointState = SearchCheckpoint::kRacerCulled;
        } else if (r.result.stop == StopReason::BudgetExhausted ||
                   r.result.stop == StopReason::Stalled) {
            r.checkpointState = SearchCheckpoint::kRacerFinished;
            r.why = StopWhy::None; // a racing cull lost to the finish
        } else {
            // Involuntary stop (global cancel / time limit): the
            // racer is still "active" as far as a resume is concerned.
            r.checkpointState = SearchCheckpoint::kRacerActive;
        }
        releaseGrantLocked(idx);
        if (params_.deterministicRace)
            tryDecideLocked();
        cv_.notify_all();
        return ReturnAction::Done;
    }

    void
    storeStash(size_t idx, const SearchCheckpoint &c)
    {
        std::lock_guard<std::mutex> lk(mu_);
        Racer &r = racers_[idx];
        r.stash = c;
        r.stashValid = true;
        ++r.stashVersion;
        cv_.notify_all();
    }

    SearchCheckpoint
    stashCopy(size_t idx)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return racers_[idx].stash;
    }

    /**
     * Coordinator loop for the portfolio run() thread: sleeps on the
     * controller CV and services user-level checkpoint requests — a
     * request fans out to every running racer's own hooks, and the
     * portfolio snapshot is assembled and saved once each of them
     * stashed a fresh boundary state (or went terminal).
     */
    void
    coordinate(CheckpointHooks *userCk, uint64_t fence, uint64_t seed)
    {
        std::unique_lock<std::mutex> lk(mu_);
        bool collecting = false;
        std::vector<uint64_t> goal(racers_.size(), 0);
        auto anyRunning = [&]() {
            for (const Racer &r : racers_)
                if (!r.done)
                    return true;
            return false;
        };
        while (anyRunning()) {
            cv_.wait_for(lk, std::chrono::milliseconds(50));
            if (userCk && !collecting &&
                userCk->request.exchange(false)) {
                collecting = true;
                for (Racer &r : racers_) {
                    goal[&r - racers_.data()] = r.stashVersion;
                    if (!r.done && r.hooks)
                        r.hooks->request = true;
                }
            }
            if (collecting) {
                bool ready = true;
                for (size_t i = 0; i < racers_.size(); ++i)
                    if (!racers_[i].done &&
                        racers_[i].stashVersion <= goal[i])
                        ready = false;
                if (ready) {
                    collecting = false;
                    if (userCk->save)
                        userCk->save(assembleLocked(fence, seed));
                }
            }
        }
        // All racers are terminal now, so every stash can be
        // synthesized from a final result: a request that was still
        // in flight (or arrived just as the race ended) must not be
        // silently dropped.
        if (userCk) {
            bool pending = userCk->request.exchange(false);
            if ((collecting || pending) && userCk->save)
                userCk->save(assembleLocked(fence, seed));
        }
    }

    /** Assemble the portfolio snapshot after the race ended (the
     *  saveOnStop path). */
    SearchCheckpoint
    assembleFinal(uint64_t fence, uint64_t seed)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return assembleLocked(fence, seed);
    }

    bool
    parentCancelled() const
    {
        return parent_ && parent_->cancelled();
    }

  private:
    /** Record every milestone `tp` crossed. @return true if any. */
    bool
    registerMilestonesLocked(Racer &r, const TracePoint &tp)
    {
        int64_t k = tp.sample / params_.checkEvals;
        if (k <= r.reached)
            return false;
        for (int64_t m = r.reached + 1; m <= k; ++m) {
            r.snapBest.push_back(tp.bestCost);
            r.snapImp.push_back(r.improvements);
            r.snapSamples.push_back(tp.sample);
        }
        r.reached = k;
        return true;
    }

    /** A racer blocks milestone decisions while it can still register
     *  future milestones (running, or restarting after a regrant). */
    static bool
    blocking(const Racer &r)
    {
        return !r.done && r.why != StopWhy::Cull;
    }

    /** The ledger prefix that counts for decisions: everything a
     *  culled racer registered past its cull milestone is stop-
     *  boundary overrun, not trajectory. */
    static int64_t
    decisionReach(const Racer &r)
    {
        if (r.endMilestone >= 0)
            return std::min(r.reached, r.endMilestone);
        return r.reached;
    }

    /**
     * Deterministic mode: decide every milestone all still-racing
     * racers have reached. Inputs are milestone snapshots only, so a
     * decision is a pure function of racer trajectories.
     */
    void
    tryDecideLocked()
    {
        for (;;) {
            int64_t next = decided_ + 1;
            bool anyActive = false, ready = true;
            for (const Racer &r : racers_) {
                if (!blocking(r))
                    continue;
                anyActive = true;
                if (r.reached < next) {
                    ready = false;
                    break;
                }
            }
            if (!anyActive || !ready)
                break;
            decideLocked(next);
            decided_ = next;
            cv_.notify_all();
        }
    }

    /**
     * The cull rule at milestone m: the leader is the racer with the
     * lowest best as of m (its final best if its run ended earlier;
     * ties to the lower index). A racer past warmup is culled when it
     * is strictly worse than the leader AND its improvement count
     * over the last milestone window does not exceed the leader's —
     * i.e. it is behind and not catching up.
     */
    void
    decideLocked(int64_t m)
    {
        size_t leader = 0;
        double leaderBest = kInfeasiblePenalty * 2;
        int64_t leaderRate = 0;
        for (size_t i = 0; i < racers_.size(); ++i) {
            const Racer &r = racers_[i];
            int64_t reach = decisionReach(r);
            double b;
            int64_t rate;
            if (reach >= m) {
                b = r.snapBest[static_cast<size_t>(m)];
                rate = r.snapImp[static_cast<size_t>(m)] -
                       r.snapImp[static_cast<size_t>(m - 1)];
            } else {
                // Ended (or was culled) before m: judge it by its
                // last counted milestone snapshot, never by live
                // state — where the stop boundary landed is timing
                // dependent, the ledger is not.
                b = r.snapBest[static_cast<size_t>(reach)];
                rate = 0;
            }
            if (b < leaderBest) {
                leaderBest = b;
                leader = i;
                leaderRate = rate;
            }
        }
        for (size_t i = 0; i < racers_.size(); ++i) {
            Racer &r = racers_[i];
            if (i == leader || r.endMilestone >= 0 || r.reached < m)
                continue;
            // A racer resumed already-culled replays the same rule so
            // its decision cap lands on the same milestone as in the
            // original run; any other non-blocking racer is exempt.
            bool replay = r.done &&
                          r.checkpointState ==
                              SearchCheckpoint::kRacerCulled;
            if (!replay && (!blocking(r) || r.stopFlag.load()))
                continue;
            if (r.snapSamples[static_cast<size_t>(m)] <
                params_.warmupEvals)
                continue;
            if (r.snapBest[static_cast<size_t>(m)] > leaderBest &&
                r.snapImp[static_cast<size_t>(m)] -
                        r.snapImp[static_cast<size_t>(m - 1)] <=
                    leaderRate) {
                if (replay)
                    r.endMilestone = m;
                else
                    cullLocked(i, m);
            }
        }
    }

    /** Wall-clock mode: the racer that just crossed a milestone
     *  checks itself against the live leader. Same rule as
     *  decideLocked, but on live stats — faster, timing-dependent. */
    void
    liveCullCheckLocked(size_t idx)
    {
        size_t leader = 0;
        double leaderBest = kInfeasiblePenalty * 2;
        for (size_t i = 0; i < racers_.size(); ++i)
            if (racers_[i].best < leaderBest) {
                leaderBest = racers_[i].best;
                leader = i;
            }
        Racer &r = racers_[idx];
        if (idx == leader || r.stopFlag.load())
            return;
        if (r.samples < params_.warmupEvals || r.best <= leaderBest)
            return;
        auto window = [](const Racer &rc) {
            if (rc.reached < 1)
                return rc.improvements;
            return rc.snapImp[static_cast<size_t>(rc.reached)] -
                   rc.snapImp[static_cast<size_t>(rc.reached - 1)];
        };
        const Racer &lr = racers_[leader];
        int64_t leaderRate = lr.done ? 0 : window(lr);
        if (window(r) <= leaderRate)
            cullLocked(idx, r.reached);
    }

    void
    cullLocked(size_t idx, int64_t milestone)
    {
        Racer &r = racers_[idx];
        r.why = StopWhy::Cull;
        r.checkpointState = SearchCheckpoint::kRacerCulled;
        r.endMilestone = milestone;
        r.stopFlag = true;
        cv_.notify_all();
    }

    /** Return a stopped racer's grant to the pool and hand the whole
     *  headroom to the smallest surviving racer (lowest index on
     *  ties). The regrant rides a checkpoint restart, so it is
     *  result-neutral; it only happens when there is real headroom. */
    void
    releaseGrantLocked(size_t idx)
    {
        headroom_ += racers_[idx].grant;
        racers_[idx].grant = 0;
        int target = -1;
        for (size_t j = 0; j < racers_.size(); ++j) {
            Racer &t = racers_[j];
            if (t.done || t.why != StopWhy::None || t.stopFlag.load())
                continue;
            if (target < 0 || t.grant < racers_[static_cast<size_t>(
                                            target)].grant)
                target = static_cast<int>(j);
        }
        if (target >= 0 && headroom_ >= 1) {
            Racer &t = racers_[static_cast<size_t>(target)];
            t.pendingGrant = t.grant + headroom_;
            headroom_ = 0;
            t.why = StopWhy::Regrant;
            t.stopFlag = true;
            cv_.notify_all();
        }
    }

    /**
     * One portfolio snapshot: the per-racer stashes (live boundary
     * states for running racers, synthesized final states for
     * terminal ones) plus each racer's checkpoint state. Top-level
     * incumbent fields summarize across racers for inspection; the
     * racer sections are what a resume consumes.
     */
    SearchCheckpoint
    assembleLocked(uint64_t fence, uint64_t seed)
    {
        SearchCheckpoint c;
        c.algo = "portfolio";
        c.fence = fence;
        c.seed = seed;
        c.hasPortfolio = true;
        for (Racer &r : racers_) {
            SearchCheckpoint sub;
            if (r.checkpointState != SearchCheckpoint::kRacerActive &&
                r.haveResult) {
                // Terminal: synthesize a final stash from the result.
                // Never fed back into a driver, so no fence needed;
                // tsBestBuffer carries the exact best buffer for every
                // algo (genome decode is not authoritative for the
                // two-step drivers).
                sub.algo = r.algo;
                sub.seed = seed;
                sub.samples = r.result.samples;
                sub.bestCost = r.result.bestCost;
                sub.best = r.result.best;
                sub.best.evalRecord = nullptr;
                sub.trace = r.result.trace;
                sub.points = r.result.points;
                sub.hasTs = true;
                sub.tsBestBuffer = r.result.bestBuffer;
            } else if (r.stashValid) {
                sub = r.stash;
            } else {
                // Active racer that never reached a boundary: a fresh
                // start marker (algo set, zero samples, empty trace).
                sub.algo = r.algo;
                sub.seed = seed;
            }
            c.racers.push_back(std::move(sub));
            c.racerState.push_back(r.checkpointState);
            c.samples += c.racers.back().samples;
            if (c.racers.back().bestCost < c.bestCost) {
                c.bestCost = c.racers.back().bestCost;
                c.best = c.racers.back().best;
            }
        }
        return c;
    }

    const PortfolioParams &params_;
    SearchObserver *parent_;
    std::vector<Racer> racers_;
    int threadBudget_;
    int headroom_ = 0;
    int64_t decided_ = 0; ///< highest decided milestone (deterministic)
    double globalBest_ = kInfeasiblePenalty; ///< parent-stream incumbent

    mutable std::mutex mu_;
    std::condition_variable cv_;
};

/** Per-racer observer: forwards the racer's progress stream into the
 *  controller and polls its stop flag for cooperative cancellation. */
class RacerObserver : public SearchObserver
{
  public:
    void
    bind(RaceController *ctl, size_t idx)
    {
        ctl_ = ctl;
        idx_ = idx;
    }

    void
    onTrace(const TracePoint &tp) override
    {
        ctl_->onTrace(idx_, tp);
    }

    void
    onImprove(const TracePoint &tp) override
    {
        ctl_->onImprove(idx_, tp);
    }

    void
    onBatchDone(int64_t samples, double bestCost) override
    {
        ctl_->onBatchDone(idx_, samples, bestCost);
    }

    bool
    cancelled() override
    {
        return ctl_->cancelledFor(idx_);
    }

  private:
    RaceController *ctl_ = nullptr;
    size_t idx_ = 0;
};

/** The racing meta-searcher (see portfolio.h). */
class PortfolioSearcher : public Searcher
{
  public:
    PortfolioSearcher(CostModel &model, const DseSpace &space,
                      const SearchSpec &spec)
        : model_(model), space_(space), spec_(spec)
    {
    }

    std::string name() const override { return "portfolio"; }

    std::string
    describe() const override
    {
        return "racing portfolio: registered searchers race on thread "
               "slices over one shared cache; losers are early-stopped "
               "and their threads regranted";
    }

    SearchResult run(const std::vector<Genome> &seeds) override;

  private:
    struct Slot
    {
        SearchSpec rspec;        ///< the racer's solo spec
        RacerObserver shim;
        CheckpointHooks hooks;   ///< the racer's own stash hooks
        SearchCheckpoint resume; ///< stable storage for hooks.resume
        bool haveResume = false;
        ParetoArchive archive;   ///< per-racer frontier (merged at end)
        std::thread thread;
    };

    void racerMain(size_t idx, const std::vector<Genome> &seeds);
    SearchResult synthesizeTerminal(const SearchCheckpoint &sub,
                                    int state) const;

    CostModel &model_;
    DseSpace space_;
    SearchSpec spec_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::unique_ptr<RaceController> ctl_;
};

/** Reconstruct a terminal racer's final result from its persisted
 *  stash (the racer is not re-run on resume). */
SearchResult
PortfolioSearcher::synthesizeTerminal(const SearchCheckpoint &sub,
                                      int state) const
{
    SearchResult r;
    r.best = sub.best;
    r.bestCost = sub.bestCost;
    r.samples = sub.samples;
    r.trace = sub.trace;
    r.points = sub.points;
    r.stop = state == SearchCheckpoint::kRacerCulled
                 ? StopReason::Cancelled
                 : StopReason::BudgetExhausted;
    if (r.bestCost < kInfeasiblePenalty) {
        r.bestBuffer = sub.hasTs ? sub.tsBestBuffer
                                 : r.best.buffer(space_);
        r.bestGraphCost = model_.partitionCost(r.best.part, r.bestBuffer);
    }
    return r;
}

void
PortfolioSearcher::racerMain(size_t idx, const std::vector<Genome> &seeds)
{
    Slot &s = *slots_[idx];
    const double timeLimit = spec_.eval.timeLimitSec;
    double spent = 0.0;
    for (;;) {
        s.rspec.eval.threads = ctl_->grantFor(idx);
        s.hooks.resume = s.haveResume ? &s.resume : nullptr;
        if (timeLimit > 0.0)
            s.rspec.eval.timeLimitSec =
                std::max(timeLimit - spent, 1e-9);
        auto t0 = std::chrono::steady_clock::now();
        std::unique_ptr<Searcher> searcher = SearcherRegistry::instance()
            .make(s.rspec.algo, model_, space_, s.rspec);
        SearchResult r = searcher->run(seeds);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        spent += wall;
        ReturnAction act = ctl_->onRacerReturn(idx, std::move(r), wall);
        if (act == ReturnAction::Done)
            break;
        s.haveResume = act == ReturnAction::RestartResume;
        if (s.haveResume)
            s.resume = ctl_->stashCopy(idx);
    }
}

SearchResult
PortfolioSearcher::run(const std::vector<Genome> &seeds)
{
    const PortfolioParams &pp = spec_.portfolio;
    fatalIf(portfolioParamsError(pp)); // specs are checked before this

    // The ONE shared evaluation cache all racers warm for each other
    // (the salt excludes seed/threads/algo, so racers share entries at
    // the genome level).
    std::shared_ptr<EvalCache> cache = spec_.eval.cache;
    if (!cache && spec_.eval.cacheEnabled)
        cache = std::make_shared<EvalCache>(spec_.eval.cacheCapacity);
    EvalCacheStats cacheStart;
    if (cache)
        cacheStart = cache->stats();

    const int threadBudget =
        ThreadPool::resolveThreads(spec_.eval.threads);
    SearchObserver *parent = spec_.eval.observer;
    ctl_ = std::make_unique<RaceController>(pp, parent, threadBudget);

    // User-level checkpointing: the hooks on the spec belong to the
    // portfolio; racers get their own stash hooks below.
    CheckpointHooks *userCk = spec_.eval.checkpoint;
    const uint64_t fence =
        userCk ? portfolioCheckpointFence(model_, space_, spec_.eval, pp)
               : 0;
    const SearchCheckpoint *resumeCk = userCk ? userCk->resume : nullptr;
    if (resumeCk) {
        if (resumeCk->algo != "portfolio")
            fatal("portfolio: checkpoint is for algo '%s'",
                  resumeCk->algo.c_str());
        if (resumeCk->fence != fence)
            fatal("portfolio: checkpoint fence mismatch (the racer "
                  "line-up, race knobs, model, or budget changed)");
        if (!resumeCk->hasPortfolio ||
            resumeCk->racers.size() != pp.racers.size() ||
            resumeCk->racerState.size() != pp.racers.size())
            fatal("portfolio: malformed portfolio checkpoint");
    }

    const size_t n = pp.racers.size();
    slots_.clear();
    for (size_t i = 0; i < n; ++i) {
        slots_.push_back(std::make_unique<Slot>());
        Slot &s = *slots_[i];
        s.shim.bind(ctl_.get(), i);
        s.rspec = spec_;
        s.rspec.algo = pp.racers[i];
        s.rspec.eval.cache = cache;
        s.rspec.eval.cacheEnabled = cache != nullptr;
        s.rspec.eval.observer = &s.shim;
        s.rspec.eval.checkpoint = &s.hooks;
        s.rspec.eval.pareto = spec_.eval.pareto ? &s.archive : nullptr;
        s.rspec.paretoMode = false;
        s.hooks.save = [this, i](const SearchCheckpoint &c) {
            ctl_->storeStash(i, c);
        };
        RaceController::Racer &r = ctl_->racer(i);
        r.hooks = &s.hooks;
        if (resumeCk) {
            const SearchCheckpoint &sub = resumeCk->racers[i];
            int state = resumeCk->racerState[i];
            if (sub.algo != pp.racers[i])
                fatal("portfolio: racer %zu checkpoint is for '%s', "
                      "spec says '%s'",
                      i, sub.algo.c_str(), pp.racers[i].c_str());
            if (state == SearchCheckpoint::kRacerActive) {
                // Fresh-start marker: no samples recorded yet.
                if (sub.samples > 0 || !sub.trace.empty()) {
                    ctl_->seedFromCheckpoint(i, sub, state);
                    s.resume = sub;
                    s.haveResume = true;
                }
            } else {
                ctl_->seedFromCheckpoint(i, sub, state);
                ctl_->setTerminalResult(i,
                                        synthesizeTerminal(sub, state));
            }
        }
    }

    ctl_->initGrants();
    ctl_->primeDecisions();

    for (size_t i = 0; i < n; ++i)
        if (!ctl_->racer(i).done)
            slots_[i]->thread = std::thread(
                [this, i, &seeds] { racerMain(i, seeds); });

    ctl_->coordinate(userCk, fence, spec_.eval.seed);
    for (auto &slot : slots_)
        if (slot->thread.joinable())
            slot->thread.join();

    // Winner: lowest final best cost, ties to the lower index.
    size_t w = 0;
    for (size_t i = 1; i < n; ++i)
        if (ctl_->racer(i).result.bestCost <
            ctl_->racer(w).result.bestCost)
            w = i;

    SearchResult out = ctl_->racer(w).result;
    out.samples = 0;
    out.deltaStats = DeltaStats{};
    for (size_t i = 0; i < n; ++i) {
        RaceController::Racer &r = ctl_->racer(i);
        out.samples += r.result.samples;
        out.deltaStats += r.result.deltaStats;
        RacerStats stats;
        stats.algo = r.algo;
        stats.samples = r.result.samples;
        stats.bestCost = r.result.bestCost;
        stats.improvements = r.improvements;
        stats.wallSeconds = r.wallSeconds;
        stats.threads = r.lastGrant;
        stats.regrants = r.regrants;
        stats.culled =
            r.checkpointState == SearchCheckpoint::kRacerCulled;
        stats.winner = i == w;
        stats.stop = r.result.stop;
        out.racers.push_back(std::move(stats));
        // Merge per-racer frontiers in index order: deterministic
        // even under archive truncation.
        if (spec_.eval.pareto)
            spec_.eval.pareto->merge(slots_[i]->archive);
    }
    // The per-racer cache deltas overlap in time on the shared cache;
    // only the portfolio-wide delta is meaningful.
    if (cache)
        out.cacheStats = cache->stats() - cacheStart;

    bool parentCancel = ctl_->parentCancelled();
    if (parentCancel)
        out.stop = StopReason::Cancelled;
    else if (out.racers[w].culled)
        out.stop = StopReason::BudgetExhausted; // won posthumously
    else
        out.stop = ctl_->racer(w).result.stop;

    if (userCk && userCk->save && userCk->saveOnStop &&
        (out.stop == StopReason::Cancelled ||
         out.stop == StopReason::TimeLimit))
        userCk->save(ctl_->assembleFinal(fence, spec_.eval.seed));
    return out;
}

std::unique_ptr<Searcher>
makePortfolio(CostModel &m, const DseSpace &s, const SearchSpec &spec)
{
    return std::make_unique<PortfolioSearcher>(m, s, spec);
}

} // namespace

std::string
portfolioParamsError(const PortfolioParams &p)
{
    if (p.racers.empty())
        return "portfolio.racers must not be empty";
    for (size_t i = 0; i < p.racers.size(); ++i) {
        const std::string &key = p.racers[i];
        if (key == "portfolio")
            return "portfolio.racers: a portfolio cannot race itself";
        if (!SearcherRegistry::instance().contains(key))
            return "portfolio.racers: unknown racer \"" + key + "\"";
        for (size_t j = 0; j < i; ++j)
            if (p.racers[j] == key)
                return "portfolio.racers: duplicate racer \"" + key +
                       "\" (same seed => identical runs)";
    }
    if (p.checkEvals < 1)
        return "portfolio.checkEvals must be >= 1";
    if (p.warmupEvals < 0)
        return "portfolio.warmupEvals must be >= 0";
    return "";
}

void
registerPortfolioSearcher(SearcherRegistry &reg)
{
    reg.add("portfolio",
            "racing portfolio over registered searchers (shared cache, "
            "losers early-stopped, threads regranted)",
            makePortfolio, [](const SearchSpec &spec) {
                // The block's rule, then each racer's own.
                std::string why = portfolioParamsError(spec.portfolio);
                const SearcherRegistry &all = SearcherRegistry::instance();
                for (const std::string &racer : spec.portfolio.racers)
                    if (why.empty())
                        why = all.ruleError(racer, spec);
                return why;
            });
}

} // namespace cocco
