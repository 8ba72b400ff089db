/**
 * @file
 * Tests for the racing searcher portfolio (search/portfolio.h) and
 * the first-class Pareto frontier mode (search/pareto.h
 * ParetoArchive): archive invariants, the determinism contract
 * (fixed seed + deterministic race -> results independent of the
 * thread budget, racers bit-identical to solo runs), mid-race
 * cancellation, and checkpoint/resume of an in-flight race.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/cocco.h"
#include "core/serialize.h"
#include "models/random_dag.h"
#include "search/checkpoint.h"
#include "search/pareto.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "util/json.h"

using namespace cocco;

namespace {

Graph
smallGraph()
{
    RandomDagOptions o;
    o.convNodes = 18;
    return buildRandomDag(33, o);
}

/** A two-racer spec small enough for the sanitizer lane. The race
 *  knobs put the first cull decision inside the budget. */
SearchSpec
makeRaceSpec(int64_t budget)
{
    SearchSpec spec;
    spec.algo = "portfolio";
    spec.style = BufferStyle::Shared;
    spec.eval.sampleBudget = budget;
    spec.eval.seed = 11;
    spec.eval.threads = 1;
    spec.eval.cacheEnabled = false;
    spec.ga.population = 16;
    spec.portfolio.racers = {"ga", "sa"};
    spec.portfolio.deterministicRace = true;
    spec.portfolio.checkEvals = 200;
    spec.portfolio.warmupEvals = 400;
    return spec;
}

/** Observer that requests cancellation once @p after samples have
 *  been folded by any racer (served at the next batch boundary). */
class CancelAfter : public SearchObserver
{
  public:
    explicit CancelAfter(int64_t after) : after_(after) {}

    void
    onBatchDone(int64_t samples, double) override
    {
        if (samples >= after_)
            hit_.store(true, std::memory_order_relaxed);
    }

    bool
    cancelled() override
    {
        return hit_.load(std::memory_order_relaxed);
    }

  private:
    int64_t after_;
    std::atomic<bool> hit_{false};
};

/** Everything a portfolio run reports, compared exactly. */
void
expectSameRace(const CoccoResult &a, const CoccoResult &b)
{
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.buffer.totalBytes(), b.buffer.totalBytes());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost) << "i=" << i;
    }
    ASSERT_EQ(a.racers.size(), b.racers.size());
    for (size_t i = 0; i < a.racers.size(); ++i) {
        EXPECT_EQ(a.racers[i].algo, b.racers[i].algo);
        EXPECT_EQ(a.racers[i].samples, b.racers[i].samples) << "i=" << i;
        EXPECT_EQ(a.racers[i].bestCost, b.racers[i].bestCost) << "i=" << i;
        EXPECT_EQ(a.racers[i].improvements, b.racers[i].improvements);
        EXPECT_EQ(a.racers[i].culled, b.racers[i].culled) << "i=" << i;
        EXPECT_EQ(a.racers[i].winner, b.racers[i].winner) << "i=" << i;
    }
}

// --- Pareto archive invariants ------------------------------------------

ParetoEntry
entry(int64_t buf, double en, double lat)
{
    ParetoEntry e;
    e.bufferBytes = buf;
    e.energyPj = en;
    e.latencyCycles = lat;
    e.metric = en;
    e.sample = 0;
    return e;
}

TEST(ParetoArchive, DominatedOffersAreRejected)
{
    ParetoArchive a;
    EXPECT_TRUE(a.offer(entry(100, 10.0, 10.0)));
    // Dominated in every objective.
    EXPECT_FALSE(a.offer(entry(200, 20.0, 20.0)));
    // Exact duplicate.
    EXPECT_FALSE(a.offer(entry(100, 10.0, 10.0)));
    // Dominates the incumbent: replaces it.
    EXPECT_TRUE(a.offer(entry(50, 5.0, 5.0)));
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(a.entries()[0].bufferBytes, 50);
    EXPECT_EQ(a.offered(), 4);
}

TEST(ParetoArchive, TradeOffsCoexistSortedByBuffer)
{
    ParetoArchive a;
    EXPECT_TRUE(a.offer(entry(300, 1.0, 9.0)));
    EXPECT_TRUE(a.offer(entry(100, 3.0, 7.0)));
    EXPECT_TRUE(a.offer(entry(200, 2.0, 8.0)));
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a.entries()[0].bufferBytes, 100);
    EXPECT_EQ(a.entries()[1].bufferBytes, 200);
    EXPECT_EQ(a.entries()[2].bufferBytes, 300);
}

TEST(ParetoArchive, NoKeptEntryDominatesAnother)
{
    // A deterministic pseudo-random stream of offers; after all of
    // them the kept set must be mutually non-dominated.
    ParetoArchive a(64);
    uint64_t x = 12345;
    auto next = [&x]() {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return (x >> 33) % 1000;
    };
    for (int i = 0; i < 500; ++i)
        a.offer(entry(static_cast<int64_t>(next()) + 1,
                      static_cast<double>(next()) + 1.0,
                      static_cast<double>(next()) + 1.0));
    const std::vector<ParetoEntry> &kept = a.entries();
    EXPECT_LE(kept.size(), 64u);
    for (size_t i = 0; i < kept.size(); ++i)
        for (size_t j = 0; j < kept.size(); ++j) {
            if (i == j)
                continue;
            bool le = kept[i].bufferBytes <= kept[j].bufferBytes &&
                      kept[i].energyPj <= kept[j].energyPj &&
                      kept[i].latencyCycles <= kept[j].latencyCycles;
            bool lt = kept[i].bufferBytes < kept[j].bufferBytes ||
                      kept[i].energyPj < kept[j].energyPj ||
                      kept[i].latencyCycles < kept[j].latencyCycles;
            EXPECT_FALSE(le && lt)
                << "entry " << i << " dominates entry " << j;
        }
}

TEST(ParetoArchive, TruncationKeepsCapacityAndExtremes)
{
    ParetoArchive a(8);
    // A clean 2D trade-off line: every point is non-dominated, so
    // truncation (not dominance) must do the limiting.
    for (int i = 0; i < 32; ++i)
        a.offer(entry(100 + i, 100.0 - i, 50.0));
    EXPECT_EQ(a.size(), 8u);
    // Crowding-distance truncation preserves the extremes.
    EXPECT_EQ(a.entries().front().bufferBytes, 100);
    EXPECT_EQ(a.entries().back().bufferBytes, 131);
}

TEST(ParetoArchive, HypervolumeSanity)
{
    ParetoArchive empty;
    EXPECT_EQ(empty.hypervolume(), 0.0);

    ParetoArchive one;
    one.offer(entry(100, 10.0, 10.0));
    EXPECT_GT(one.hypervolume(), 0.0);

    // A frontier spanning the objective box beats a single point.
    ParetoArchive line;
    for (int i = 0; i < 10; ++i)
        line.offer(entry(100 + 10 * i, 100.0 - 10.0 * i, 50.0));
    EXPECT_GT(line.hypervolume(), 0.0);
    EXPECT_LE(line.hypervolume(), 1.05 * 1.05 * 1.05);
}

TEST(ParetoArchive, MergeMatchesSequentialOffers)
{
    ParetoArchive a, b, both;
    for (int i = 0; i < 10; ++i) {
        ParetoEntry e = entry(100 + 7 * i, 90.0 - 3.0 * i, 40.0 + i);
        a.offer(e);
        both.offer(e);
    }
    for (int i = 0; i < 10; ++i) {
        ParetoEntry e = entry(90 + 9 * i, 95.0 - 4.0 * i, 45.0 + i);
        b.offer(e);
        both.offer(e);
    }
    a.merge(b);
    ASSERT_EQ(a.size(), both.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.entries()[i].bufferBytes, both.entries()[i].bufferBytes);
        EXPECT_EQ(a.entries()[i].energyPj, both.entries()[i].energyPj);
    }
}

// --- Portfolio determinism ----------------------------------------------

TEST(Portfolio, DeterministicAcrossThreadBudgets)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(1200);

    CoccoResult t1 = CoccoFramework(g, accel).explore(spec);
    SearchSpec wide = spec;
    wide.eval.threads = 3;
    CoccoResult t3 = CoccoFramework(g, accel).explore(wide);

    ASSERT_EQ(t1.racers.size(), 2u);
    expectSameRace(t1, t3);
}

TEST(Portfolio, RacersAreBitIdenticalToSoloRuns)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(1200);
    CoccoResult race = CoccoFramework(g, accel).explore(spec);
    ASSERT_EQ(race.racers.size(), 2u);

    // Every racer that ran to its budget must match the solo run of
    // the same algorithm exactly (same seed, same shared eval core).
    for (const RacerStats &r : race.racers) {
        if (r.culled)
            continue;
        SearchSpec solo = spec;
        solo.algo = r.algo;
        CoccoResult s = CoccoFramework(g, accel).explore(solo);
        EXPECT_EQ(s.samples, r.samples) << r.algo;
        EXPECT_EQ(s.objective, r.bestCost) << r.algo;
    }

    // The winner's result is the portfolio's result.
    bool sawWinner = false;
    for (const RacerStats &r : race.racers)
        if (r.winner) {
            sawWinner = true;
            EXPECT_EQ(r.bestCost, race.objective);
            EXPECT_FALSE(r.culled);
        }
    EXPECT_TRUE(sawWinner);
}

TEST(Portfolio, SharedCacheChangesNoResults)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(800);
    CoccoResult cold = CoccoFramework(g, accel).explore(spec);

    SearchSpec cached = spec;
    cached.eval.cacheEnabled = true;
    CoccoResult warm = CoccoFramework(g, accel).explore(cached);
    EXPECT_GT(warm.cacheStats.hits + warm.cacheStats.misses, 0u);
    expectSameRace(cold, warm);
}

TEST(Portfolio, MidRaceCancelStopsEveryRacer)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(100000);
    CancelAfter cancel(400);
    spec.eval.observer = &cancel;
    CoccoResult r = CoccoFramework(g, accel).explore(spec);
    EXPECT_EQ(r.stop, StopReason::Cancelled);
    ASSERT_EQ(r.racers.size(), 2u);
    for (const RacerStats &rs : r.racers)
        EXPECT_LT(rs.samples, 100000) << rs.algo;
}

// --- Portfolio checkpoint/resume ----------------------------------------

TEST(Portfolio, CheckpointRoundTripsThroughTheFile)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(100000);
    CancelAfter cancel(400);
    spec.eval.observer = &cancel;

    SearchCheckpoint saved;
    bool haveSaved = false;
    CheckpointHooks hooks;
    hooks.save = [&](const SearchCheckpoint &c) {
        saved = c;
        haveSaved = true;
    };
    spec.eval.checkpoint = &hooks;
    CoccoResult partial = CoccoFramework(g, accel).explore(spec);
    EXPECT_EQ(partial.stop, StopReason::Cancelled);
    ASSERT_TRUE(haveSaved);
    EXPECT_EQ(saved.algo, "portfolio");
    const auto *race = std::get_if<RaceSection>(&saved.section);
    ASSERT_NE(race, nullptr);
    ASSERT_EQ(race->racers.size(), 2u);
    EXPECT_EQ(race->racers[0].snapshot.algo, "ga");
    EXPECT_EQ(race->racers[1].snapshot.algo, "sa");

    std::string path = "portfolio_test_ck.tmp";
    ASSERT_TRUE(saveCheckpoint(saved, path));
    SearchCheckpoint loaded;
    std::string err;
    ASSERT_TRUE(loadCheckpoint(path, &loaded, &err)) << err;
    std::remove(path.c_str());

    EXPECT_EQ(loaded.algo, saved.algo);
    EXPECT_EQ(loaded.fence, saved.fence);
    const auto *back = std::get_if<RaceSection>(&loaded.section);
    ASSERT_NE(back, nullptr);
    ASSERT_EQ(back->racers.size(), race->racers.size());
    for (size_t i = 0; i < back->racers.size(); ++i) {
        const RaceEntry &a = back->racers[i], &b = race->racers[i];
        EXPECT_EQ(a.state, b.state);
        EXPECT_EQ(a.bestBuffer, b.bestBuffer);
        EXPECT_EQ(a.snapshot.algo, b.snapshot.algo);
        EXPECT_EQ(a.snapshot.fence, b.snapshot.fence);
        EXPECT_EQ(a.snapshot.samples, b.snapshot.samples);
        EXPECT_EQ(a.snapshot.bestCost, b.snapshot.bestCost);
        EXPECT_EQ(a.snapshot.trace.size(), b.snapshot.trace.size());
        EXPECT_EQ(a.snapshot.section.index(), b.snapshot.section.index());
    }
}

TEST(Portfolio, ResumedRaceFinishesLikeTheUninterruptedOne)
{
    Graph g = smallGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(1200);
    CoccoResult straight = CoccoFramework(g, accel).explore(spec);

    // Cancel mid-race; saveOnStop persists the boundary state.
    SearchCheckpoint saved;
    bool haveSaved = false;
    CancelAfter cancel(400);
    CheckpointHooks saveHooks;
    saveHooks.save = [&](const SearchCheckpoint &c) {
        saved = c;
        haveSaved = true;
    };
    SearchSpec interrupted = spec;
    interrupted.eval.observer = &cancel;
    interrupted.eval.checkpoint = &saveHooks;
    CoccoResult partial = CoccoFramework(g, accel).explore(interrupted);
    EXPECT_EQ(partial.stop, StopReason::Cancelled);
    ASSERT_TRUE(haveSaved);

    // Resume at a different thread budget: same final race.
    CheckpointHooks resumeHooks;
    resumeHooks.resume = &saved;
    SearchSpec resumedSpec = spec;
    resumedSpec.eval.threads = 2;
    resumedSpec.eval.checkpoint = &resumeHooks;
    CoccoResult resumed = CoccoFramework(g, accel).explore(resumedSpec);
    EXPECT_EQ(resumed.stop, StopReason::BudgetExhausted);
    expectSameRace(straight, resumed);
}

TEST(Portfolio, CorruptRacerSectionIsRejected)
{
    SearchCheckpoint c;
    c.algo = "portfolio";
    c.fence = 0x1234;
    RaceSection race;
    race.racers.resize(1);
    race.racers[0].snapshot.algo = "ga"; // a fresh-start marker
    c.section = race;

    std::string path = "portfolio_test_corrupt.tmp";
    ASSERT_TRUE(saveCheckpoint(c, path));
    // Flip the racer-state line to an out-of-range value.
    std::string text;
    {
        std::FILE *f = std::fopen(path.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    size_t pos = text.find("q 0");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, "q 9");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    SearchCheckpoint loaded;
    std::string err;
    EXPECT_FALSE(loadCheckpoint(path, &loaded, &err));
    EXPECT_NE(err.find("racer state"), std::string::npos) << err;
    std::remove(path.c_str());
}

// --- Serve path ---------------------------------------------------------

TEST(Portfolio, ServeCancelsARunningRaceAndReportsRacers)
{
    JobManagerOptions opts;
    opts.workers = 1;
    opts.threadBudget = 2;
    JobManager manager(opts);

    // A budget far too large to finish; cancellation must end the
    // whole race, not just the leading racer.
    SearchSpec spec;
    std::string err;
    ASSERT_TRUE(parseRunSpecText(
        R"({"algo":"portfolio","model":"GoogleNet","samples":50000000,
            "seed":3,"threads":2,
            "portfolio":{"racers":["ga","sa"],"checkEvals":500}})",
        &spec, &err))
        << err;
    int64_t id = manager.submit(spec, "t", &err);
    ASSERT_GT(id, 0) << err;

    // Let it make some progress before pulling the plug.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (manager.status(id).progressSamples < 1000 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(manager.cancel(id));
    ASSERT_TRUE(manager.wait(id, 30.0));
    EXPECT_EQ(manager.status(id).state, JobState::Cancelled);

    // The terminal metrics document carries the portfolio block.
    std::string doc = manager.metricsJson(id);
    ASSERT_FALSE(doc.empty());
    JsonValue v;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
    const JsonValue *run = &v.find("runs")->array()[0];
    const JsonValue *pf = run->find("portfolio");
    ASSERT_NE(pf, nullptr);
    ASSERT_TRUE(pf->find("racers")->isArray());
    EXPECT_EQ(pf->find("racers")->array().size(), 2u);

    // Degenerate portfolio specs are shed at admission.
    SearchSpec bad = spec;
    bad.portfolio.racers = {"portfolio"};
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);
    EXPECT_NE(err.find("race itself"), std::string::npos) << err;
    bad.portfolio.racers = {"ga", "nope"};
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);
    bad.portfolio.racers = {"ga"};
    bad.portfolio.checkEvals = 0;
    EXPECT_EQ(manager.submit(bad, "t", &err), -1);
}

// --- Pareto mode end-to-end ---------------------------------------------

TEST(ParetoMode, ExploreProducesANonDominatedFrontier)
{
    // A registry model, not the tiny random DAG: real models carry a
    // genuine buffer/energy/latency trade-off (the random DAG's
    // frontier can collapse to one point).
    Graph g = buildModel("ResNet50");
    AcceleratorConfig accel;
    SearchSpec spec;
    spec.algo = "ga";
    spec.style = BufferStyle::Shared;
    spec.eval.sampleBudget = 600;
    spec.eval.seed = 5;
    spec.eval.cacheEnabled = false;
    spec.ga.population = 16;
    spec.paretoMode = true;
    spec.eval.coExplore = true;

    CoccoResult r = CoccoFramework(g, accel).explore(spec);
    ASSERT_GE(r.frontier.size(), 3u);
    EXPECT_GT(r.hypervolume, 0.0);
    // Mutually non-dominated and buffer-sorted.
    for (size_t i = 1; i < r.frontier.size(); ++i)
        EXPECT_LE(r.frontier[i - 1].bufferBytes, r.frontier[i].bufferBytes);
    for (size_t i = 0; i < r.frontier.size(); ++i)
        for (size_t j = 0; j < r.frontier.size(); ++j) {
            if (i == j)
                continue;
            bool le =
                r.frontier[i].bufferBytes <= r.frontier[j].bufferBytes &&
                r.frontier[i].energyPj <= r.frontier[j].energyPj &&
                r.frontier[i].latencyCycles <= r.frontier[j].latencyCycles;
            bool lt =
                r.frontier[i].bufferBytes < r.frontier[j].bufferBytes ||
                r.frontier[i].energyPj < r.frontier[j].energyPj ||
                r.frontier[i].latencyCycles < r.frontier[j].latencyCycles;
            EXPECT_FALSE(le && lt) << i << " dominates " << j;
        }
    // Pareto mode never changes the search itself.
    SearchSpec plain = spec;
    plain.paretoMode = false;
    CoccoResult p = CoccoFramework(g, accel).explore(plain);
    EXPECT_EQ(p.objective, r.objective);
    EXPECT_EQ(p.samples, r.samples);
}

TEST(ParetoMode, PortfolioMergesPerRacerArchives)
{
    Graph g = buildModel("ResNet50");
    AcceleratorConfig accel;
    SearchSpec spec = makeRaceSpec(800);
    spec.paretoMode = true;
    CoccoResult r = CoccoFramework(g, accel).explore(spec);
    ASSERT_EQ(r.racers.size(), 2u);
    EXPECT_GE(r.frontier.size(), 3u);
    EXPECT_GT(r.hypervolume, 0.0);
}

// --- Spec JSON ----------------------------------------------------------

TEST(PortfolioSpec, JsonRoundTrip)
{
    const char *doc = R"({
        "workload": { "model": "ResNet50" },
        "algo": "portfolio",
        "mode": "pareto",
        "samples": 500,
        "portfolio": { "racers": ["sa", "ga"],
                       "deterministicRace": true,
                       "checkEvals": 250, "warmupEvals": 300 }
    })";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
    SearchSpec spec;
    ASSERT_TRUE(searchSpecFromJson(v, &spec, &err)) << err;
    EXPECT_EQ(spec.algo, "portfolio");
    EXPECT_TRUE(spec.paretoMode);
    EXPECT_TRUE(spec.eval.coExplore);
    ASSERT_EQ(spec.portfolio.racers.size(), 2u);
    EXPECT_EQ(spec.portfolio.racers[0], "sa");
    EXPECT_EQ(spec.portfolio.racers[1], "ga");
    EXPECT_TRUE(spec.portfolio.deterministicRace);
    EXPECT_EQ(spec.portfolio.checkEvals, 250);
    EXPECT_EQ(spec.portfolio.warmupEvals, 300);
}

TEST(PortfolioSpec, BadPortfolioBlocksAreErrors)
{
    auto rejects = [](const char *doc) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(doc, &v, &err)) << err;
        SearchSpec spec;
        EXPECT_FALSE(searchSpecFromJson(v, &spec, &err)) << doc;
        EXPECT_FALSE(err.empty());
    };
    rejects(R"({"portfolio": {"racers": []}})");
    rejects(R"({"portfolio": {"racers": [3]}})");
    rejects(R"({"portfolio": {"frobnicate": 1}})");
    rejects(R"({"mode": "paretto"})");
}

} // namespace
