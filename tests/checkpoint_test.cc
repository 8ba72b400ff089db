/**
 * @file
 * Tests for search checkpoint/resume (search/checkpoint.h + the
 * core/serialize persistence): Rng state round trips, fence
 * sensitivity, and the headline contract — a run cancelled mid-flight
 * and resumed from its checkpoint finishes bit-identical to the
 * uninterrupted run, for every registered algorithm, at threads > 1,
 * and even when the resume uses a different thread count. Also the
 * v4 file: one section per snapshot, a loader that refuses every
 * mutant of a real file, and checkpointError's reasons.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cocco.h"
#include "core/serialize.h"
#include "models/random_dag.h"
#include "search/checkpoint.h"
#include "util/random.h"

using namespace cocco;

namespace {

Graph
mediumGraph()
{
    RandomDagOptions o;
    o.convNodes = 24;
    return buildRandomDag(21, o);
}

/** The standard spec of these tests: co-explore, 2 threads, budgets
 *  small enough for the sanitizer lane. */
SearchSpec
makeSpec(const std::string &algo, int64_t budget)
{
    SearchSpec spec;
    spec.algo = algo;
    spec.style = BufferStyle::Shared;
    spec.eval.sampleBudget = budget;
    spec.eval.seed = 9;
    spec.eval.threads = 2;
    spec.eval.cacheEnabled = false;
    spec.ga.population = 20;
    spec.twoStep.population = 10;
    spec.twoStep.samplesPerCandidate = 100;
    return spec;
}

/** Observer that requests cancellation once @p after samples have
 *  been folded (at the next batch boundary). */
class CancelAfter : public SearchObserver
{
  public:
    explicit CancelAfter(int64_t after) : after_(after) {}

    void
    onBatchDone(int64_t samples, double) override
    {
        seen_.store(samples, std::memory_order_relaxed);
    }

    bool
    cancelled() override
    {
        return seen_.load(std::memory_order_relaxed) >= after_;
    }

  private:
    int64_t after_;
    std::atomic<int64_t> seen_{0}; ///< a portfolio reports from racers
};

/** Run @p spec over @p g, cancelled at half its budget, and return
 *  the snapshot its early stop saved. */
SearchCheckpoint
savedAtHalf(const Graph &g, SearchSpec spec)
{
    SearchCheckpoint saved;
    CancelAfter cancel(spec.eval.sampleBudget / 2);
    CheckpointHooks hooks;
    hooks.save = [&](const SearchCheckpoint &c) { saved = c; };
    spec.eval.observer = &cancel;
    spec.eval.checkpoint = &hooks;
    CoccoFramework(g, AcceleratorConfig()).explore(spec);
    EXPECT_EQ(saved.algo, spec.algo);
    return saved;
}

/** A race snapshot of @p race's line-up, each racer active at its
 *  solo run's half-budget snapshot (the same fence a racer computes):
 *  unlike a real race's, every racer is sure to hold its section. */
SearchCheckpoint
assembledRace(const Graph &g, const SearchSpec &race)
{
    SearchCheckpoint c;
    c.algo = race.algo;
    CoccoFramework fw(g, AcceleratorConfig());
    c.fence = checkpointFence(fw.model(), searchSpace(race), race);
    RaceSection entries;
    for (const std::string &algo : race.portfolio.racers) {
        SearchSpec solo = race;
        solo.algo = algo;
        entries.racers.push_back({});
        entries.racers.back().snapshot = savedAtHalf(g, solo);
    }
    c.section = entries;
    return c;
}

/** checkpointError of @p c against the run of @p spec over @p g. */
std::string
errorFor(SearchCheckpoint &c, const Graph &g, const SearchSpec &spec)
{
    CoccoFramework fw(g, AcceleratorConfig());
    return checkpointError(c, fw.model(), searchSpace(spec), spec);
}

/** Everything a run reports, compared exactly. */
void
expectSameRun(const CoccoResult &a, const CoccoResult &b)
{
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.buffer.style, b.buffer.style);
    EXPECT_EQ(a.buffer.totalBytes(), b.buffer.totalBytes());
    EXPECT_EQ(a.partition.block, b.partition.block);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost) << "i=" << i;
    }
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].sample, b.points[i].sample);
        EXPECT_EQ(a.points[i].metric, b.points[i].metric) << "i=" << i;
        EXPECT_EQ(a.points[i].bufferBytes, b.points[i].bufferBytes);
    }
}

/** Run @p spec straight, then cancelled-at-half + resumed, and
 *  require the resumed run to match the straight one exactly.
 *  @p resumeThreads exercises resume under a different thread count
 *  (results must not depend on it). */
void
checkResumeIdentity(const SearchSpec &spec, int resumeThreads)
{
    Graph g = mediumGraph();
    AcceleratorConfig accel;

    const std::string &algo = spec.algo;
    const int64_t budget = spec.eval.sampleBudget;
    CoccoResult straight = CoccoFramework(g, accel).explore(spec);
    EXPECT_EQ(straight.stop, StopReason::BudgetExhausted);
    EXPECT_EQ(straight.points.size(),
              spec.ga.recordPoints ? static_cast<size_t>(budget) : 0u);

    // Cancel mid-run; saveOnStop persists the state at the boundary.
    SearchCheckpoint saved;
    bool haveSaved = false;
    CancelAfter cancel(budget / 2);
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
    ASSERT_TRUE(haveSaved) << algo;
    EXPECT_EQ(saved.algo, algo);
    EXPECT_LT(saved.samples, budget) << algo;

    // Resume to the end and compare against the uninterrupted run.
    CheckpointHooks resumeHooks;
    resumeHooks.resume = &saved;
    SearchSpec resumedSpec = spec;
    resumedSpec.eval.threads = resumeThreads;
    resumedSpec.eval.checkpoint = &resumeHooks;
    CoccoResult resumed = CoccoFramework(g, accel).explore(resumedSpec);
    EXPECT_EQ(resumed.stop, StopReason::BudgetExhausted);
    expectSameRun(straight, resumed);
}

TEST(Checkpoint, RngStateRoundTrip)
{
    Rng a(42);
    for (int i = 0; i < 17; ++i)
        a.next();
    std::array<uint64_t, 4> mid = a.state();
    std::vector<uint64_t> tail;
    for (int i = 0; i < 8; ++i)
        tail.push_back(a.next());

    Rng b(7); // different seed: state() must fully define the stream
    b.setState(mid);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(b.next(), tail[static_cast<size_t>(i)]) << "i=" << i;
}

TEST(Checkpoint, FenceCoversRunIdentity)
{
    Graph g = mediumGraph();
    AcceleratorConfig accel;
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    SearchSpec spec = makeSpec("ga", 400);
    uint64_t base = gaCheckpointFence(model, space, gaOptions(spec));
    EXPECT_EQ(base, gaCheckpointFence(model, space, gaOptions(spec)));

    SearchSpec other = spec;
    other.eval.seed = 10;
    EXPECT_NE(base, gaCheckpointFence(model, space, gaOptions(other)));
    other = spec;
    other.eval.sampleBudget = 500;
    EXPECT_NE(base, gaCheckpointFence(model, space, gaOptions(other)));
    other = spec;
    other.ga.population = 21;
    EXPECT_NE(base, gaCheckpointFence(model, space, gaOptions(other)));

    // Threads and pruning are deliberately outside the fence: both
    // are result-neutral, so a resume may change them.
    other = spec;
    other.eval.threads = 7;
    other.eval.pruning = false;
    EXPECT_EQ(base, gaCheckpointFence(model, space, gaOptions(other)));

    // The two-step fences separate the two sweep styles.
    SearchSpec ts = makeSpec("ts-random", 300);
    EXPECT_NE(twoStepCheckpointFence(model, space, twoStepOptions(ts),
                                     "ts-random"),
              twoStepCheckpointFence(model, space, twoStepOptions(ts),
                                     "ts-grid"));

    // checkpointFence is the driver's fence of the spec's algo.
    EXPECT_EQ(checkpointFence(model, space, spec), base);
    EXPECT_EQ(checkpointFence(model, space, ts),
              twoStepCheckpointFence(model, space, twoStepOptions(ts),
                                     "ts-random"));
    SearchSpec greedy = makeSpec("greedy-place", 300);
    EXPECT_EQ(checkpointFence(model, space, greedy), 0u);
}

TEST(Checkpoint, GaResumeBitIdentical)
{
    checkResumeIdentity(makeSpec("ga", 400), 2);
}

TEST(Checkpoint, GaResumeAcrossThreadCounts)
{
    checkResumeIdentity(makeSpec("ga", 400), 1);
}

TEST(Checkpoint, SaResumeBitIdentical)
{
    checkResumeIdentity(makeSpec("sa", 300), 2);
}

TEST(Checkpoint, TsRandomResumeBitIdentical)
{
    checkResumeIdentity(makeSpec("ts-random", 300), 2);
}

TEST(Checkpoint, TsGridResumeBitIdentical)
{
    checkResumeIdentity(makeSpec("ts-grid", 300), 2);
}

TEST(Checkpoint, GaResumeKeepsRecordedPoints)
{
    // The Figure 13 points ride in the checkpoint (its P section): a
    // resumed run keeps the recorded prefix and appends the rest.
    SearchSpec spec = makeSpec("ga", 400);
    spec.ga.recordPoints = true;
    checkResumeIdentity(spec, 2);
}

/** Every driver serves a checkpoint request at its own boundary: a
 *  generation (GA), a sweep (SA), a candidate (two-step). */
class CheckpointRequest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CheckpointRequest, RequestFlagSavesWithoutStopping)
{
    Graph g = mediumGraph();
    AcceleratorConfig accel;
    const std::string algo = GetParam();
    SearchSpec spec = makeSpec(algo, algo == "ga" ? 400 : 300);
    CoccoResult straight = CoccoFramework(g, accel).explore(spec);

    SearchCheckpoint saved;
    bool haveSaved = false;
    CheckpointHooks hooks;
    hooks.save = [&](const SearchCheckpoint &c) {
        saved = c;
        haveSaved = true;
    };
    hooks.request.store(true); // one mid-run snapshot, please
    hooks.saveOnStop = false;
    SearchSpec monitored = spec;
    monitored.eval.checkpoint = &hooks;
    CoccoResult full = CoccoFramework(g, accel).explore(monitored);

    // The snapshot must not perturb the run...
    expectSameRun(straight, full);
    ASSERT_TRUE(haveSaved);
    EXPECT_EQ(saved.algo, algo);
    EXPECT_LT(saved.samples, spec.eval.sampleBudget);

    // ...and resuming from it must land on the same final result.
    CheckpointHooks resumeHooks;
    resumeHooks.resume = &saved;
    SearchSpec resumedSpec = spec;
    resumedSpec.eval.checkpoint = &resumeHooks;
    CoccoResult resumed = CoccoFramework(g, accel).explore(resumedSpec);
    expectSameRun(straight, resumed);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, CheckpointRequest,
    ::testing::Values("ga", "sa", "ts-random", "ts-grid"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Checkpoint, FileRoundTripResumes)
{
    // One search per checkpoint section: GA fills the population (G),
    // SA its chain state (V), two-step its sweep position (W).
    const std::pair<const char *, int64_t> runs[] = {
        {"ga", 400}, {"sa", 300}, {"ts-random", 300}};
    for (const auto &[algo, budget] : runs) {
        SCOPED_TRACE(algo);
        Graph g = mediumGraph();
        AcceleratorConfig accel;
        SearchSpec spec = makeSpec(algo, budget);
        CoccoResult straight = CoccoFramework(g, accel).explore(spec);
        const SearchCheckpoint saved = savedAtHalf(g, spec);
        ASSERT_EQ(saved.algo, algo);

        std::string path = "checkpoint_test_roundtrip.tmp";
        ASSERT_TRUE(saveCheckpoint(saved, path));

        SearchCheckpoint loaded;
        std::string err;
        ASSERT_TRUE(loadCheckpoint(path, &loaded, &err)) << err;
        std::remove(path.c_str());
        EXPECT_EQ(loaded.algo, saved.algo);
        EXPECT_EQ(loaded.fence, saved.fence);
        EXPECT_EQ(loaded.samples, saved.samples);
        EXPECT_EQ(loaded.bestCost, saved.bestCost); // hexfloat: bit-exact
        EXPECT_EQ(loaded.rng, saved.rng);
        EXPECT_EQ(loaded.streamCounter, saved.streamCounter);
        ASSERT_EQ(loaded.section.index(), saved.section.index());
        if (const auto *ga = std::get_if<GaSection>(&saved.section)) {
            const GaSection &back = std::get<GaSection>(loaded.section);
            ASSERT_EQ(back.population.size(), ga->population.size());
            for (size_t i = 0; i < ga->population.size(); ++i) {
                EXPECT_EQ(back.population[i].cost, ga->population[i].cost);
                EXPECT_EQ(back.population[i].genome.part.block,
                          ga->population[i].genome.part.block);
            }
        }
        if (const auto *sa = std::get_if<SaSection>(&saved.section)) {
            const SaSection &back = std::get<SaSection>(loaded.section);
            EXPECT_EQ(back.cur.part.block, sa->cur.part.block);
            EXPECT_EQ(back.curCost, sa->curCost);
            EXPECT_EQ(back.t0, sa->t0);
        }
        if (const auto *ts = std::get_if<SweepSection>(&saved.section)) {
            const SweepSection &back = std::get<SweepSection>(loaded.section);
            EXPECT_EQ(back.candidate, ts->candidate);
            EXPECT_EQ(back.subSeed, ts->subSeed);
            EXPECT_EQ(back.bestBuffer, ts->bestBuffer);
            EXPECT_EQ(back.boundRejections, ts->boundRejections);
            EXPECT_EQ(back.delta.reports, ts->delta.reports);
            EXPECT_EQ(back.delta.rewrites, ts->delta.rewrites);
        }

        CheckpointHooks resumeHooks;
        resumeHooks.resume = &loaded;
        SearchSpec resumedSpec = spec;
        resumedSpec.eval.checkpoint = &resumeHooks;
        CoccoResult resumed =
            CoccoFramework(g, accel).explore(resumedSpec);
        expectSameRun(straight, resumed);
    }
}

TEST(Checkpoint, LoaderRejectsCorruptFiles)
{
    SearchCheckpoint out;
    std::string err;
    EXPECT_FALSE(loadCheckpoint("checkpoint_test_missing.tmp", &out,
                                &err));
    EXPECT_FALSE(err.empty());

    // Wrong magic.
    std::string path = "checkpoint_test_corrupt.tmp";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "NOT-A-CHECKPOINT 1\n");
    std::fclose(f);
    err.clear();
    EXPECT_FALSE(loadCheckpoint(path, &out, &err));
    EXPECT_FALSE(err.empty());

    // A truncated real checkpoint must be rejected outright (a
    // partial resume would silently fork the run).
    Graph g = mediumGraph();
    AcceleratorConfig accel;
    SearchCheckpoint saved;
    bool haveSaved = false;
    CancelAfter cancel(100);
    CheckpointHooks hooks;
    hooks.save = [&](const SearchCheckpoint &c) {
        saved = c;
        haveSaved = true;
    };
    SearchSpec spec = makeSpec("ga", 400);
    spec.eval.observer = &cancel;
    spec.eval.checkpoint = &hooks;
    CoccoFramework(g, accel).explore(spec);
    ASSERT_TRUE(haveSaved);
    ASSERT_TRUE(saveCheckpoint(saved, path));

    std::FILE *in = std::fopen(path.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::fseek(in, 0, SEEK_END);
    long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    std::string text(static_cast<size_t>(size), '\0');
    ASSERT_EQ(std::fread(text.data(), 1, text.size(), in), text.size());
    std::fclose(in);

    std::FILE *outF = std::fopen(path.c_str(), "wb");
    ASSERT_NE(outF, nullptr);
    std::fwrite(text.data(), 1, text.size() / 2, outF);
    std::fclose(outF);
    err.clear();
    EXPECT_FALSE(loadCheckpoint(path, &out, &err));
    EXPECT_FALSE(err.empty());

    // A file from another format version is refused with the reason,
    // so a stale resume tells the user why it failed.
    const std::string header =
        "COCCO-CHECKPOINT " + std::to_string(SearchCheckpoint::kVersion);
    ASSERT_EQ(text.compare(0, header.size(), header), 0);
    const int stale = SearchCheckpoint::kVersion - 1;
    text.replace(0, header.size(),
                 "COCCO-CHECKPOINT " + std::to_string(stale));
    outF = std::fopen(path.c_str(), "wb");
    ASSERT_NE(outF, nullptr);
    std::fwrite(text.data(), 1, text.size(), outF);
    std::fclose(outF);
    err.clear();
    EXPECT_FALSE(loadCheckpoint(path, &out, &err));
    EXPECT_NE(err.find("unsupported checkpoint format version " +
                       std::to_string(stale) + " (this build reads " +
                       std::to_string(SearchCheckpoint::kVersion) + ")"),
              std::string::npos)
        << err;
    static_assert(SearchCheckpoint::kVersion == 4);
    EXPECT_EQ(err, path + ": unsupported checkpoint format version 3 "
                          "(this build reads 4)");
    std::remove(path.c_str());
}

TEST(Checkpoint, GenomeOfAnotherLengthIsRejected)
{
    // Real snapshots of every driver pass; cutting any one genome
    // (incumbent, a population entry, the SA state, a racer's) to 10
    // nodes names that genome, as resuming it would abort repair.
    Graph g = mediumGraph();
    auto spec = [](const std::string &algo, int64_t budget) {
        SearchSpec s = makeSpec(algo, budget);
        s.portfolio.racers = {"ga", "sa"};
        return s;
    };
    auto snapshot = [&](const std::string &algo, int64_t budget) {
        SearchCheckpoint saved = savedAtHalf(g, spec(algo, budget));
        EXPECT_EQ(errorFor(saved, g, spec(algo, budget)), "") << algo;
        return saved;
    };
    auto expectNamed = [&](SearchCheckpoint c, const SearchSpec &run,
                           const std::string &what) {
        EXPECT_EQ(errorFor(c, g, run),
                  what + " has 10 nodes, the model has " +
                      std::to_string(g.size()));
    };
    auto cut = [](Genome &genome) { genome.part.block.resize(10); };

    const SearchSpec gaRun = spec("ga", 400);
    SearchCheckpoint ga = snapshot("ga", 400);
    ASSERT_GT(std::get<GaSection>(ga.section).population.size(), 3u);
    RandomDagOptions o;
    o.convNodes = 25;
    const Graph other = buildRandomDag(21, o);
    ASSERT_NE(other.size(), g.size());
    EXPECT_NE(errorFor(ga, other, gaRun), "");
    SearchCheckpoint c = ga;
    cut(c.best);
    expectNamed(c, gaRun, "incumbent genome");
    c = ga;
    cut(std::get<GaSection>(c.section).population[3].genome);
    expectNamed(c, gaRun, "population genome 3");
    c = ga;
    c.best = Genome(); // no incumbent yet
    EXPECT_EQ(errorFor(c, g, gaRun), "");

    SearchCheckpoint sa = snapshot("sa", 300);
    c = sa;
    cut(std::get<SaSection>(c.section).cur);
    expectNamed(c, spec("sa", 300), "SA current genome");

    snapshot("ts-random", 300);
    snapshot("portfolio", 600);

    SearchCheckpoint race = assembledRace(g, spec("portfolio", 600));
    EXPECT_EQ(errorFor(race, g, spec("portfolio", 600)), "");
    RaceSection &racers = std::get<RaceSection>(race.section);
    cut(std::get<SaSection>(racers.racers[1].snapshot.section).cur);
    expectNamed(race, spec("portfolio", 600), "racer 1: SA current genome");
}

/** @p p with two block ids swapped: the first pair that keeps it
 *  valid (precedence holds), else ids 0 and 1. Never canonical. */
Partition
swappedIds(const Graph &g, const Partition &p)
{
    auto swap = [&](int x, int y) {
        Partition q = p;
        for (int &id : q.block)
            id = id == x ? y : id == y ? x : id;
        return q;
    };
    for (int x = 0; x < p.numBlocks; ++x)
        for (int y = x + 1; y < p.numBlocks; ++y)
            if (Partition q = swap(x, y); q.valid(g))
                return q;
    return swap(0, 1);
}

TEST(Checkpoint, NonCanonicalGenomeIsRejected)
{
    // A loaded checkpoint carries no canonical flags: the check proves
    // canonicity of the operators' inputs (population, SA state) once,
    // flags them, and refuses a genome that repair would renumber.
    Graph g = mediumGraph();
    auto unflag = [](Genome &genome) {
        genome.part.block = std::vector<int>(genome.part.block);
    };
    auto snapshot = [&](const std::string &algo, int64_t budget) {
        SearchCheckpoint saved = savedAtHalf(g, makeSpec(algo, budget));
        // As a file would hand them back: block vectors, no flags.
        unflag(saved.best);
        if (auto *sa = std::get_if<SaSection>(&saved.section))
            unflag(sa->cur);
        if (auto *ga = std::get_if<GaSection>(&saved.section))
            for (ScoredGenome &m : ga->population)
                unflag(m.genome);
        return saved;
    };
    auto population = [](SearchCheckpoint &c) -> std::vector<ScoredGenome> & {
        return std::get<GaSection>(c.section).population;
    };
    auto chain = [](SearchCheckpoint &c) -> Genome & {
        return std::get<SaSection>(c.section).cur;
    };

    const SearchSpec gaRun = makeSpec("ga", 400);
    SearchCheckpoint ga = snapshot("ga", 400);
    ASSERT_GT(population(ga).size(), 3u);
    SearchCheckpoint c = ga;
    population(c)[3].genome.part =
        swappedIds(g, population(ga)[3].genome.part);
    ASSERT_FALSE(population(c)[3].genome.part.isCanonical(g));
    EXPECT_EQ(errorFor(c, g, gaRun),
              "population genome 3 is not a canonical partition "
              "(structural repair would renumber or split it)");
    c = ga;
    for (const ScoredGenome &m : population(c))
        EXPECT_FALSE(m.genome.part.canonical());
    EXPECT_EQ(errorFor(c, g, gaRun), "");
    for (const ScoredGenome &m : population(c))
        EXPECT_TRUE(m.genome.part.canonical());

    const SearchSpec saRun = makeSpec("sa", 300);
    SearchCheckpoint sa = snapshot("sa", 300);
    c = sa;
    chain(c).part = swappedIds(g, chain(sa).part);
    ASSERT_FALSE(chain(c).part.isCanonical(g));
    EXPECT_EQ(errorFor(c, g, saRun),
              "SA current genome is not a canonical partition "
              "(structural repair would renumber or split it)");
    c = sa;
    EXPECT_EQ(errorFor(c, g, saRun), "");
    EXPECT_TRUE(chain(c).part.canonical());
}

TEST(Checkpoint, LoaderRejectsOutOfRangeBlockIds)
{
    // A block id outside [0, n) in a resumed genome would index block
    // lists out of bounds (negative) or size id-indexed scratch by it.
    std::string path = "checkpoint_test_block_ids.tmp";
    SearchCheckpoint c;
    c.algo = "ga";
    c.section = GaSection();
    c.best.part.block = {0, 1, 2};
    c.best.part.numBlocks = 3;
    SearchCheckpoint out;
    std::string err;
    ASSERT_TRUE(saveCheckpoint(c, path));
    ASSERT_TRUE(loadCheckpoint(path, &out, &err)) << err;
    EXPECT_EQ(out.best.part.block, c.best.part.block);

    for (int bad : {-1, 3, 1 << 30}) {
        c.best.part.block = {0, bad, 2};
        ASSERT_TRUE(saveCheckpoint(c, path));
        err.clear();
        EXPECT_FALSE(loadCheckpoint(path, &out, &err)) << bad;
        EXPECT_NE(err.find("corrupt incumbent genome"), std::string::npos)
            << err;
    }
    std::remove(path.c_str());
}

// --- The v4 file: one section per snapshot ------------------------------

/** The tag of every line of @p text. */
std::set<std::string>
lineTags(const std::string &text)
{
    std::set<std::string> tags;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        tags.insert(line.substr(0, line.find(' ')));
    return tags;
}

TEST(Checkpoint, EachFileHoldsOnlyItsDriversSection)
{
    Graph g = mediumGraph();
    auto sectionLines = [](const SearchCheckpoint &c) {
        const std::set<std::string> sectionTags = {"G", "g", "V",
                                                   "W", "Q", "q"};
        std::set<std::string> have;
        for (const std::string &tag : lineTags(encodeCheckpoint(c)))
            if (sectionTags.count(tag))
                have.insert(tag);
        return have;
    };
    const std::pair<const char *, std::set<std::string>> runs[] = {
        {"ga", {"G", "g"}}, {"sa", {"V"}}, {"ts-grid", {"W"}}};
    for (const auto &[algo, want] : runs) {
        SCOPED_TRACE(algo);
        EXPECT_EQ(sectionLines(savedAtHalf(g, makeSpec(algo, 400))), want);
    }

    // A race of ga and sa: its own lines, and its racers' sections. A
    // real race may stop a racer before its first boundary (no
    // section), so only the assembled one is sure to hold both.
    SearchSpec race = makeSpec("portfolio", 600);
    race.portfolio.racers = {"ga", "sa"};
    const std::set<std::string> want = {"Q", "q", "G", "g", "V"};
    std::set<std::string> have = sectionLines(savedAtHalf(g, race));
    EXPECT_TRUE(have.count("Q") && have.count("q"));
    EXPECT_TRUE(std::includes(want.begin(), want.end(), have.begin(),
                              have.end()));
    EXPECT_EQ(sectionLines(assembledRace(g, race)), want);
}

/** @p text split into lines, each with its '\n'. */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    for (size_t at = 0; at < text.size();) {
        const size_t end = text.find('\n', at);
        lines.push_back(text.substr(at, end + 1 - at));
        at = end + 1;
    }
    return lines;
}

std::string
joined(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line;
    return text;
}

/** Every mutant the loader must refuse, with what was done: each file
 *  cut at every line boundary and inside every line; each line
 *  deleted and doubled; each section tag swapped for another
 *  driver's; and text, a negative and an out-of-range value in each
 *  numeric field (a negative only where the field is an integer: a
 *  cost may legitimately be negative under a negative alpha). */
std::vector<std::pair<std::string, std::string>>
mutantsOf(const std::string &text)
{
    const std::vector<std::string> lines = linesOf(text);
    const std::vector<std::string> sectionTags = {"G", "V", "W", "Q"};
    std::vector<std::pair<std::string, std::string>> out;
    auto add = [&](std::vector<std::string> ls, const std::string &what) {
        out.emplace_back(joined(ls), what);
    };
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string at = "line " + std::to_string(i + 1);
        const std::vector<std::string> head(lines.begin(),
                                            lines.begin() + i);
        add(head, "cut before " + at);
        for (size_t cut : {size_t(1), lines[i].size() / 2,
                           lines[i].size() - 1}) {
            std::vector<std::string> ls = head;
            ls.push_back(lines[i].substr(0, cut));
            add(ls, "cut inside " + at + " at " + std::to_string(cut));
        }
        std::vector<std::string> ls = lines;
        ls.erase(ls.begin() + static_cast<long>(i));
        add(ls, "deleted " + at);
        ls = lines;
        ls.insert(ls.begin() + static_cast<long>(i), lines[i]);
        add(ls, "doubled " + at);

        std::vector<std::string> fields;
        std::istringstream words(lines[i]);
        for (std::string w; words >> w;)
            fields.push_back(w);
        for (const std::string &tag : sectionTags) {
            if (fields[0] == tag ||
                std::find(sectionTags.begin(), sectionTags.end(),
                          fields[0]) == sectionTags.end())
                continue;
            ls = lines;
            ls[i] = tag + lines[i].substr(fields[0].size());
            add(ls, at + ": tag " + fields[0] + " -> " + tag);
        }
        // Field 1 of an A line is the algo, a word.
        for (size_t f = fields[0] == "A" ? 2 : 1; f < fields.size(); ++f) {
            const bool real = fields[f].rfind("0x", 0) == 0 ||
                              fields[f].rfind("-0x", 0) == 0;
            std::vector<std::string> values = {"x", "99999999999999999999"};
            if (real)
                values[1] = "0x1p+99999";
            else
                values.push_back("-1");
            for (const std::string &v : values) {
                std::vector<std::string> fs = fields;
                fs[f] = v;
                std::string line = fs[0];
                for (size_t k = 1; k < fs.size(); ++k)
                    line += " " + fs[k];
                ls = lines;
                ls[i] = line + "\n";
                add(ls, at + ": field " + std::to_string(f) + " = " + v);
            }
        }
    }
    return out;
}

TEST(Checkpoint, LoaderRefusesEveryMutant)
{
    // Small real runs keep the mutant count down: GA, SA and ts-grid
    // snapshots, and a race of the three with an active, a culled and
    // a finished racer.
    Graph g = mediumGraph();
    SearchSpec spec = makeSpec("ga", 48);
    spec.ga.population = 6;
    SearchCheckpoint ga = savedAtHalf(g, spec);
    spec = makeSpec("sa", 40);
    SearchCheckpoint sa = savedAtHalf(g, spec);
    spec = makeSpec("ts-grid", 60);
    spec.twoStep.population = 4;
    spec.twoStep.samplesPerCandidate = 20;
    SearchCheckpoint ts = savedAtHalf(g, spec);
    ASSERT_TRUE(std::holds_alternative<GaSection>(ga.section));
    ASSERT_TRUE(std::holds_alternative<SaSection>(sa.section));
    ASSERT_TRUE(std::holds_alternative<SweepSection>(ts.section));

    SearchCheckpoint race;
    race.algo = "portfolio";
    race.fence = 0x5eed;
    race.samples = ga.samples + sa.samples + ts.samples;
    race.bestCost = ga.bestCost;
    race.best = ga.best;
    RaceSection entries;
    RaceEntry active;
    active.snapshot = ga;
    RaceEntry culled;
    culled.state = RaceEntry::kCulled;
    culled.snapshot = sa;
    culled.snapshot.section = std::monostate();
    culled.bestBuffer = sa.best.buffer(DseSpace::paperSpace(spec.style));
    RaceEntry finished;
    finished.state = RaceEntry::kFinished;
    finished.snapshot = ts;
    finished.snapshot.section = std::monostate();
    finished.bestBuffer = std::get<SweepSection>(ts.section).bestBuffer;
    entries.racers = {active, culled, finished};
    race.section = entries;

    size_t mutants = 0;
    std::vector<std::string> accepted;
    for (const SearchCheckpoint *c : {&ga, &sa, &ts, &race}) {
        SCOPED_TRACE(c->algo);
        const std::string text = encodeCheckpoint(*c);
        SearchCheckpoint back;
        ASSERT_EQ(decodeCheckpoint(text, &back), "");
        EXPECT_EQ(encodeCheckpoint(back), text); // round trip
        for (const auto &[mutant, what] : mutantsOf(text)) {
            ++mutants;
            SearchCheckpoint out;
            out.algo = "untouched";
            out.samples = 7;
            const std::string err = decodeCheckpoint(mutant, &out);
            if (err.empty() || out.algo != "untouched" || out.samples != 7)
                accepted.push_back(c->algo + ": " + what);
        }
    }
    EXPECT_GT(mutants, 1000u);
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " mutants accepted, first: "
        << accepted.front();

    // The file path refuses likewise, with the path, and leaves *out.
    const std::string path = "checkpoint_test_mutant.tmp";
    ASSERT_TRUE(saveCheckpoint(race, path));
    SearchCheckpoint loaded;
    std::string err;
    ASSERT_TRUE(loadCheckpoint(path, &loaded, &err)) << err;
    const std::vector<std::string> lines = linesOf(encodeCheckpoint(race));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string cut = joined({lines.begin(), lines.end() - 1});
    std::fwrite(cut.data(), 1, cut.size(), f);
    std::fclose(f);
    SearchCheckpoint out;
    out.algo = "untouched";
    EXPECT_FALSE(loadCheckpoint(path, &out, &err));
    EXPECT_EQ(err.rfind(path + ": truncated checkpoint file", 0), 0u)
        << err;
    EXPECT_EQ(out.algo, "untouched");
    std::remove(path.c_str());
}

TEST(Checkpoint, EveryDriversSnapshotFitsItsRun)
{
    // checkpointFence is the fence each driver saves, partition-only
    // too: a frozen two-step space sweeps its one buffer with the
    // whole budget, not its per-candidate slice.
    Graph g = mediumGraph();
    for (const char *algo : {"ga", "sa", "ts-random", "ts-grid"})
        for (bool coExplore : {true, false}) {
            SCOPED_TRACE(std::string(algo) + (coExplore ? "" : " frozen"));
            SearchSpec spec = makeSpec(algo, 400);
            spec.eval.coExplore = coExplore;
            SearchCheckpoint c = savedAtHalf(g, spec);
            EXPECT_EQ(errorFor(c, g, spec), "");
        }
}

TEST(Checkpoint, ErrorNamesWhatDiffers)
{
    Graph g = mediumGraph();
    const SearchSpec gaRun = makeSpec("ga", 400);
    const SearchCheckpoint ga = savedAtHalf(g, gaRun);
    SearchCheckpoint c = ga;
    EXPECT_EQ(errorFor(c, g, gaRun), "");

    SearchSpec other = gaRun;
    other.algo = "sa";
    EXPECT_EQ(errorFor(c, g, other), "saved by \"ga\", this run is \"sa\"");
    const std::string fence =
        "saved by another \"ga\" run (fence mismatch: the model, design "
        "space, seed, budget, objective or ga parameters differ)";
    other = gaRun;
    other.eval.seed = 10;
    EXPECT_EQ(errorFor(c, g, other), fence);
    other = gaRun;
    other.ga.population = 21; // fenced: a GA parameter
    EXPECT_EQ(errorFor(c, g, other), fence);

    std::get<GaSection>(c.section).population.pop_back();
    EXPECT_EQ(errorFor(c, g, gaRun),
              "the GA population holds 19 genomes, this run's holds 20");
    c = ga;
    c.section = SweepSection();
    EXPECT_EQ(errorFor(c, g, gaRun),
              "the \"ga\" checkpoint carries the sweep section, not the "
              "ga one");
    c.section = std::monostate();
    EXPECT_EQ(errorFor(c, g, gaRun), "the \"ga\" checkpoint has no ga "
                                     "section");

    SearchSpec raceRun = makeSpec("portfolio", 600);
    raceRun.portfolio.racers = {"ga", "sa"};
    c = savedAtHalf(g, raceRun); // a real race fits its own run
    EXPECT_EQ(errorFor(c, g, raceRun), "");
    const SearchCheckpoint race = assembledRace(g, raceRun);
    auto entries = [](SearchCheckpoint &r) -> std::vector<RaceEntry> & {
        return std::get<RaceSection>(r.section).racers;
    };
    c = race;
    EXPECT_EQ(errorFor(c, g, raceRun), "");
    entries(c)[1].snapshot.algo = "ts-grid";
    EXPECT_EQ(errorFor(c, g, raceRun),
              "racer 1 is \"ts-grid\", this run's racer 1 is \"sa\"");
    c = race;
    entries(c)[0].snapshot.section = SaSection();
    EXPECT_EQ(errorFor(c, g, raceRun),
              "racer 0: the \"ga\" checkpoint carries the sa section, not "
              "the ga one");
    c = race;
    entries(c)[0].snapshot.fence ^= 1;
    EXPECT_EQ(errorFor(c, g, raceRun),
              "racer 0: saved by another \"ga\" run (fence mismatch: the "
              "model, design space, seed, budget, objective or ga "
              "parameters differ)");
    c = race;
    entries(c).pop_back();
    EXPECT_EQ(errorFor(c, g, raceRun),
              "the race holds 1 racers, this run races 2");
    c = race;
    entries(c)[1].state = 7;
    EXPECT_EQ(errorFor(c, g, raceRun),
              "racer 1 has state 7 (not active, culled or finished)");
}

} // namespace
