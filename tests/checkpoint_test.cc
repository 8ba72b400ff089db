/**
 * @file
 * Tests for search checkpoint/resume (search/checkpoint.h + the
 * core/serialize persistence): Rng state round trips, fence
 * sensitivity, and the headline contract — a run cancelled mid-flight
 * and resumed from its checkpoint finishes bit-identical to the
 * uninterrupted run, for every registered algorithm, at threads > 1,
 * and even when the resume uses a different thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <utility>

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
}

/** Run @p algo straight, then cancelled-at-half + resumed, and
 *  require the resumed run to match the straight one exactly.
 *  @p resumeThreads exercises resume under a different thread count
 *  (results must not depend on it). */
void
checkResumeIdentity(const std::string &algo, int64_t budget,
                    int resumeThreads)
{
    Graph g = mediumGraph();
    AcceleratorConfig accel;

    SearchSpec spec = makeSpec(algo, budget);
    CoccoResult straight = CoccoFramework(g, accel).explore(spec);
    EXPECT_EQ(straight.stop, StopReason::BudgetExhausted);

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
}

TEST(Checkpoint, GaResumeBitIdentical)
{
    checkResumeIdentity("ga", 400, 2);
}

TEST(Checkpoint, GaResumeAcrossThreadCounts)
{
    checkResumeIdentity("ga", 400, 1);
}

TEST(Checkpoint, SaResumeBitIdentical)
{
    checkResumeIdentity("sa", 300, 2);
}

TEST(Checkpoint, TsRandomResumeBitIdentical)
{
    checkResumeIdentity("ts-random", 300, 2);
}

TEST(Checkpoint, TsGridResumeBitIdentical)
{
    checkResumeIdentity("ts-grid", 300, 2);
}

TEST(Checkpoint, RequestFlagSavesWithoutStopping)
{
    Graph g = mediumGraph();
    AcceleratorConfig accel;
    SearchSpec spec = makeSpec("ga", 400);
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
    EXPECT_LT(saved.samples, spec.eval.sampleBudget);

    // ...and resuming from it must land on the same final result.
    CheckpointHooks resumeHooks;
    resumeHooks.resume = &saved;
    SearchSpec resumedSpec = spec;
    resumedSpec.eval.checkpoint = &resumeHooks;
    CoccoResult resumed = CoccoFramework(g, accel).explore(resumedSpec);
    expectSameRun(straight, resumed);
}

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

        SearchCheckpoint saved;
        bool haveSaved = false;
        CancelAfter cancel(budget / 2);
        CheckpointHooks hooks;
        hooks.save = [&](const SearchCheckpoint &c) {
            saved = c;
            haveSaved = true;
        };
        SearchSpec interrupted = spec;
        interrupted.eval.observer = &cancel;
        interrupted.eval.checkpoint = &hooks;
        CoccoFramework(g, accel).explore(interrupted);
        ASSERT_TRUE(haveSaved);

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
        ASSERT_EQ(loaded.population.size(), saved.population.size());
        EXPECT_EQ(loaded.popCosts, saved.popCosts);
        EXPECT_EQ(loaded.hasSa, saved.hasSa);
        EXPECT_EQ(loaded.saCur.part.block, saved.saCur.part.block);
        EXPECT_EQ(loaded.saCurCost, saved.saCurCost);
        EXPECT_EQ(loaded.saT0, saved.saT0);
        EXPECT_EQ(loaded.hasTs, saved.hasTs);
        EXPECT_EQ(loaded.tsCandidate, saved.tsCandidate);
        EXPECT_EQ(loaded.tsSubSeed, saved.tsSubSeed);
        EXPECT_EQ(loaded.tsBestBuffer.totalBytes(),
                  saved.tsBestBuffer.totalBytes());
        EXPECT_EQ(loaded.tsBoundRejections, saved.tsBoundRejections);
        EXPECT_EQ(loaded.tsDelta.reports, saved.tsDelta.reports);
        EXPECT_EQ(loaded.tsDelta.rewrites, saved.tsDelta.rewrites);

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
    std::remove(path.c_str());
}

TEST(Checkpoint, GenomeOfAnotherLengthIsRejected)
{
    // Real snapshots of every driver pass; cutting any one genome
    // (incumbent, a population entry, the SA state, a racer's) to 10
    // nodes names that genome, as resuming it would abort repair.
    Graph g = mediumGraph();
    AcceleratorConfig accel;
    auto snapshot = [&](const std::string &algo, int64_t budget) {
        SearchCheckpoint saved;
        CancelAfter cancel(budget / 2);
        CheckpointHooks hooks;
        hooks.save = [&](const SearchCheckpoint &c) { saved = c; };
        SearchSpec spec = makeSpec(algo, budget);
        spec.portfolio.racers = {"ga", "sa"};
        spec.eval.observer = &cancel;
        spec.eval.checkpoint = &hooks;
        CoccoFramework(g, accel).explore(spec);
        EXPECT_EQ(saved.algo, algo);
        EXPECT_EQ(checkpointGenomeError(saved, g), "") << algo;
        return saved;
    };
    auto expectNamed = [&](SearchCheckpoint c, const char *what) {
        const std::string err = checkpointGenomeError(c, g);
        EXPECT_EQ(err, std::string(what) + " has 10 nodes, the model has " +
                           std::to_string(g.size()));
    };
    auto cut = [](Genome &genome) { genome.part.block.resize(10); };

    SearchCheckpoint ga = snapshot("ga", 400);
    ASSERT_GT(ga.population.size(), 3u);
    RandomDagOptions o;
    o.convNodes = 25;
    const Graph other = buildRandomDag(21, o);
    ASSERT_NE(other.size(), g.size());
    EXPECT_NE(checkpointGenomeError(ga, other), "");
    SearchCheckpoint c = ga;
    cut(c.best);
    expectNamed(c, "incumbent genome");
    c = ga;
    cut(c.population[3]);
    expectNamed(c, "population genome 3");
    c = ga;
    c.best = Genome(); // no incumbent yet
    EXPECT_EQ(checkpointGenomeError(c, g), "");

    SearchCheckpoint sa = snapshot("sa", 300);
    ASSERT_TRUE(sa.hasSa);
    c = sa;
    cut(c.saCur);
    expectNamed(c, "SA current genome");

    snapshot("ts-random", 300);

    SearchCheckpoint race = snapshot("portfolio", 600);
    ASSERT_EQ(race.racers.size(), 2u);
    c = race;
    c.racers[1] = sa; // a racer body with an SA section, whatever the race
    cut(c.racers[1].saCur);
    EXPECT_EQ(checkpointGenomeError(c, g),
              "racer 1: SA current genome has 10 nodes, the model has " +
                  std::to_string(g.size()));
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
    AcceleratorConfig accel;
    auto snapshot = [&](const std::string &algo, int64_t budget) {
        SearchCheckpoint saved;
        CancelAfter cancel(budget / 2);
        CheckpointHooks hooks;
        hooks.save = [&](const SearchCheckpoint &c) { saved = c; };
        SearchSpec spec = makeSpec(algo, budget);
        spec.eval.observer = &cancel;
        spec.eval.checkpoint = &hooks;
        CoccoFramework(g, accel).explore(spec);
        // As a file would hand them back: block vectors, no flags.
        for (Genome *genome : {&saved.best, &saved.saCur})
            genome->part.block = std::vector<int>(genome->part.block);
        for (Genome &genome : saved.population)
            genome.part.block = std::vector<int>(genome.part.block);
        return saved;
    };

    SearchCheckpoint ga = snapshot("ga", 400);
    ASSERT_GT(ga.population.size(), 3u);
    SearchCheckpoint c = ga;
    c.population[3].part = swappedIds(g, ga.population[3].part);
    ASSERT_FALSE(c.population[3].part.isCanonical(g));
    EXPECT_EQ(checkpointGenomeError(c, g),
              "population genome 3 is not a canonical partition "
              "(structural repair would renumber or split it)");
    c = ga;
    for (const Genome &genome : c.population)
        EXPECT_FALSE(genome.part.canonical());
    EXPECT_EQ(checkpointGenomeError(c, g), "");
    for (const Genome &genome : c.population)
        EXPECT_TRUE(genome.part.canonical());

    SearchCheckpoint sa = snapshot("sa", 300);
    ASSERT_TRUE(sa.hasSa);
    c = sa;
    c.saCur.part = swappedIds(g, sa.saCur.part);
    ASSERT_FALSE(c.saCur.part.isCanonical(g));
    EXPECT_EQ(checkpointGenomeError(c, g),
              "SA current genome is not a canonical partition "
              "(structural repair would renumber or split it)");
    c = sa;
    EXPECT_EQ(checkpointGenomeError(c, g), "");
    EXPECT_TRUE(c.saCur.part.canonical());
}

TEST(Checkpoint, LoaderRejectsOutOfRangeBlockIds)
{
    // A block id outside [0, n) in a resumed genome would index block
    // lists out of bounds (negative) or size id-indexed scratch by it.
    std::string path = "checkpoint_test_block_ids.tmp";
    SearchCheckpoint c;
    c.algo = "ga";
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

} // namespace
