/**
 * @file
 * Tests for bound-based pruning: the roofline bounds must be
 * admissible (never above the exact cost) on randomized subgraphs
 * across every platform preset and under a heterogeneous deployment;
 * pruned and unpruned searches must return bit-identical results for
 * all four registered algorithms, with and without the evaluation
 * cache; incumbent screening (EvalEngine::evaluateBounded) must track
 * the same incumbent as exhaustive evaluation; and the pruning
 * counters must flow through the cache-stats delta and sum and the
 * JSON metrics document.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cocco.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "models/random_dag.h"
#include "partition/repair.h"
#include "search/operators.h"
#include "sim/deployment.h"
#include "sim/platform.h"

using namespace cocco;

namespace {

Graph
smallGraph()
{
    RandomDagOptions o;
    o.convNodes = 12;
    return buildRandomDag(17, o);
}

BufferConfig
sharedBuf(int64_t bytes)
{
    BufferConfig b;
    b.style = BufferStyle::Shared;
    b.sharedBytes = bytes;
    return b;
}

BufferConfig
separateBuf(int64_t act, int64_t weight)
{
    BufferConfig b;
    b.style = BufferStyle::Separate;
    b.actBytes = act;
    b.weightBytes = weight;
    return b;
}

/** Randomized structurally-valid partitions of @p g. */
std::vector<Partition>
randomPartitions(const Graph &g, int n, uint64_t seed)
{
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(seed);
    std::vector<Partition> out;
    for (int i = 0; i < n; ++i)
        out.push_back(
            repairStructure(g, randomGenome(g, space, rng).part));
    return out;
}

/** b must never exceed c on any field the objective reads. The tiny
 *  relative slack only absorbs floating-point reassociation — the
 *  bound itself must hold mathematically. */
void
expectAdmissible(const SubgraphBound &b, const SubgraphCost &c,
                 const std::string &what)
{
    if (!c.feasible)
        return; // infeasible blocks cost the penalty, far above bounds
    EXPECT_LE(b.emaBytes, c.emaBytes) << what;
    EXPECT_LE(b.energyPj, c.energyPj * (1.0 + 1e-9)) << what;
    EXPECT_LE(b.latencyCycles, c.latencyCycles * (1.0 + 1e-9)) << what;
}

bool
sameSearchResult(const SearchResult &a, const SearchResult &b)
{
    if (a.bestCost != b.bestCost || a.samples != b.samples ||
        a.trace.size() != b.trace.size())
        return false;
    for (size_t i = 0; i < a.trace.size(); ++i)
        if (a.trace[i].sample != b.trace[i].sample ||
            a.trace[i].bestCost != b.trace[i].bestCost)
            return false;
    return a.best.part.block == b.best.part.block;
}

SearchResult
runAlgo(const std::string &algo, const Graph &g,
        const AcceleratorConfig &accel, bool pruning, uint64_t seed,
        bool cache_enabled = true)
{
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    SearchSpec spec;
    spec.algo = algo;
    spec.eval.sampleBudget = 800;
    spec.eval.seed = seed;
    spec.eval.threads = 1;
    spec.eval.pruning = pruning;
    spec.eval.cacheEnabled = cache_enabled;
    spec.ga.population = 20;
    spec.twoStep.population = 10;
    spec.twoStep.samplesPerCandidate = 100;
    return SearcherRegistry::instance().make(algo, model, space, spec)
        ->run();
}

} // namespace

// --- Bound admissibility -------------------------------------------------

TEST(PruningBound, AdmissibleOnEveryPlatformPreset)
{
    Graph g = smallGraph();
    std::vector<Partition> parts = randomPartitions(g, 6, 5);
    std::vector<BufferConfig> bufs = {
        sharedBuf(512 * 1024), sharedBuf(4 * 1024 * 1024),
        separateBuf(1024 * 1024, 1152 * 1024),
        separateBuf(128 * 1024, 128 * 1024)};
    for (const std::string &name : PlatformRegistry::instance().keys()) {
        AcceleratorConfig accel;
        ASSERT_TRUE(PlatformRegistry::instance().find(name, &accel));
        CostModel model(g, accel);
        for (const BufferConfig &buf : bufs)
            for (const Partition &p : parts)
                for (const auto &blk : p.blocks())
                    expectAdmissible(model.subgraphBound(blk, buf),
                                     model.subgraphCost(blk, buf),
                                     "platform " + name);
    }
}

TEST(PruningBound, AdmissibleUnderHeterogeneousDeployment)
{
    Graph g = smallGraph();
    DeploymentSpec spec;
    spec.enabled = true;
    spec.preset = "big-little";
    DeploymentConfig dep;
    std::string err;
    ASSERT_TRUE(
        resolveDeployment(spec, platformPreset("simba"), &dep, &err))
        << err;
    DeploymentCostModel model(g, dep);
    std::vector<Partition> parts = randomPartitions(g, 6, 6);
    for (const BufferConfig &buf :
         {sharedBuf(1024 * 1024), sharedBuf(8 * 1024 * 1024)})
        for (const Partition &p : parts)
            for (const auto &blk : p.blocks())
                expectAdmissible(model.subgraphBound(blk, buf),
                                 model.subgraphCost(blk, buf),
                                 "big-little deployment");
}

TEST(PruningBound, PartitionLowerBoundSurvivesCapacityRepair)
{
    // The screening argument: the bound of a pre-repair partition must
    // hold for the cost of its repaired form, because repair only
    // splits blocks and a block's bound also bounds every split.
    Graph g = buildModel("GoogleNet");
    AcceleratorConfig accel = platformPreset("simba");
    CostModel model(g, accel);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(11);
    for (int i = 0; i < 20; ++i) {
        Genome x = randomGenome(g, space, rng);
        BufferConfig buf = x.buffer(space);
        SubgraphBound lb = model.partitionLowerBound(x.part, buf);
        Partition repaired =
            repairToCapacity(g, std::move(x.part), model, buf);
        GraphCost gc = model.partitionCost(repaired, buf);
        if (!gc.feasible)
            continue; // cost is the penalty, far above any bound
        EXPECT_LE(lb.metricValue(Metric::Energy),
                  gc.energyPj * (1.0 + 1e-9));
        EXPECT_LE(lb.metricValue(Metric::EMA),
                  static_cast<double>(gc.emaBytes));
    }
}

// --- Search-level bit-identity ------------------------------------------

TEST(PruningSearch, BitIdenticalAcrossAllAlgorithms)
{
    Graph g = smallGraph();
    AcceleratorConfig accel = platformPreset("simba");
    for (const char *algo : {"ga", "sa", "ts-random", "ts-grid"}) {
        SearchResult off = runAlgo(algo, g, accel, false, 9);
        SearchResult on = runAlgo(algo, g, accel, true, 9);
        EXPECT_TRUE(sameSearchResult(off, on)) << "algo " << algo;
    }
}

TEST(PruningSearch, BitIdenticalWithoutCache)
{
    // Without a cache every block is costed in full; identity must
    // hold there too.
    Graph g = smallGraph();
    AcceleratorConfig accel = platformPreset("simba");
    for (const char *algo : {"ga", "ts-random"}) {
        SearchResult off = runAlgo(algo, g, accel, false, 13, false);
        SearchResult on = runAlgo(algo, g, accel, true, 13, false);
        EXPECT_TRUE(sameSearchResult(off, on)) << "algo " << algo;
    }
}

TEST(PruningSearch, TwoStepBoundRejectionsFire)
{
    // The two-step driver must actually skip hopeless capacity
    // candidates (not just stay correct with the skip compiled in),
    // and the skips must be visible in the counters.
    Graph g = smallGraph();
    AcceleratorConfig accel = platformPreset("simba");
    SearchResult on = runAlgo("ts-random", g, accel, true, 9);
    SearchResult off = runAlgo("ts-random", g, accel, false, 9);
    EXPECT_GT(on.cacheStats.boundRejections, 0u);
    EXPECT_GT(on.cacheStats.boundSkippedSamples, 0u);
    EXPECT_EQ(off.cacheStats.boundRejections, 0u);
    EXPECT_EQ(off.cacheStats.boundSkippedSamples, 0u);
}

// --- Incumbent screening -------------------------------------------------

TEST(PruningScreening, BoundedEvaluationTracksTheSameIncumbent)
{
    Graph g = smallGraph();
    AcceleratorConfig accel = platformPreset("simba");
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(31);
    std::vector<Genome> stream;
    for (int i = 0; i < 300; ++i)
        stream.push_back(randomGenome(g, space, rng));

    EvalOptions opts;
    opts.cacheEnabled = false;
    opts.threads = 1;

    // Exhaustive best tracking.
    CostModel model_off(g, accel);
    EvalOptions off_opts = opts;
    off_opts.pruning = false;
    EvalEngine off_engine(model_off, space, off_opts);
    double best_off = kInfeasiblePenalty;
    for (const Genome &x : stream) {
        Genome t = x;
        best_off = std::min(best_off, off_engine.evaluate(t));
    }

    // Screened best tracking; keep each skipped genome with the
    // incumbent it was rejected against.
    CostModel model_on(g, accel);
    EvalOptions on_opts = opts;
    on_opts.pruning = true;
    EvalEngine on_engine(model_on, space, on_opts);
    double best_on = kInfeasiblePenalty;
    std::vector<std::pair<Genome, double>> skipped_genomes;
    for (const Genome &x : stream) {
        Genome t = x;
        bool skipped = false;
        double c = on_engine.evaluateBounded(t, best_on, &skipped);
        if (skipped)
            skipped_genomes.push_back({x, best_on});
        else
            best_on = std::min(best_on, c);
    }

    EXPECT_EQ(best_off, best_on);
    EXPECT_GT(on_engine.boundRejections(), 0u);
    EXPECT_EQ(on_engine.boundRejections(), skipped_genomes.size());

    // Every screened-out genome must truly cost more than the
    // incumbent it was rejected against (admissibility, end to end).
    size_t checked = 0;
    for (size_t i = 0; i < skipped_genomes.size() && checked < 10;
         i += std::max<size_t>(1, skipped_genomes.size() / 10), ++checked) {
        Genome t = skipped_genomes[i].first;
        double bound = on_engine.objectiveBound(t);
        double cost = off_engine.evaluate(t);
        EXPECT_LE(bound, cost);
        EXPECT_GT(cost, skipped_genomes[i].second);
    }
    EXPECT_GT(checked, 0u);
}

// --- Counter plumbing ----------------------------------------------------

TEST(PruningCounters, StatsDeltaCoversPruningFields)
{
    EvalCacheStats end, start;
    end.boundRejections = 10;
    end.boundSkippedSamples = 900;
    start.boundRejections = 4;
    start.boundSkippedSamples = 400;
    EvalCacheStats d = end - start;
    EXPECT_EQ(d.boundRejections, 6u);
    EXPECT_EQ(d.boundSkippedSamples, 500u);

    // a += b adds every counter; the sizes are snapshots and take b's.
    EvalCacheStats a, b;
    a.hits = 1;
    a.misses = 2;
    a.insertions = 3;
    a.evictions = 4;
    a.blockHits = 5;
    a.blockMisses = 6;
    a.blockInsertions = 7;
    a.blockEvictions = 8;
    a.boundRejections = 9;
    a.boundSkippedSamples = 10;
    a.entries = 500;
    a.blockEntries = 600;
    b.hits = 100;
    b.misses = 200;
    b.insertions = 300;
    b.evictions = 400;
    b.blockHits = 500;
    b.blockMisses = 600;
    b.blockInsertions = 700;
    b.blockEvictions = 800;
    b.boundRejections = 900;
    b.boundSkippedSamples = 1000;
    b.entries = 11;
    b.blockEntries = 12;
    a += b;
    EXPECT_EQ(a.hits, 101u);
    EXPECT_EQ(a.misses, 202u);
    EXPECT_EQ(a.insertions, 303u);
    EXPECT_EQ(a.evictions, 404u);
    EXPECT_EQ(a.blockHits, 505u);
    EXPECT_EQ(a.blockMisses, 606u);
    EXPECT_EQ(a.blockInsertions, 707u);
    EXPECT_EQ(a.blockEvictions, 808u);
    EXPECT_EQ(a.boundRejections, 909u);
    EXPECT_EQ(a.boundSkippedSamples, 1010u);
    EXPECT_EQ(a.entries, 11u);
    EXPECT_EQ(a.blockEntries, 12u);
}

TEST(PruningCounters, MetricsJsonCarriesPruningFields)
{
    RunMetrics m;
    m.name = "probe";
    m.cacheEnabled = true;
    m.cache.boundRejections = 3;
    m.cache.boundSkippedSamples = 120;
    std::string doc = metricsToJson("pruning_test", {m});
    EXPECT_NE(doc.find("\"bound_rejections\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"bound_skipped_samples\":120"), std::string::npos);
}
