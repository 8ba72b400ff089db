/**
 * @file
 * Tests for the evaluation-cache subsystem: the 64-bit content hash
 * combinators, hit/miss/eviction accounting and LRU order, the
 * engine's transparency contract (bit-identical results for cache on
 * vs. off, across thread counts, and on warm repeats), the on-disk
 * round trip, operator gene-delta reporting, and the JSON metrics
 * document.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "core/cocco.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "models/random_dag.h"
#include "search/eval_cache.h"
#include "search/operators.h"
#include "util/hash.h"

using namespace cocco;

namespace {

Graph
smallGraph()
{
    RandomDagOptions o;
    o.convNodes = 12;
    return buildRandomDag(11, o);
}

/** A bigger reconvergent DAG for the search-level contract tests —
 *  still fast enough for the sanitizer lane (GoogleNet-scale search
 *  coverage lives in the slow-labeled parallel_test). */
Graph
mediumGraph()
{
    RandomDagOptions o;
    o.convNodes = 24;
    return buildRandomDag(21, o);
}

GaOptions
fastGa(int64_t budget = 400)
{
    GaOptions o;
    o.population = 20;
    o.sampleBudget = budget;
    o.seed = 5;
    return o;
}

/** Exact equality of everything a search run reports. */
void
expectSameResult(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(a.bestCost, b.bestCost);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.best.part.block, b.best.part.block);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost) << "i=" << i;
    }
}

/** A canonical genome over @p g (singletons, mid indices). */
Genome
genomeOf(const Graph &g, int shift = 0)
{
    Genome gen;
    gen.part = Partition::singletons(g);
    gen.actIdx = 3 + shift;
    gen.weightIdx = 4;
    gen.sharedIdx = 5;
    return gen;
}

/** Temp-file path helper (removed by the caller). */
std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

// --- Hash combinators -------------------------------------------------------

TEST(Hash, DeterministicAndSpread)
{
    uint64_t a = hashFinalize(hashU64(kHashSeed, 1));
    uint64_t b = hashFinalize(hashU64(kHashSeed, 1));
    uint64_t c = hashFinalize(hashU64(kHashSeed, 2));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Hash, VectorLengthPrefixDisambiguates)
{
    // {1} + {} must differ from {} + {1} when chained.
    uint64_t a = hashIntVector(hashIntVector(kHashSeed, std::vector<int>{1}),
                               std::vector<int>{});
    uint64_t b = hashIntVector(hashIntVector(kHashSeed, std::vector<int>{}),
                               std::vector<int>{1});
    EXPECT_NE(hashFinalize(a), hashFinalize(b));
}

TEST(Hash, DoubleNormalizesZeroSign)
{
    EXPECT_EQ(hashDouble(kHashSeed, 0.0), hashDouble(kHashSeed, -0.0));
    EXPECT_NE(hashDouble(kHashSeed, 1.0), hashDouble(kHashSeed, 2.0));
}

TEST(Hash, GenomeSensitivity)
{
    Graph g = smallGraph();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Separate);
    Genome base = genomeOf(g);

    uint64_t h0 = hashFinalize(hashGenome(kHashSeed, base, space));
    EXPECT_EQ(h0, hashFinalize(hashGenome(kHashSeed, base, space)));

    Genome moved = base;
    moved.part.block[1] = 0; // join node 1 into block 0
    EXPECT_NE(h0, hashFinalize(hashGenome(kHashSeed, moved, space)));

    Genome hw = base;
    hw.actIdx += 1;
    EXPECT_NE(h0, hashFinalize(hashGenome(kHashSeed, hw, space)));

    // Dead genes: sharedIdx is not live in a Separate-style space.
    Genome dead = base;
    dead.sharedIdx += 7;
    EXPECT_EQ(h0, hashFinalize(hashGenome(kHashSeed, dead, space)));

    // In a frozen space every hardware gene is dead.
    DseSpace frozen = DseSpace::fixedSpace(BufferConfig{});
    Genome f1 = base, f2 = base;
    f2.actIdx += 3;
    EXPECT_EQ(hashFinalize(hashGenome(kHashSeed, f1, frozen)),
              hashFinalize(hashGenome(kHashSeed, f2, frozen)));
}

TEST(Hash, GraphAndAcceleratorFingerprints)
{
    Graph a = smallGraph();
    RandomDagOptions o;
    o.convNodes = 12;
    Graph b = buildRandomDag(12, o); // different seed -> different DAG
    EXPECT_EQ(hashGraph(kHashSeed, a), hashGraph(kHashSeed, a));
    EXPECT_NE(hashGraph(kHashSeed, a), hashGraph(kHashSeed, b));

    AcceleratorConfig ac1, ac2;
    ac2.cores = 4;
    EXPECT_NE(hashAccelerator(kHashSeed, ac1),
              hashAccelerator(kHashSeed, ac2));
}

// --- EvalCache accounting and LRU order -------------------------------------

namespace {

EvalCache::KeyView
keyOf(uint64_t hash, const std::vector<int> &block)
{
    return EvalCache::KeyView{hash, /*salt=*/42, block, 0, 0, 0};
}

} // namespace

TEST(EvalCache, HitMissAccounting)
{
    EvalCache cache(/*capacity=*/8, /*shards=*/1);
    std::vector<int> k1{0, 1, 2};
    Partition repaired;
    repaired.block = {0, 0, 1};
    repaired.numBlocks = 2;

    Partition out;
    double cost = 0.0;
    EXPECT_FALSE(cache.lookup(keyOf(1, k1), &out, &cost));
    cache.insert(keyOf(1, k1), repaired, 3.5);
    ASSERT_TRUE(cache.lookup(keyOf(1, k1), &out, &cost));
    EXPECT_EQ(cost, 3.5);
    EXPECT_EQ(out.block, repaired.block);
    EXPECT_EQ(out.numBlocks, 2);

    // Same hash, different key material: collision-safe miss.
    std::vector<int> k2{0, 1, 3};
    EXPECT_FALSE(cache.lookup(keyOf(1, k2), &out, &cost));

    EvalCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 1.0 / 3.0);
}

TEST(EvalCache, LruEvictionOrder)
{
    EvalCache cache(/*capacity=*/2, /*shards=*/1);
    Partition p;
    p.block = {0};
    p.numBlocks = 1;
    std::vector<int> ka{1}, kb{2}, kc{3};

    cache.insert(keyOf(10, ka), p, 1.0);
    cache.insert(keyOf(20, kb), p, 2.0);

    // Touch A so B becomes least recently used, then overflow.
    Partition out;
    double cost;
    ASSERT_TRUE(cache.lookup(keyOf(10, ka), &out, &cost));
    cache.insert(keyOf(30, kc), p, 3.0);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup(keyOf(10, ka), &out, &cost));  // kept
    EXPECT_TRUE(cache.lookup(keyOf(30, kc), &out, &cost));  // kept
    EXPECT_FALSE(cache.lookup(keyOf(20, kb), &out, &cost)); // evicted
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, StatsDeltaSubtraction)
{
    EvalCacheStats a, b;
    a.hits = 10;
    a.misses = 6;
    b.hits = 4;
    b.misses = 1;
    EvalCacheStats d = a - b;
    EXPECT_EQ(d.hits, 6u);
    EXPECT_EQ(d.misses, 5u);
    EXPECT_DOUBLE_EQ(d.hitRate(), 6.0 / 11.0);
    EXPECT_DOUBLE_EQ(EvalCacheStats{}.hitRate(), 0.0);
}

// --- Block-level cost cache --------------------------------------------------

TEST(EvalCache, BlockCostRoundTripAndPartitionCostEquality)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    BufferConfig buf;
    buf.style = BufferStyle::Separate;
    buf.actBytes = 256 * 1024;
    buf.weightBytes = 288 * 1024;
    Partition p = Partition::fixedRuns(g, 3);
    p.canonicalize(g);

    GraphCost plain = model.partitionCost(p, buf);

    EvalCache cache(64, 1);
    EvalCache::BlockView view = cache.blockView(/*salt=*/123);
    GraphCost first = model.partitionCost(p, buf, &view);
    GraphCost second = model.partitionCost(p, buf, &view);

    for (const GraphCost &gc : {first, second}) {
        EXPECT_EQ(plain.feasible, gc.feasible);
        EXPECT_EQ(plain.emaBytes, gc.emaBytes);
        EXPECT_EQ(plain.energyPj, gc.energyPj);
        EXPECT_EQ(plain.latencyCycles, gc.latencyCycles);
        EXPECT_EQ(plain.peakBwGBps, gc.peakBwGBps);
    }

    EvalCacheStats s = cache.stats();
    EXPECT_EQ(s.blockMisses, static_cast<uint64_t>(plain.subgraphs));
    EXPECT_EQ(s.blockHits, static_cast<uint64_t>(plain.subgraphs));

    // A partition sharing a prefix of blocks reuses their costs.
    Partition q = p;
    int last = q.block.back();
    q.block.back() = last + 1; // split the final node out
    q.canonicalize(g);
    uint64_t hits_before = cache.stats().blockHits;
    model.partitionCost(q, buf, &view);
    EXPECT_GT(cache.stats().blockHits, hits_before);

    // A different model salt is fenced off: everything misses.
    EvalCache::BlockView other = cache.blockView(/*salt=*/456);
    uint64_t misses_before = cache.stats().blockMisses;
    GraphCost fenced = model.partitionCost(p, buf, &other);
    EXPECT_EQ(plain.energyPj, fenced.energyPj);
    EXPECT_GE(cache.stats().blockMisses,
              misses_before + static_cast<uint64_t>(plain.subgraphs));
}

// --- Engine transparency ----------------------------------------------------

TEST(EvalEngine, CachedEvaluationMatchesUncached)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    EvalOptions on;
    EvalOptions off;
    off.cacheEnabled = false;
    EvalEngine cached(model, space, on);
    EvalEngine uncached(model, space, off);
    ASSERT_NE(cached.cache(), nullptr);
    EXPECT_EQ(uncached.cache(), nullptr);
    EXPECT_EQ(cached.salt(), uncached.salt());

    Genome a = genomeOf(g);
    Genome b = genomeOf(g);
    double ca = cached.evaluate(a);
    double cb = uncached.evaluate(b);
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(a.part.block, b.part.block); // same in-situ repair

    // Second evaluation: a pure hit, restoring the same partition.
    Genome c = genomeOf(g);
    EXPECT_EQ(cached.evaluate(c), ca);
    EXPECT_EQ(c.part.block, a.part.block);
    EXPECT_EQ(cached.cache()->stats().hits, 1u);
}

TEST(EvalEngine, SaltSeparatesContexts)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    EvalOptions o1;
    EvalOptions o2;
    o2.alpha = o1.alpha * 2;
    EvalEngine e1(model, space, o1);
    EvalEngine e2(model, space, o2);
    EXPECT_NE(e1.salt(), e2.salt());

    // Same genome through a SHARED cache under different salts:
    // the second engine must not be served the first one's value.
    auto cache = std::make_shared<EvalCache>();
    EvalEngine s1(model, space, o1, nullptr, cache);
    EvalEngine s2(model, space, o2, nullptr, cache);
    Genome a = genomeOf(g);
    Genome b = genomeOf(g);
    double v1 = s1.evaluate(a);
    double v2 = s2.evaluate(b);
    EXPECT_NE(v1, v2); // different alpha -> different objective
    EXPECT_EQ(cache->stats().hits, 0u);
}

// --- Search-level determinism ------------------------------------------------

TEST(Search, GaBitIdenticalWithCacheOnOffAndWarm)
{
    Graph g = mediumGraph();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    GaOptions off = fastGa();
    off.cacheEnabled = false;
    CostModel m1(g, AcceleratorConfig{});
    SearchResult r_off = GeneticSearch(m1, space, off).run();

    GaOptions on = fastGa();
    on.cache = std::make_shared<EvalCache>();
    CostModel m2(g, AcceleratorConfig{});
    SearchResult r_cold = GeneticSearch(m2, space, on).run();
    expectSameResult(r_off, r_cold);
    EXPECT_GT(r_cold.cacheStats.misses, 0u);

    // Warm repeat on a fresh CostModel: everything is served.
    CostModel m3(g, AcceleratorConfig{});
    SearchResult r_warm = GeneticSearch(m3, space, on).run();
    expectSameResult(r_off, r_warm);
    EXPECT_EQ(r_warm.cacheStats.misses, 0u);
    EXPECT_EQ(r_warm.cacheStats.hits,
              static_cast<uint64_t>(r_warm.samples));
}

TEST(Search, GaBitIdenticalAcrossThreadCountsWithCache)
{
    Graph g = mediumGraph();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    GaOptions serial = fastGa();
    CostModel m1(g, AcceleratorConfig{});
    SearchResult r1 = GeneticSearch(m1, space, serial).run();

    GaOptions parallel = fastGa();
    parallel.threads = 4;
    CostModel m2(g, AcceleratorConfig{});
    SearchResult r4 = GeneticSearch(m2, space, parallel).run();
    expectSameResult(r1, r4);
}

TEST(Search, SaAndTwoStepReportCacheStats)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    SaOptions sa;
    sa.sampleBudget = 200;
    sa.seed = 3;
    SearchResult r = simulatedAnnealing(model, space, sa);
    EXPECT_EQ(r.cacheStats.hits + r.cacheStats.misses,
              static_cast<uint64_t>(r.samples));

    TwoStepOptions ts;
    ts.sampleBudget = 300;
    ts.samplesPerCandidate = 100;
    ts.population = 10;
    SearchResult t = twoStepGrid(model, space, ts);
    EXPECT_GT(t.cacheStats.misses, 0u);
}

// --- On-disk round trip -----------------------------------------------------

TEST(Persistence, EntryLevelRoundTripIsExact)
{
    std::string path = tmpPath("roundtrip.evalcache");
    EvalCache cache(64, 1);
    Partition rep;
    rep.block = {0, 0, 1, 2};
    rep.numBlocks = 3;
    std::vector<int> key{0, 1, 2, 3};
    EvalCache::KeyView kv{/*hash=*/0xabcdef01ULL, /*salt=*/77, key, 1, 2, 0};
    cache.insert(kv, rep, 0.1 + 0.2); // value with no short decimal form

    ASSERT_TRUE(saveEvalCache(cache, path));
    EvalCache loaded(64, 1);
    EXPECT_EQ(loadEvalCache(loaded, path), 1);

    Partition out;
    double cost = 0.0;
    ASSERT_TRUE(loaded.lookup(kv, &out, &cost));
    EXPECT_EQ(cost, 0.1 + 0.2); // hexfloat round trip is bit-exact
    EXPECT_EQ(out.block, rep.block);
    EXPECT_EQ(out.numBlocks, 3);
    std::remove(path.c_str());
}

TEST(Persistence, WarmStartFromDiskServesEverything)
{
    std::string path = tmpPath("warmstart.evalcache");
    Graph g = smallGraph();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    GaOptions opts = fastGa(200);
    opts.cache = std::make_shared<EvalCache>();
    CostModel m1(g, AcceleratorConfig{});
    SearchResult first = GeneticSearch(m1, space, opts).run();
    ASSERT_TRUE(saveEvalCache(*opts.cache, path));

    GaOptions warm = fastGa(200);
    warm.cache = std::make_shared<EvalCache>();
    ASSERT_GT(loadEvalCache(*warm.cache, path), 0);
    CostModel m2(g, AcceleratorConfig{});
    SearchResult second = GeneticSearch(m2, space, warm).run();

    expectSameResult(first, second);
    EXPECT_EQ(second.cacheStats.misses, 0u);
    std::remove(path.c_str());
}

TEST(Persistence, RejectsMissingAndCorruptFiles)
{
    EvalCache cache;
    EXPECT_EQ(loadEvalCache(cache, tmpPath("does-not-exist.evalcache")), -1);

    std::string path = tmpPath("corrupt.evalcache");
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT-A-CACHE 9\n", f);
    std::fclose(f);
    EXPECT_EQ(loadEvalCache(cache, path), -1);
    std::remove(path.c_str());
}

TEST(Persistence, RejectsOutOfRangeBlockIds)
{
    // A cache hit on an entry with a block id outside [0, n) would hand
    // the search a partition whose block lists index out of bounds.
    std::string path = tmpPath("block_ids.evalcache");
    EvalCache cache(64, 1);
    Partition rep;
    rep.block = {0, 0, 1, 2};
    rep.numBlocks = 3;
    std::vector<int> key{0, 1, 2, 3};
    cache.insert({/*hash=*/0x1234ULL, /*salt=*/5, key, 0, 0, 0}, rep, 1.0);
    ASSERT_TRUE(saveEvalCache(cache, path));
    std::string text;
    {
        std::ifstream in(path);
        text.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::string tail = " 0 1 2 3 0 0 1 2\n"; // key, then repaired
    ASSERT_EQ(text.substr(text.size() - tail.size()), tail);

    for (const char *doctored :
         {" 0 1 2 3 0 0 -1 2\n", " 0 1 2 4 0 0 1 2\n", " 0 1 2 3 0 0 1 9\n"}) {
        {
            std::ofstream out(path);
            out << text.substr(0, text.size() - tail.size()) << doctored;
        }
        EvalCache loaded(64, 1);
        EXPECT_EQ(loadEvalCache(loaded, path), 0) << doctored;
        EXPECT_EQ(loaded.size(), 0u);
    }
    std::remove(path.c_str());
}

// --- Operator gene-delta reporting ------------------------------------------

TEST(GeneDelta, OperatorsReportTouchedGenes)
{
    Graph g = smallGraph();
    DseSpace space = DseSpace::paperSpace(BufferStyle::Separate);
    Rng rng(9);

    for (int trial = 0; trial < 50; ++trial) {
        Genome base = randomGenome(g, space, rng);

        Genome child = base;
        GeneDelta d;
        std::vector<int> before = child.part.block;
        mutateModifyNode(g, child, rng, &d);
        EXPECT_FALSE(d.hwChanged);
        if (d.partitionChanged) {
            ASSERT_EQ(d.nodes.size(), 1u);
            // The reported node is the one the operator reassigned.
            EXPECT_NE(before[d.nodes[0]], -1);
        } else {
            EXPECT_EQ(child.part.block, before);
        }

        GeneDelta dse;
        mutateDse(space, child, rng, 2.0, &dse);
        EXPECT_TRUE(dse.nodes.empty());
        EXPECT_FALSE(dse.partitionChanged);

        GeneDelta cx;
        Genome other = randomGenome(g, space, rng);
        crossover(g, space, base, other, rng, &cx);
        EXPECT_TRUE(cx.partitionChanged);
        EXPECT_TRUE(cx.hwChanged);
        EXPECT_TRUE(cx.nodes.empty()); // global rewrite marker
    }
}

TEST(GeneDelta, SearchAccumulatesDeltaStats)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions opts = fastGa(300);
    SearchResult r = GeneticSearch(model, space, opts).run();
    // Every offspring evaluation carries a delta report (the initial
    // population does not).
    EXPECT_GT(r.deltaStats.reports, 0u);
    EXPECT_GT(r.deltaStats.rewrites, 0u);
}

// --- Metrics JSON ------------------------------------------------------------

TEST(Metrics, DocumentShapeAndEvalAccounting)
{
    RunMetrics m;
    m.name = "unit";
    m.model = "TestNet";
    m.threads = 2;
    m.seed = 9;
    m.samples = 100;
    m.bestCost = 1.5;
    m.wallSeconds = 0.25;
    m.cacheEnabled = true;
    m.cache.hits = 60;
    m.cache.misses = 40;
    m.extra.push_back({"speedup", 2.0});

    EXPECT_EQ(m.evalsTotal(), 100);
    EXPECT_EQ(m.evalsCached(), 60);
    EXPECT_EQ(m.evalsComputed(), 40);

    std::string doc = metricsToJson("unit_test", {m});
    EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"generator\":\"unit_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"evals_cached\":60"), std::string::npos);
    EXPECT_NE(doc.find("\"speedup\":2"), std::string::npos);

    RunMetrics plain;
    plain.samples = 7;
    EXPECT_EQ(plain.evalsTotal(), 7);
    EXPECT_EQ(plain.evalsCached(), 0);

    std::string path = tmpPath("metrics.json");
    ASSERT_TRUE(writeMetricsFile(path, "unit_test", {m}));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}
