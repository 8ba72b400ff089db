/**
 * @file
 * Tests for the evaluation-cache subsystem: the 64-bit content hash
 * combinators, packed block ids at each width, hit/miss/eviction
 * accounting and LRU order, the engine's transparency contract
 * (bit-identical results for cache on vs. off, across thread counts,
 * and on warm repeats), the on-disk round trip, operator gene-delta
 * reporting, and the JSON metrics document.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include <sys/stat.h>

#include "core/cocco.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "models/models.h"
#include "models/random_dag.h"
#include "search/eval_cache.h"
#include "search/operators.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

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

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary) << text;
}

/** A persisted-form entry; the repaired blocks equal the key. */
EvalCache::Entry
entryOf(uint64_t hash, const std::vector<int> &key, double cost)
{
    EvalCache::Entry e;
    e.hash = hash;
    e.salt = 5;
    e.keyBlock = e.repairedBlock = key;
    e.numBlocks = key.empty() ? 0 : key.back() + 1;
    e.cost = cost;
    return e;
}

/** Every genome entry in visit order, with costs by bit pattern. */
std::vector<std::string>
dumpEntries(const EvalCache &cache)
{
    std::vector<std::string> rows;
    cache.forEachEntry([&](const EvalCache::Entry &e) {
        uint64_t bits = 0;
        std::memcpy(&bits, &e.cost, sizeof bits);
        std::string row = strprintf(
            "%016llx %016llx %d %d %d %d %016llx key",
            static_cast<unsigned long long>(e.hash),
            static_cast<unsigned long long>(e.salt), e.actIdx, e.weightIdx,
            e.sharedIdx, e.numBlocks, static_cast<unsigned long long>(bits));
        for (int b : e.keyBlock)
            row += " " + std::to_string(b);
        row += " repaired";
        for (int b : e.repairedBlock)
            row += " " + std::to_string(b);
        rows.push_back(row);
    });
    return rows;
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

    // Two core counts of one platform hash apart.
    AcceleratorConfig ac;
    const InterconnectConfig ic = resolveInterconnect({}, ac);
    EXPECT_NE(hashAccelerator(kHashSeed, ac, 1, ic),
              hashAccelerator(kHashSeed, ac, 4, ic));
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
    // Inserted entries are served as inserted: the graph a lookup
    // names is read only by the first hit of an entry loaded from a
    // file.
    const Graph g = smallGraph();
    EvalCache cache(/*capacity=*/8, /*shards=*/1);
    std::vector<int> k1{0, 1, 2};
    Partition repaired;
    repaired.block = {0, 0, 1};
    repaired.numBlocks = 2;

    Partition out;
    double cost = 0.0;
    EXPECT_FALSE(cache.lookup(keyOf(1, k1), g, &out, &cost));
    cache.insert(keyOf(1, k1), repaired, 3.5);
    ASSERT_TRUE(cache.lookup(keyOf(1, k1), g, &out, &cost));
    EXPECT_EQ(cost, 3.5);
    EXPECT_EQ(out.block, repaired.block);
    EXPECT_EQ(out.numBlocks, 2);

    // Same hash, different key material: collision-safe miss.
    std::vector<int> k2{0, 1, 3};
    EXPECT_FALSE(cache.lookup(keyOf(1, k2), g, &out, &cost));

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
    const Graph g = smallGraph();
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
    ASSERT_TRUE(cache.lookup(keyOf(10, ka), g, &out, &cost));
    cache.insert(keyOf(30, kc), p, 3.0);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup(keyOf(10, ka), g, &out, &cost));  // kept
    EXPECT_TRUE(cache.lookup(keyOf(30, kc), g, &out, &cost));  // kept
    EXPECT_FALSE(cache.lookup(keyOf(20, kb), g, &out, &cost)); // evicted
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, HitsCarryTheInsertedFlag)
{
    // The engine inserts what evaluation returned; a hit hands on the
    // canonical flag exactly when the inserted partition carried it,
    // whether or not the entry keeps repaired ids apart from its key.
    Graph g = smallGraph();
    EvalCache cache(8, 1);
    const Partition flagged = Partition::singletons(g);
    Partition plain = flagged;
    plain.block = std::vector<int>(flagged.block); // same ids, no flag
    std::vector<int> ka(g.size(), 0), kb(g.size(), 1), kc = flagged.block;
    cache.insert(keyOf(1, ka), flagged, 1.0);
    cache.insert(keyOf(2, kb), plain, 2.0);
    cache.insert(keyOf(3, kc), plain, 3.0);
    Partition out;
    double cost = 0.0;
    for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(cache.lookup(keyOf(1, ka), g, &out, &cost));
        EXPECT_TRUE(out.canonical());
        ASSERT_TRUE(cache.lookup(keyOf(2, kb), g, &out, &cost));
        EXPECT_FALSE(out.canonical()); // never re-checked
        EXPECT_EQ(out.block, flagged.block);
        ASSERT_TRUE(cache.lookup(keyOf(3, kc), g, &out, &cost));
        EXPECT_FALSE(out.canonical());
        EXPECT_EQ(out.block, flagged.block);
    }
}

TEST(PackedIds, NarrowestWidthRoundTrips)
{
    // Each width at its bounds, read back by iteration, unpack() and
    // comparison; a 4-byte vector keeps a negative id.
    const std::vector<std::pair<std::vector<int>, size_t>> cases{
        {{}, 1},
        {{0, 1, 255}, 1},
        {{0, 256, 343}, 2},
        {{65535, 0}, 2},
        {{0, 65536, 7}, 4},
        {{3, -1, 0}, 4},
    };
    for (const auto &[ids, width] : cases) {
        PackedIds p = ids;
        EXPECT_EQ(p.width(), width);
        EXPECT_EQ(p.size(), ids.size());
        EXPECT_EQ(std::vector<int>(p.begin(), p.end()), ids);
        std::vector<int> out(ids.size(), 42);
        p.unpack(out.data());
        EXPECT_EQ(out, ids);
        EXPECT_TRUE(p == ids);
        EXPECT_TRUE(p == PackedIds(ids));
    }
    PackedIds braced;
    braced = {65536, -1};
    EXPECT_EQ(braced.width(), 4u);
    EXPECT_EQ(braced[0], 65536);
    EXPECT_EQ(braced[1], -1);
    EXPECT_FALSE(braced == (std::vector<int>{65536}));
}

TEST(EvalCache, KeysCompareAboveTheirPackedWidth)
{
    // A stored 1-byte key and a probe that differs from it only above
    // the low byte (1 vs 257): the probe misses.
    const Graph g = smallGraph();
    EvalCache cache(8, 1);
    std::vector<int> stored{0, 1, 2};
    std::vector<int> probe{0, 257, 2};
    const Partition p = Partition::singletons(g);
    cache.insert(keyOf(1, stored), p, 1.0);
    Partition out;
    double cost = 0.0;
    EXPECT_FALSE(cache.lookup(keyOf(1, probe), g, &out, &cost));
    EXPECT_TRUE(cache.lookup(keyOf(1, stored), g, &out, &cost));
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

TEST(EvalEngine, CountsRowLookupsInItsCache)
{
    // A computed evaluation costs its blocks through this thread's row
    // and counts the lookups into the engine's cache. A genome-cache
    // hit costs no block, and a second engine over the same model finds
    // the blocks the first one left in the row.
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    EvalEngine first(model, space, EvalOptions{});
    Genome a = genomeOf(g);
    const double cost = first.evaluate(a);
    const EvalCacheStats cold = first.cache()->stats();
    EXPECT_GT(cold.blockMisses, 0u);

    Genome again = genomeOf(g);
    EXPECT_EQ(first.evaluate(again), cost);
    EXPECT_EQ(first.cache()->stats().blockHits, cold.blockHits);
    EXPECT_EQ(first.cache()->stats().blockMisses, cold.blockMisses);

    EvalEngine second(model, space, EvalOptions{});
    Genome b = genomeOf(g);
    EXPECT_EQ(second.evaluate(b), cost);
    const EvalCacheStats warm = second.cache()->stats();
    EXPECT_EQ(warm.misses, 1u);
    EXPECT_GT(warm.blockHits, 0u);
    EXPECT_LT(warm.blockMisses, cold.blockMisses);
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
    // The looked-up entry's first hit checks it against g: a canonical
    // partition, so it hits.
    const Graph g = smallGraph();
    EvalCache cache(64, 1);
    const Partition rep = Partition::singletons(g);
    std::vector<int> key(g.size(), 0);
    EvalCache::KeyView kv{/*hash=*/0xabcdef01ULL, /*salt=*/77, key, 1, 2, 0};
    cache.insert(kv, rep, 0.1 + 0.2); // value with no short decimal form
    // Repaired == key (stored at width 0), and the edge costs: infeasible,
    // negative, infinite and the smallest subnormal.
    const double costs[] = {kInfeasiblePenalty, -2.5e-7,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min()};
    for (int i = 0; i < 4; ++i)
        cache.insertEntry(entryOf(0x100 + i, i % 2 ? key : rep.block,
                                  costs[i]));

    ASSERT_TRUE(saveEvalCache(cache, path));
    EvalCache loaded(64, 1);
    EXPECT_EQ(loadEvalCache(loaded, path), 5);
    EXPECT_EQ(dumpEntries(loaded), dumpEntries(cache)); // order, cost bits

    Partition out;
    double cost = 0.0;
    ASSERT_TRUE(loaded.lookup(kv, g, &out, &cost));
    EXPECT_EQ(cost, 0.1 + 0.2);
    EXPECT_EQ(out.block, rep.block);
    EXPECT_EQ(out.numBlocks, rep.numBlocks);
    std::remove(path.c_str());
}

TEST(Persistence, PackedEntriesRoundTripAtEachWidth)
{
    // Keys whose ids fit one byte (a small graph's) and two (NasNet's
    // 344 singletons), each with the repaired ids equal to the key and
    // apart from it. Every hit, before the save and after the load,
    // returns the inserted ids, block count and canonical flag.
    std::string path = tmpPath("widths.evalcache");
    const Graph small = smallGraph();
    const Graph nasnet = buildModel("NasNet");
    struct Case
    {
        const Graph *g;
        std::vector<int> key;
        Partition repaired;
        size_t keyWidth;
        size_t repairedWidth; ///< 0: the repaired ids equal the key
    };
    const Partition smallOnes = Partition::singletons(small);
    const Partition nasnetOnes = Partition::singletons(nasnet);
    const std::vector<Case> cases{
        {&small, smallOnes.block, smallOnes, 1, 0},
        {&small, std::vector<int>(small.size(), 0), smallOnes, 1, 1},
        {&nasnet, nasnetOnes.block, nasnetOnes, 2, 0},
        {&nasnet, std::vector<int>(nasnet.size(), 0), nasnetOnes, 1, 2},
    };
    ASSERT_EQ(nasnetOnes.block.back(), 343);

    EvalCache cache(64, 1);
    for (size_t i = 0; i < cases.size(); ++i)
        cache.insert(keyOf(i, cases[i].key), cases[i].repaired, 1.0 + i);
    size_t visited = 0;
    cache.forEachEntry([&](const EvalCache::Entry &e) {
        const Case &c = cases[e.hash];
        EXPECT_EQ(e.keyBlock.width(), c.keyWidth) << e.hash;
        EXPECT_TRUE(e.keyBlock == c.key) << e.hash;
        EXPECT_EQ(e.repairedBlock.empty(), c.repairedWidth == 0) << e.hash;
        if (c.repairedWidth != 0) {
            EXPECT_TRUE(e.repairedBlock == c.repaired.block.ids());
            EXPECT_EQ(e.repairedBlock.width(), c.repairedWidth);
        }
        ++visited;
    });
    EXPECT_EQ(visited, cases.size());

    auto expectHits = [&](EvalCache &c, const char *what) {
        for (size_t i = 0; i < cases.size(); ++i) {
            Partition out = Partition::fixedRuns(*cases[i].g, 2);
            double cost = 0.0;
            ASSERT_TRUE(c.lookup(keyOf(i, cases[i].key), *cases[i].g, &out,
                                 &cost))
                << what << " " << i;
            EXPECT_EQ(out.block, cases[i].repaired.block) << what << " " << i;
            EXPECT_EQ(out.numBlocks, cases[i].repaired.numBlocks);
            EXPECT_TRUE(out.canonical()) << what << " " << i;
            EXPECT_EQ(cost, 1.0 + i);
        }
    };
    expectHits(cache, "inserted");
    ASSERT_TRUE(saveEvalCache(cache, path));
    EvalCache loaded(64, 1);
    EXPECT_EQ(loadEvalCache(loaded, path), 4);
    EXPECT_EQ(dumpEntries(loaded), dumpEntries(cache));
    expectHits(loaded, "loaded");
    std::remove(path.c_str());
}

TEST(Persistence, LoadedEntriesAreCheckedOnTheirFirstHit)
{
    // A file carries no canonical flags, and loading checks nothing per
    // entry: an entry whose repaired partition is valid but not
    // canonical (two ids swapped) loads like any other. Its first hit
    // checks it and serves it as a miss, leaving the caller's
    // partition alone; it is never handed on. A canonical entry's
    // first hit flags it.
    std::string path = tmpPath("checked.evalcache");
    Graph g = smallGraph();
    const Partition good = Partition::singletons(g);
    Partition swapped = good;
    for (int &id : swapped.block)
        id = id == 3 ? 4 : id == 4 ? 3 : id;
    ASSERT_FALSE(swapped.isCanonical(g));
    std::vector<int> kgood(g.size(), 0), kbad(g.size(), 1);
    {
        EvalCache cache(64, 1);
        cache.insert(keyOf(1, kgood), good, 1.0);
        cache.insert(keyOf(2, kbad), swapped, 2.0);
        ASSERT_TRUE(saveEvalCache(cache, path));
    }

    EvalCache loaded(64, 1);
    ASSERT_EQ(loadEvalCache(loaded, path), 2);
    Partition out;
    double cost = 0.0;
    const Partition before = Partition::fixedRuns(g, 2);
    for (int round = 0; round < 2; ++round) {
        Partition mine = before;
        EXPECT_FALSE(loaded.lookup(keyOf(2, kbad), g, &mine, &cost));
        EXPECT_EQ(mine.block, before.block);
        EXPECT_FALSE(mine.canonical());
    }
    ASSERT_TRUE(loaded.lookup(keyOf(1, kgood), g, &out, &cost));
    EXPECT_EQ(out.block, good.block);
    EXPECT_TRUE(out.canonical());
    EXPECT_EQ(cost, 1.0);
    EvalCacheStats s = loaded.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);

    // The evaluation that follows the miss replaces the entry.
    loaded.insert(keyOf(2, kbad), good, 2.5);
    ASSERT_TRUE(loaded.lookup(keyOf(2, kbad), g, &out, &cost));
    EXPECT_TRUE(out.canonical());
    EXPECT_EQ(cost, 2.5);
    EXPECT_EQ(loaded.size(), 2u);
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
    std::string err;
    EXPECT_EQ(loadEvalCache(cache, tmpPath("does-not-exist.evalcache"), &err),
              -1);
    EXPECT_NE(err.find("cannot read file"), std::string::npos) << err;

    std::string path = tmpPath("corrupt.evalcache");
    writeText(path, "NOT-A-CACHE 9\n");
    EXPECT_EQ(loadEvalCache(cache, path, &err), -1);
    EXPECT_NE(err.find("not a cocco evaluation-cache file"),
              std::string::npos)
        << err;
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST(Persistence, RejectsVersionOneAndTwoFiles)
{
    // The text layouts of earlier builds: v1 (no trailer, the repaired
    // ids always spelled out) and v2 (an END trailer, "=" for repaired
    // ids equal to the key). Each costs a cold start.
    std::string path = tmpPath("text.evalcache");
    const std::pair<int, std::string> files[] = {
        {1, "COCCO-EVALCACHE 1\n"
            "E 1234 5 0 0 0 3 0x1p+0 4 0 1 2 3 0 0 1 2\n"},
        {2, "COCCO-EVALCACHE 2\n"
            "E 1234 5 0 0 0 3 0x1p+0 4 0 1 2 3 =\n"
            "END 1 0123456789abcdef\n"},
    };
    for (const auto &[version, text] : files) {
        writeText(path, text);
        EvalCache cache(64, 1);
        std::string err;
        EXPECT_EQ(loadEvalCache(cache, path, &err), -1) << version;
        EXPECT_NE(err.find(strprintf("unsupported cache format version %d "
                                     "(this build reads 3)",
                                     version)),
                  std::string::npos)
            << err;
        EXPECT_EQ(cache.size(), 0u);
    }
    std::remove(path.c_str());
}

TEST(Persistence, GoldenFileLoads)
{
    // A v3 file spelled out byte by byte, so the layout is pinned on
    // any host: the header line, two entry records and the trailer,
    // every integer little-endian. Saving what it loads writes the
    // same bytes back.
    auto le = [](uint64_t v, int width) {
        std::string out;
        for (int b = 0; b < width; ++b)
            out += static_cast<char>(v >> 8 * b & 0xff);
        return out;
    };
    std::string file = "COCCO-EVALCACHE 3\n";
    // Entry 1: key ids {0, 0, 1} and separate repaired ids {0, 1, 1},
    // one byte per id; cost 1.5.
    static const char entry1[] = "E"
                                 "\xef\xcd\xab\x89\x67\x45\x23\x01" // hash
                                 "\x05\x00\x00\x00\x00\x00\x00\x00" // salt
                                 "\x01\x00\x00\x00"                 // act
                                 "\x02\x00\x00\x00"                 // wgt
                                 "\x03\x00\x00\x00"                 // shr
                                 "\x02\x00\x00\x00" // numBlocks
                                 "\x00\x00\x00\x00\x00\x00\xf8\x3f" // cost
                                 "\x03\x00\x00\x00"                 // n
                                 "\x01\x01" // key, repaired widths
                                 "\x00\x00\x01"  // key ids
                                 "\x00\x01\x01"; // repaired ids
    file.append(entry1, sizeof entry1 - 1);
    // Entry 2: 300 singleton ids at two bytes each, the repaired ids
    // equal to the key (width 0); cost -0.25.
    static const char entry2[] = "E"
                                 "\x10\x00\x00\x00\x00\x00\x00\x00" // hash
                                 "\x05\x00\x00\x00\x00\x00\x00\x00" // salt
                                 "\x00\x00\x00\x00"                 // act
                                 "\x07\x00\x00\x00"                 // wgt
                                 "\x00\x00\x00\x00"                 // shr
                                 "\x2c\x01\x00\x00" // numBlocks 300
                                 "\x00\x00\x00\x00\x00\x00\xd0\xbf" // cost
                                 "\x2c\x01\x00\x00" // n = 300
                                 "\x02\x00"; // key, repaired widths
    file.append(entry2, sizeof entry2 - 1);
    for (int id = 0; id < 300; ++id)
        file += le(static_cast<uint64_t>(id), 2);
    file += "T" + le(2, 8) + le(0x842fdf6a17e2b14aULL, 8); // count, checksum
    const std::string path = tmpPath("golden.evalcache");
    writeText(path, file);

    EvalCache loaded(64, 1);
    std::string err;
    ASSERT_EQ(loadEvalCache(loaded, path, &err), 2) << err;
    std::string singletons;
    for (int id = 0; id < 300; ++id)
        singletons += " " + std::to_string(id);
    EXPECT_EQ(dumpEntries(loaded),
              (std::vector<std::string>{
                  "0123456789abcdef 0000000000000005 1 2 3 2 "
                  "3ff8000000000000 key 0 0 1 repaired 0 1 1",
                  "0000000000000010 0000000000000005 0 7 0 300 "
                  "bfd0000000000000 key" +
                      singletons + " repaired",
              }));
    loaded.forEachEntry([](const EvalCache::Entry &e) {
        EXPECT_EQ(e.keyBlock.width(), e.hash == 0x10 ? 2u : 1u);
    });
    ASSERT_TRUE(saveEvalCache(loaded, path));
    EXPECT_EQ(readText(path), file);
    std::remove(path.c_str());
}

TEST(Persistence, RejectsOutOfRangeBlockIds)
{
    // A cache hit on an entry with a block id outside [0, n) would hand
    // the search a partition whose block lists index out of bounds. The
    // bad entries go through the writer, so the checksum is valid and
    // the id-range check is what rejects the file, whole.
    std::string path = tmpPath("block_ids.evalcache");
    const std::vector<std::vector<int>> keys{
        {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 4}, {0, -1, 2, 3}};
    const std::vector<std::vector<int>> repaired{
        {0, 0, -1, 2}, {0, 0, 1, 9}, {0, 0, 1, 2}, {0, -1, 2, 3}};
    for (size_t i = 0; i < keys.size(); ++i) {
        EvalCache bad(64, 1);
        bad.insertEntry(entryOf(0x1234, {0, 1, 2, 3}, 1.0));
        EvalCache::Entry e = entryOf(0x5678, keys[i], 2.0);
        e.repairedBlock = repaired[i];
        bad.insertEntry(e);
        ASSERT_TRUE(saveEvalCache(bad, path));

        EvalCache loaded(64, 1);
        loaded.insertEntry(entryOf(0x42, {0}, 7.0));
        const std::vector<std::string> before = dumpEntries(loaded);
        std::string err;
        EXPECT_EQ(loadEvalCache(loaded, path, &err), -1) << i;
        EXPECT_NE(err.find("entry 2: block id out of range"),
                  std::string::npos)
            << err;
        EXPECT_EQ(dumpEntries(loaded), before) << i;
    }
    std::remove(path.c_str());
}

TEST(Persistence, SaveReplacesTheFileAtomically)
{
    std::string path = tmpPath("atomic.evalcache");
    std::string tmp = path + ".tmp";
    EvalCache first(64, 1);
    for (int i = 0; i < 3; ++i)
        first.insertEntry(entryOf(0x10 + i, {0, 1, 1}, i));
    ASSERT_TRUE(saveEvalCache(first, path));
    EXPECT_FALSE(std::ifstream(tmp).good()); // no temporary left behind

    // A directory squatting on the temporary's name makes the save
    // fail before the previous file is touched.
    ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
    EvalCache second(64, 1);
    second.insertEntry(entryOf(0x99, {0}, 9.0));
    EXPECT_FALSE(saveEvalCache(second, path));
    ::rmdir(tmp.c_str());

    EvalCache loaded(64, 1);
    EXPECT_EQ(loadEvalCache(loaded, path), 3);
    EXPECT_EQ(dumpEntries(loaded), dumpEntries(first));
    std::remove(path.c_str());
}

namespace {

/** The 4 little-endian bytes of @p s at @p at. */
size_t
le32At(const std::string &s, size_t at)
{
    size_t v = 0;
    for (int b = 3; b >= 0; --b)
        v = v << 8 | static_cast<unsigned char>(s[at + b]);
    return v;
}

/** A v3 cache file cut into its header line and its records: each
 *  entry's fixed part and id lists, then the trailer. */
std::vector<std::string>
splitRecords(const std::string &file)
{
    constexpr size_t kFixed = 47, kTrailer = 17;
    std::vector<std::string> parts{file.substr(0, file.find('\n') + 1)};
    for (size_t at = parts[0].size(); at < file.size();) {
        size_t len = kTrailer;
        if (file[at] == 'E')
            len = kFixed + le32At(file, at + 41) *
                               (static_cast<unsigned char>(file[at + 45]) +
                                static_cast<unsigned char>(file[at + 46]));
        parts.push_back(file.substr(at, len));
        at += len;
    }
    return parts;
}

} // namespace

TEST(Persistence, LoaderRejectsEveryMutation)
{
    // Deterministic mutation fuzz: every doctored copy of a good file
    // must load nothing, give a reason, and leave the cache as it was.
    Rng rng(16);
    EvalCache source(64, 1);
    for (int i = 0; i < 6; ++i) {
        std::vector<int> key(5 + i);
        for (size_t v = 0; v < key.size(); ++v)
            key[v] = static_cast<int>(v / 2);
        EvalCache::Entry e = entryOf(rng.next(), key, rng.uniformReal());
        if (i % 2) {
            std::vector<int> repaired = key;
            repaired.back() = static_cast<int>(key.size() - 1);
            e.repairedBlock = repaired;
        }
        source.insertEntry(e);
    }
    std::string path = tmpPath("fuzz.evalcache");
    ASSERT_TRUE(saveEvalCache(source, path));
    const std::string text = readText(path);
    const std::vector<std::string> records = splitRecords(text);
    ASSERT_EQ(records.size(), 8u); // header, 6 entries, trailer
    {
        EvalCache whole(64, 1);
        ASSERT_EQ(loadEvalCache(whole, path), 6);
    }

    EvalCache target(64, 1);
    target.insertEntry(entryOf(0x5e471e1, {0, 0}, 3.0));
    const std::vector<std::string> sentinel = dumpEntries(target);
    // @p what labels a case; a targeted case also names the reason
    // the loader must give.
    auto expectRejected = [&](const std::string &doctored,
                              const std::string &what,
                              const std::string &reason = "") {
        writeText(path, doctored);
        std::string err;
        EXPECT_EQ(loadEvalCache(target, path, &err), -1) << what;
        EXPECT_FALSE(err.empty()) << what;
        EXPECT_NE(err.find(reason), std::string::npos) << what << ": " << err;
        EXPECT_EQ(dumpEntries(target), sentinel) << what;
    };
    auto join = [](const std::vector<std::string> &parts) {
        std::string out;
        for (const std::string &p : parts)
            out += p;
        return out;
    };

    expectRejected("", "empty", "empty file");
    expectRejected(records[0], "header only", "truncated: no trailer");
    for (size_t cut = 1; cut < text.size(); ++cut)
        expectRejected(text.substr(0, cut), "cut at " + std::to_string(cut),
                       ": truncated: ");
    for (int k = 0; k < 200; ++k) {
        std::string t = text;
        size_t at = rng.index(t.size());
        int bit = static_cast<int>(rng.index(8));
        t[at] = static_cast<char>(t[at] ^ (1 << bit));
        expectRejected(t, "bit " + std::to_string(bit) + " of byte " +
                              std::to_string(at));
    }
    for (size_t i = 0; i < records.size(); ++i) {
        std::vector<std::string> dup = records;
        dup.insert(dup.begin() + static_cast<long>(i), records[i]);
        expectRejected(join(dup), "record " + std::to_string(i) + " twice");
        for (size_t j = i + 1; j < records.size(); ++j) {
            std::vector<std::string> swapped = records;
            std::swap(swapped[i], swapped[j]);
            expectRejected(join(swapped), "records " + std::to_string(i) +
                                              " and " + std::to_string(j) +
                                              " swapped");
        }
    }
    std::vector<std::string> swapped = records;
    std::swap(swapped[1], swapped[2]);
    expectRejected(join(swapped), "two entries swapped", "checksum mismatch");
    std::vector<std::string> dup = records;
    dup.insert(dup.begin() + 1, records[1]);
    expectRejected(join(dup), "an entry twice", "entry count mismatch");

    // Targeted edits of one entry record (a random one of the six):
    // its fixed part is tag, hash, salt, act, wgt, shr, numBlocks,
    // cost, n (at byte 41), the key's and the repaired ids' widths
    // (bytes 45 and 46), then the key ids at byte 47.
    auto expectEntryRejected = [&](auto edit, const std::string &what,
                                   const std::string &reason) {
        std::vector<std::string> parts = records;
        const size_t which = 1 + rng.index(6);
        edit(parts[which]);
        expectRejected(join(parts), what,
                       "entry " + std::to_string(which) + ": " + reason);
    };
    expectEntryRejected(
        [](std::string &r) {
            const size_t n = (1 << 22) + 1;
            for (int b = 0; b < 4; ++b)
                r[41 + b] = static_cast<char>(n >> 8 * b & 0xff);
        },
        "n above the bound", "node count above the limit");
    expectEntryRejected([](std::string &r) { r[45] = 3; }, "a key width of 3",
                        "id width not 1, 2 or 4");
    expectEntryRejected([](std::string &r) { r[46] = 3; },
                        "a repaired width of 3", "id width not 1, 2 or 4");
    expectEntryRejected(
        [](std::string &r) {
            // The key ids again at two bytes each: valid ids, a width
            // wider than they need.
            const size_t n = le32At(r, 41);
            std::string wide;
            for (size_t i = 0; i < n; ++i)
                wide += std::string{r[47 + i], '\0'};
            r[45] = 2;
            r.replace(47, n, wide);
        },
        "a 2-byte key of 1-byte ids", "id width wider than the ids need");
    expectEntryRejected(
        [&](std::string &r) {
            r[47 + rng.index(le32At(r, 41))] =
                static_cast<char>(le32At(r, 41));
        },
        "a key id equal to n", "block id out of range");

    std::vector<std::string> miscounted = records;
    miscounted.back()[1] = static_cast<char>(miscounted.back()[1] + 1);
    expectRejected(join(miscounted), "trailer count off by one",
                   "entry count mismatch: the trailer says 7, the file "
                   "holds 6");
    expectRejected(text + '\0', "one byte after the trailer",
                   "data after the trailer");
    expectRejected(text + text, "the file twice", "data after the trailer");
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
        Genome mixed = crossover(g, space, base, other, rng, &cx);
        EXPECT_TRUE(cx.partitionChanged);
        EXPECT_TRUE(cx.hwChanged);
        EXPECT_TRUE(cx.rewrite);
        EXPECT_TRUE(cx.nodes.empty());
        // A mutation after the crossover appends to the report; the
        // rewrite flag survives it.
        mutateSplitSubgraph(g, mixed, rng, &cx);
        mutateModifyNode(g, mixed, rng, &cx);
        EXPECT_TRUE(cx.rewrite);
        EXPECT_FALSE(d.rewrite);
        EXPECT_FALSE(dse.rewrite);
    }
}

TEST(GeneDelta, SearchAccumulatesDeltaStats)
{
    Graph g = smallGraph();
    CostModel model(g, AcceleratorConfig{});
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    GaOptions opts = fastGa(300);
    opts.crossoverRate = 1.0;
    SearchResult r = GeneticSearch(model, space, opts).run();
    // Every offspring evaluation carries a delta report (the initial
    // population does not), and each counts as a rewrite, whatever
    // mutation followed its crossover.
    const uint64_t offspring = r.samples - opts.population;
    EXPECT_GT(offspring, 0u);
    EXPECT_EQ(r.deltaStats.reports, offspring);
    EXPECT_EQ(r.deltaStats.rewrites, offspring);
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
