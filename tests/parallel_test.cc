/**
 * @file
 * Tests for the parallel evaluation engine: the thread pool, the
 * thread-safe sharded CostModel profile memo and its published
 * profiles, per-thread block-cost rows, the EvalEngine batch
 * semantics, and thread-count invariance of the GA/SA/two-step
 * drivers (identical best objective, sample count, and trace for
 * threads=1 and threads=4).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/cocco.h"
#include "partition/repair.h"
#include "search/eval_engine.h"
#include "search/operators.h"
#include "search/sa.h"
#include "search/two_step.h"
#include "util/thread_pool.h"

using namespace cocco;

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    int calls = 0;
    pool.parallelFor(5, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, ReusableAcrossJobsAndHandlesEmpty)
{
    ThreadPool pool(3);
    pool.parallelFor(0, [&](size_t) { FAIL() << "empty job ran"; });
    for (int round = 0; round < 50; ++round) {
        std::atomic<size_t> sum{0};
        size_t n = static_cast<size_t>(1 + round * 7 % 97);
        pool.parallelFor(n, [&](size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(ThreadPool, ResolveThreadsDefaultsToHardware)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_GE(ThreadPool::resolveThreads(-1), 1);
}

// --- CostModel thread safety ------------------------------------------------

namespace {

/** A spread of subgraphs: every block of the L=1..6 fixed-run
 *  partitions (plus a few random ones). */
std::vector<std::vector<NodeId>>
sampleSubgraphs(const Graph &g)
{
    std::vector<std::vector<NodeId>> out;
    for (int run = 1; run <= 6; ++run) {
        Partition p = Partition::fixedRuns(g, run);
        p.canonicalize(g);
        for (auto &blk : p.blocks())
            out.push_back(blk);
    }
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(99);
    for (int i = 0; i < 4; ++i) {
        Genome genome = randomGenome(g, space, rng);
        for (auto &blk : genome.part.blocks())
            out.push_back(blk);
    }
    return out;
}

} // namespace

TEST(CostModelParallel, ConcurrentProfileMatchesSerial)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    std::vector<std::vector<NodeId>> subgraphs = sampleSubgraphs(g);

    // Hammer one model from 8 threads, every subgraph requested many
    // times concurrently; half the requests go through fits first, so
    // its memo probe and the singleton table's publication race with
    // profile().
    CostModel concurrent(g, accel);
    concurrent.setPruning(true);
    BufferConfig buf;
    buf.style = BufferStyle::Shared;
    buf.sharedBytes = 512 * 1024;
    ThreadPool pool(8);
    const size_t repeat = 16;
    pool.parallelFor(subgraphs.size() * repeat, [&](size_t i) {
        const std::vector<NodeId> &nodes = subgraphs[i % subgraphs.size()];
        if (i % 2)
            concurrent.fits(nodes, buf);
        concurrent.profile(nodes);
    });

    // Every memoized profile must match a serially-built model.
    CostModel serial(g, accel);
    for (const auto &nodes : subgraphs) {
        EXPECT_EQ(concurrent.fits(nodes, buf), serial.fits(nodes, buf));
        const SubgraphProfile &a = concurrent.profile(nodes);
        const SubgraphProfile &b = serial.profile(nodes);
        EXPECT_EQ(a.inBytes, b.inBytes);
        EXPECT_EQ(a.outBytes, b.outBytes);
        EXPECT_EQ(a.weightBytes, b.weightBytes);
        EXPECT_EQ(a.macs, b.macs);
        EXPECT_EQ(a.actFootprintBytes, b.actFootprintBytes);
        EXPECT_EQ(a.glbTraffic, b.glbTraffic);
        EXPECT_EQ(a.mappedCycles, b.mappedCycles);
    }
    EXPECT_EQ(concurrent.cacheSize(), serial.cacheSize());
}

TEST(CostModelParallel, ProfileKeyIsOrderIndependent)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    CostModel model(g, accel);

    Partition p = Partition::fixedRuns(g, 4);
    p.canonicalize(g);
    std::vector<NodeId> nodes = p.blocks().front();
    ASSERT_GT(nodes.size(), 1u);
    std::vector<NodeId> reversed(nodes.rbegin(), nodes.rend());

    // Same canonical node set -> same memo entry, not a duplicate.
    const SubgraphProfile &a = model.profile(nodes);
    const SubgraphProfile &b = model.profile(reversed);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(model.cacheSize(), 1u);
}

TEST(CostModelParallel, RowsOnFourThreadsMatchASerialModel)
{
    // Four threads share one cold model: each repairs and costs the
    // same partitions through its own rows under two alternating
    // buffers, in its own order, while the model memoizes and
    // publishes the profiles they ask for.
    Graph g = buildGoogleNet();
    std::vector<Partition> parts;
    for (int run : {2, 3, 5, 8})
        parts.push_back(repairStructure(g, Partition::fixedRuns(g, run)));
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Rng rng(17);
    for (int i = 0; i < 4; ++i)
        parts.push_back(randomGenome(g, space, rng).part);
    BufferConfig bufs[2];
    for (BufferConfig &b : bufs)
        b.style = BufferStyle::Shared;
    bufs[0].sharedBytes = 256 * 1024;
    bufs[1].sharedBytes = 1024 * 1024;

    struct Result
    {
        Partition repaired;
        GraphCost cost;
    };
    auto slot = [&](size_t i, int b) { return i * 2 + b; };
    CostModel serial(g, AcceleratorConfig{});
    std::vector<Result> want(parts.size() * 2);
    for (size_t i = 0; i < parts.size(); ++i)
        for (int b : {0, 1}) {
            Result &w = want[slot(i, b)];
            w.repaired = repairToCapacity(g, parts[i], serial, bufs[b]);
            w.cost = serial.partitionCost(w.repaired, bufs[b]);
        }

    CostModel shared(g, AcceleratorConfig{});
    shared.setPruning(true);
    const int rounds = 3;
    std::vector<std::vector<Result>> got(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < rounds; ++round)
                for (size_t k = 0; k < parts.size(); ++k)
                    for (int b : {0, 1}) {
                        const size_t i = (k + t) % parts.size();
                        BlockCostRow &row = blockCostRow(shared, bufs[b]);
                        Result r;
                        r.repaired = repairToCapacity(g, parts[i], shared,
                                                      bufs[b], &row);
                        r.cost = shared.partitionCost(r.repaired, bufs[b],
                                                      &row);
                        got[t].push_back(std::move(r));
                    }
        });
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < 4; ++t) {
        ASSERT_EQ(got[t].size(), rounds * parts.size() * 2);
        size_t n = 0;
        for (int round = 0; round < rounds; ++round)
            for (size_t k = 0; k < parts.size(); ++k)
                for (int b : {0, 1}) {
                    const Result &r = got[t][n++];
                    const Result &w = want[slot((k + t) % parts.size(), b)];
                    EXPECT_EQ(r.repaired.block.ids(), w.repaired.block.ids());
                    EXPECT_EQ(r.repaired.numBlocks, w.repaired.numBlocks);
                    EXPECT_EQ(r.cost.feasible, w.cost.feasible);
                    EXPECT_EQ(r.cost.subgraphs, w.cost.subgraphs);
                    EXPECT_EQ(r.cost.emaBytes, w.cost.emaBytes);
                    EXPECT_EQ(r.cost.energyPj, w.cost.energyPj);
                    EXPECT_EQ(r.cost.latencyCycles, w.cost.latencyCycles);
                    EXPECT_EQ(r.cost.avgBwGBps, w.cost.avgBwGBps);
                    EXPECT_EQ(r.cost.peakBwGBps, w.cost.peakBwGBps);
                }
    }
}

// --- EvalEngine -------------------------------------------------------------

TEST(EvalEngine, BatchMatchesSerialEvaluation)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    Rng rng(17);
    std::vector<Genome> batch;
    for (int i = 0; i < 24; ++i)
        batch.push_back(randomGenome(g, space, rng));
    std::vector<Genome> copies = batch;

    EvalOptions eo;
    eo.threads = 4;
    CostModel m1(g, accel);
    EvalEngine parallel_engine(m1, space, eo);
    std::vector<double> costs = parallel_engine.evaluateBatch(batch);

    eo.threads = 1;
    CostModel m2(g, accel);
    EvalEngine serial_engine(m2, space, eo);
    for (size_t i = 0; i < copies.size(); ++i) {
        double c = serial_engine.evaluate(copies[i]);
        EXPECT_EQ(costs[i], c) << "genome " << i;
        // In-situ tuning must be applied identically.
        EXPECT_EQ(batch[i].part.block, copies[i].part.block);
    }
}

// --- Thread-count invariance of the drivers ---------------------------------

namespace {

GaOptions
fastGa(int threads)
{
    GaOptions o;
    o.population = 24;
    o.sampleBudget = 480;
    o.seed = 7;
    o.threads = threads;
    return o;
}

void
expectSameResult(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(a.bestCost, b.bestCost); // bit-identical, no tolerance
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.best.part.block, b.best.part.block);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].sample, b.trace[i].sample);
        EXPECT_EQ(a.trace[i].bestCost, b.trace[i].bestCost) << "at " << i;
    }
}

} // namespace

TEST(ParallelSearch, GaIdenticalForOneAndFourThreads)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    CostModel m1(g, accel);
    SearchResult serial = GeneticSearch(m1, space, fastGa(1)).run();
    CostModel m4(g, accel);
    SearchResult parallel = GeneticSearch(m4, space, fastGa(4)).run();

    expectSameResult(serial, parallel);
    EXPECT_LT(serial.bestCost, kInfeasiblePenalty);
}

TEST(ParallelSearch, GaSeededRunsAreThreadCountInvariant)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    Genome seed;
    seed.part = Partition::fixedRuns(g, 3);
    seed.part.canonicalize(g);

    CostModel m1(g, accel);
    SearchResult serial = GeneticSearch(m1, space, fastGa(1)).run({seed});
    CostModel m4(g, accel);
    SearchResult parallel = GeneticSearch(m4, space, fastGa(4)).run({seed});
    expectSameResult(serial, parallel);
}

TEST(ParallelSearch, SaIdenticalForOneAndFourThreads)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    SaOptions o;
    o.sampleBudget = 400;
    o.seed = 5;
    o.neighborBatch = 4; // fixed batch: results must not depend on threads

    o.threads = 1;
    CostModel m1(g, accel);
    SearchResult serial = simulatedAnnealing(m1, space, o);
    o.threads = 4;
    CostModel m4(g, accel);
    SearchResult parallel = simulatedAnnealing(m4, space, o);

    expectSameResult(serial, parallel);
    EXPECT_EQ(serial.samples, 400);
}

TEST(ParallelSearch, TwoStepIdenticalForOneAndFourThreads)
{
    Graph g = buildGoogleNet();
    AcceleratorConfig accel;
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);

    TwoStepOptions o;
    o.sampleBudget = 450;
    o.samplesPerCandidate = 150;
    o.population = 24;

    o.threads = 1;
    CostModel m1(g, accel);
    SearchResult serial = twoStepGrid(m1, space, o);
    o.threads = 4;
    CostModel m4(g, accel);
    SearchResult parallel = twoStepGrid(m4, space, o);

    expectSameResult(serial, parallel);
}

TEST(ParallelSearch, FrameworkThreadsKnobEndToEnd)
{
    Graph g = buildGoogleNet();
    CoccoFramework serial_fw(g, AcceleratorConfig{});
    CoccoResult a = serial_fw.coExplore(BufferStyle::Shared, fastGa(1));
    CoccoFramework parallel_fw(g, AcceleratorConfig{});
    CoccoResult b = parallel_fw.coExplore(BufferStyle::Shared, fastGa(4));

    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.partition.block, b.partition.block);
    EXPECT_TRUE(b.cost.feasible);
}
